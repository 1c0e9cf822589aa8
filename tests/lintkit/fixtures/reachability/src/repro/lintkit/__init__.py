"""The linter's package."""
