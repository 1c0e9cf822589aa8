"""Re-exports: naming a definition here is not a use of it."""

from repro.meters.core import Counter, example_only, reexported

__all__ = ["Counter", "example_only", "reexported"]
