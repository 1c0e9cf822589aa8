"""The linter's entry point."""


def main():
    return 0
