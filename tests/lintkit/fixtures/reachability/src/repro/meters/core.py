"""Definitions a name-anywhere check passes and the walk must judge."""


def reexported():
    """(a) Named only by the package ``__init__``: dead."""
    return 1


def example_only():
    """(c) Named only by ``examples/demo.py``: live."""
    return 2


class Counter:
    def __init__(self):
        self.count = 0

    def tick(self):
        self.count += 1

    def ping(self):
        """(b) ``ping`` and ``pong`` only call each other: both dead."""
        return self.pong()

    def pong(self):
        return self.ping()
