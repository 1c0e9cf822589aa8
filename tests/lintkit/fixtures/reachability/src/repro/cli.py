"""Entry point: ticks a counter and runs every registered scenario."""

from repro.meters import Counter
from repro.scenarios import REGISTRY


def main():
    counter = Counter()
    counter.tick()
    return [run() for run in REGISTRY.values()]
