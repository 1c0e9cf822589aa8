"""An example script: parsed by the walk, never imported."""

from repro.meters import example_only

print(example_only())
