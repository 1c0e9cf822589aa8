"""Fixture tree for the reachability walk's self-test: the planted
definitions (a)-(d) are described in ``repro.meters.core``."""
