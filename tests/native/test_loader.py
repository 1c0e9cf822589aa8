"""The shared native library: one build of every kernel source, cached
per user, trusted only when private, tried once per process.

Each kernel's own tests (``tests/ct/test_minicast_native.py``,
``tests/crypto/test_aes_lanes_native.py``,
``tests/field/test_m61_native.py``) check what it computes; this file
checks how the one library that carries them is built, found and
refused, so those rules are tested once.
"""

from __future__ import annotations

import os
import random
import shutil
import stat
import tempfile

import pytest

from repro import fastpath, native
from repro.crypto import aesbatch
from repro.ct import native as minicast_native
from repro.ct.minicast import MiniCastRound
from repro.ct.slots import RoundSchedule
from repro.field import kernels
from repro.field.kernels import M61, horner_eval_many
from repro.field.polynomial import Polynomial
from repro.field.prime_field import PrimeField
from repro.phy.radio import NRF52840_154

#: Every kernel of the library with the signature its caller binds.
KERNELS = {
    "minicast_slots": minicast_native.SIGNATURE,
    "aes_ctr_cbc_mac": aesbatch._LANES_SIGNATURE,
    "delivered_lanes": aesbatch._DELIVERED_SIGNATURE,
    "aes_ctr_runs": aesbatch._CTR_RUNS_SIGNATURE,
    "aes_expand_keys": aesbatch._EXPAND_KEYS_SIGNATURE,
    "m61_horner": kernels._M61_SIGNATURE,
}


class FullLinks:
    """Just what :class:`MiniCastRound` reads of a link table."""

    node_ids = tuple(range(6))

    def prr_row(self, src: int) -> dict[int, float]:
        return {dst: 0.75 for dst in self.node_ids if dst != src}


def callers() -> tuple:
    """What every kernel's caller returns on fixed inputs."""
    schedule = RoundSchedule(
        chain_length=24, psdu_bytes=15, ntx=2, num_slots=8, timings=NRF52840_154
    )
    with fastpath.forced(True):
        round_ = MiniCastRound(FullLinks(), schedule)
    rng = random.Random(9)
    flood = round_.run(rng, {node: 0b1111 << (4 * node) for node in range(6)})
    polynomial = Polynomial(PrimeField(M61), [5, M61 - 1, 7])
    return flood.knowledge, rng.getstate(), polynomial.evaluate_values([0, 3, M61 - 1])


@pytest.fixture
def fresh_process(monkeypatch, tmp_path):
    """The loader as a new process sees it, caching under ``tmp_path``
    (the temp-directory fallback included)."""
    monkeypatch.setattr(native, "_library", native._UNTRIED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def test_failed_build_falls_back_silently_once(fresh_process, monkeypatch):
    attempts = []

    def broken_compiler():
        attempts.append(1)
        return "false"  # exits 1: a compiler that fails

    monkeypatch.setattr(native, "compiler", broken_compiler)
    first = callers()
    second = callers()
    assert native.library() is None
    assert all(native.kernel(name, signature) is None for name, signature in KERNELS.items())
    assert attempts == [1]
    assert first == second
    assert first[2] == horner_eval_many([5, M61 - 1, 7], [0, 3, M61 - 1], M61)
    # The failed build left no library and no temporary file behind.
    assert os.listdir(fresh_process / "repro-native") == []


def test_untrusted_cache_directory_is_never_used(fresh_process, monkeypatch):
    shared = fresh_process / "repro-native"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    monkeypatch.setattr(native, "compiler", lambda: None)
    assert native.library() is None
    assert native._cache_directory() == str(
        fresh_process / "tmp" / f"repro-native-{os.getuid()}"
    )


def test_relative_cache_home_is_ignored(fresh_process, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative-cache")
    monkeypatch.chdir(fresh_process)
    assert native._cache_directory() == str(
        fresh_process / "tmp" / f"repro-native-{os.getuid()}"
    )
    assert not (fresh_process / "relative-cache").exists()


def test_editing_any_kernel_source_changes_the_library_name(tmp_path, monkeypatch):
    copies = []
    for source in native.SOURCES:
        copy = tmp_path / f"{len(copies)}-{os.path.basename(source)}"
        shutil.copyfile(source, copy)
        copies.append(str(copy))
    monkeypatch.setattr(native, "SOURCES", tuple(copies))
    names = {native.library_name()}
    for copy in copies:
        with open(copy, "a") as handle:
            handle.write("\n/* edited */\n")
        names.add(native.library_name())
    assert len(names) == len(copies) + 1
    assert all(name.startswith("repro-") and name.endswith(".so") for name in names)


@pytest.mark.skipif(native.compiler() is None, reason="no C compiler on PATH")
def test_library_builds_and_loads(fresh_process, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_process / "commissioning"))
    library = native.library()
    assert library is not None
    assert all(native.kernel(name, signature) for name, signature in KERNELS.items())
    fastpath.clear_process_caches()  # code, not commissioning state
    assert native.library() is library
    directory = fresh_process / "repro-native"
    assert os.listdir(directory) == [native.library_name()]
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    assert not (fresh_process / "commissioning").exists()
    # A second process finds the cached build and compiles nothing.
    monkeypatch.setattr(native, "_library", native._UNTRIED)
    monkeypatch.setattr(native, "compiler", lambda: None)
    assert native.library() is not None
