"""Share-packet AES in C (``aes_lanes.c``) against the numpy lane kernel.

``aesbatch.ctr_cbc_mac`` keyed by ``columns`` runs in the native library
where it loaded; the numpy code is its oracle and its fallback.  These
tests check the two agree bit for bit in both directions, through the
packet pipeline too (tag widths, forged tags, non-canonical plaintexts),
pin literals through the C path, and check every way back to numpy.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import fastpath, native
from repro.core.payload import (
    LanePlan,
    PairKeyTable,
    RealShareCodec,
    batch_decrypt_values,
    batch_encrypt_shares,
)
from repro.ct.packet import ChainLayout
from repro.errors import CryptoError
from repro.field.prime_field import PrimeField

aesbatch = pytest.importorskip("repro.crypto.aesbatch")
if not aesbatch.HAVE_NUMPY:  # pragma: no cover
    pytest.skip("numpy unavailable", allow_module_level=True)
np = aesbatch._np


@pytest.fixture
def lane_kernel(monkeypatch):
    """The lane count of every call that reaches the C kernel; skips
    where the native library did not load."""
    if native.kernel("aes_ctr_cbc_mac", aesbatch._LANES_SIGNATURE) is None:
        pytest.skip("no native library: the numpy kernel is all there is")
    calls = []
    real = native.kernel

    def kernel(name, signature):
        function = real(name, signature)
        if function is None or name != "aes_ctr_cbc_mac":
            return function
        return lambda *args: calls.append(args[0]) or function(*args)

    monkeypatch.setattr(native, "kernel", kernel)
    return calls


@contextlib.contextmanager
def numpy_only():
    """Within the block the loader finds no library: numpy runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        yield


def random_keys(rnd: random.Random, count: int):
    return aesbatch.key_schedules(rnd.randbytes(16 * count))


def random_state(rnd: random.Random, lanes: int):
    return aesbatch.words_from_ints([rnd.getrandbits(128) for _ in range(lanes)])


EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@EXAMPLES
@given(
    lanes=st.sampled_from([0, 1, 7, 8, 800]),
    key_columns=st.integers(min_value=1, max_value=40),
    mac_over_input=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_kernel_matches_numpy(lane_kernel, lanes, key_columns, mac_over_input, seed):
    rnd = random.Random(seed)
    enc, mac = random_keys(rnd, key_columns), random_keys(rnd, key_columns)
    columns = np.array([rnd.randrange(key_columns) for _ in range(lanes)], dtype=np.intp)
    nonce, data = random_state(rnd, lanes), random_state(rnd, lanes)
    before = len(lane_kernel)
    in_c = aesbatch.ctr_cbc_mac(enc, mac, nonce, data, mac_over_input, columns=columns)
    assert lane_kernel[before:] == [lanes]
    in_numpy = aesbatch.ctr_cbc_mac(enc[:, columns], mac[:, columns], nonce, data, mac_over_input)
    assert all(a.dtype == np.int64 and (a == b).all() for a, b in zip(in_c, in_numpy))


#: One small deployment per tag width, shared by every example.
_TABLES: dict[int, tuple] = {}


def deployment(tag_bytes: int):
    if tag_bytes not in _TABLES:
        nodes = list(range(6))
        with fastpath.forced(True):
            codecs = {n: RealShareCodec(n, nodes, b"lanes", tag_bytes) for n in nodes}
        layout = ChainLayout.sharing(nodes, nodes[:4])
        plan = LanePlan(PairKeyTable(codecs), nodes, nodes[:4], layout)
        _TABLES[tag_bytes] = codecs, plan
    return _TABLES[tag_bytes]


@EXAMPLES
@given(
    tag_bytes=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
    forged_bit=st.integers(min_value=0, max_value=127),
    round_nonce=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_packet_pipeline_matches_numpy(lane_kernel, tag_bytes, seed, forged_bit, round_nonce):
    codecs, plan = deployment(tag_bytes)
    field = PrimeField()
    rnd = random.Random(seed)
    values = [rnd.randrange(field.prime) for _ in range(len(plan))]
    values[1] = field.prime + rnd.randrange(1 << 64)  # decrypts non-canonical
    lanes = np.arange(len(plan))

    def round_trip():
        sealed = batch_encrypt_shares(values, plan, round_nonce)
        sealed.mac[forged_bit // 32, 2] ^= 1 << (31 - forged_bit % 32)
        return sealed, batch_decrypt_values(lanes, sealed, field, round_nonce)

    before = len(lane_kernel)
    sealed, in_c = round_trip()
    assert lane_kernel[before:] == [len(plan), len(plan)]
    with numpy_only():
        oracle, in_numpy = round_trip()
    assert len(lane_kernel) == before + 2
    assert (sealed.ciphertext == oracle.ciphertext).all() and (sealed.mac == oracle.mac).all()
    assert in_c == in_numpy
    # None exactly where the per-packet receiver raises.
    for lane, value in enumerate(in_c):
        packet = sealed.packet(lane)
        receiver = codecs[packet.destination]
        try:
            expected = receiver.decrypt_share(packet, field, round_nonce).value
        except CryptoError:
            expected = None
        assert value == expected
    assert in_c[1] is None
    assert (in_c[2] is None) == (forged_bit < 8 * tag_bytes)


def test_fips197_c1_through_the_lane_kernel(lane_kernel):
    # CTR with a zero data block outputs E(nonce): the FIPS-197 C.1 block.
    keys = aesbatch.key_schedules(bytes(range(16)))
    nonce = aesbatch.words_from_ints([0x00112233445566778899AABBCCDDEEFF])
    output, _ = aesbatch.ctr_cbc_mac(
        keys, keys, nonce, aesbatch.words_from_ints([0]), columns=np.array([0])
    )
    assert lane_kernel == [1]
    assert aesbatch.ints_from_words(output) == [0x69C4E0D86A7B0430D8CDB78070B4C55A]


def pinned_lane():
    with fastpath.forced(True):
        codecs = {n: RealShareCodec(n, [0, 1], b"pinned-lane", tag_bytes=16) for n in (0, 1)}
    plan = LanePlan(PairKeyTable(codecs), [0], [1], ChainLayout.sharing([0], [1]))
    return batch_encrypt_shares([123456789], plan, 0x0123456789ABCDEF).packet(0)


@pytest.mark.parametrize("path", ["native", "numpy"])
def test_sealed_lane_is_pinned(lane_kernel, path):
    with numpy_only() if path == "numpy" else contextlib.nullcontext():
        packet = pinned_lane()
    assert lane_kernel == ([1] if path == "native" else [])
    assert packet.ciphertext.hex() == "d3f9529c25ed01be8b64b06af3e3288e"
    assert packet.tag.hex() == "6e1a7e91c95cd40fb914ec3a104d416a"


def test_falls_back_silently_without_the_library():
    expected = pinned_lane()
    with numpy_only():
        assert native.kernel("aes_ctr_cbc_mac", aesbatch._LANES_SIGNATURE) is None
        assert pinned_lane() == expected


def test_out_of_range_columns_take_the_numpy_path(lane_kernel):
    rnd = random.Random(3)
    enc, mac = random_keys(rnd, 5), random_keys(rnd, 5)
    nonce, data = random_state(rnd, 3), random_state(rnd, 3)
    columns = np.array([0, -1, 4])  # numpy reads -1 as the last column
    sealed = aesbatch.ctr_cbc_mac(enc, mac, nonce, data, columns=columns)
    assert lane_kernel == [3]  # asked, refused, and nothing written
    oracle = aesbatch.ctr_cbc_mac(enc[:, columns], mac[:, columns], nonce, data)
    assert all((a == b).all() for a, b in zip(sealed, oracle))
