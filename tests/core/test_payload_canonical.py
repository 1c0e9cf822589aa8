"""A correctly tagged share that decrypts past the prime is dropped, not summed.

The MAC only proves who sent a packet; the receiver must still refuse a
plaintext that is not a canonical field element.  The batch decrypt
reports such a lane as ``None`` and the scalar codec raises
:class:`CryptoError` (not an authentication failure: the tag is good).
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.core.payload import (
    LanePlan,
    PairKeyTable,
    RealShareCodec,
    SharePacket,
    batch_decrypt_values,
    batch_encrypt_shares,
)
from repro.ct.packet import ChainLayout
from repro.crypto import aesbatch
from repro.crypto.mac import cbc_mac
from repro.crypto.modes import ctr_transform
from repro.errors import AuthenticationError, CryptoError
from repro.field.prime_field import PrimeField

if not aesbatch.lanes_available():  # pragma: no cover
    pytest.skip("no native library: rounds keep the per-packet codec", allow_module_level=True)

ROUND_NONCE = 0xC0FFEE


@pytest.fixture(scope="module")
def codecs():
    nodes = list(range(4))
    with fastpath.forced(True):
        return {n: RealShareCodec(n, nodes, b"canonical-check") for n in nodes}


def sealed_lane(codecs, source: int, destination: int, plaintext: int):
    """The one-lane round ``source -> destination`` carrying ``plaintext``."""
    layout = ChainLayout.sharing([source], [destination])
    plan = LanePlan(PairKeyTable(codecs), [source], [destination], layout)
    return batch_encrypt_shares([plaintext], plan, ROUND_NONCE)


def tagged_packet(sender: RealShareCodec, destination: int, plaintext: int) -> SharePacket:
    """A packet with a valid tag under the pair's keys, whatever its value."""
    enc, mac = sender.ciphers_for(destination)
    nonce = sender._nonce(ROUND_NONCE, sender.node_id, destination)
    ciphertext = ctr_transform(enc, nonce, plaintext.to_bytes(16, "big"))
    return SharePacket(
        source=sender.node_id,
        destination=destination,
        ciphertext=ciphertext,
        tag=cbc_mac(mac, nonce + ciphertext, sender.tag_bytes),
    )


@pytest.mark.parametrize("offset", [0, 1, None])
def test_non_canonical_plaintext_is_rejected_on_both_paths(codecs, offset):
    field = PrimeField()
    plaintext = (1 << 128) - 1 if offset is None else field.prime + offset
    packet = tagged_packet(codecs[1], 2, plaintext)
    receiver = codecs[2]
    sealed = sealed_lane(codecs, 1, 2, plaintext)
    assert sealed.packet(0) == packet
    assert batch_decrypt_values([0], sealed, field, ROUND_NONCE) == [None]
    with pytest.raises(CryptoError) as raised:
        receiver.decrypt_share(packet, field, ROUND_NONCE)
    assert not isinstance(raised.value, AuthenticationError)


def test_largest_canonical_value_still_decrypts(codecs):
    field = PrimeField()
    packet = tagged_packet(codecs[3], 0, field.prime - 1)
    receiver = codecs[0]
    sealed = sealed_lane(codecs, 3, 0, field.prime - 1)
    assert sealed.packet(0) == packet
    assert batch_decrypt_values([0], sealed, field, ROUND_NONCE) == [field.prime - 1]
    assert receiver.decrypt_share(packet, field, ROUND_NONCE).value == field.prime - 1
