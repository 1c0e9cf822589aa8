"""Library-wide exception hierarchy.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the layer that failed (field arithmetic,
crypto, secret sharing, simulation, protocol).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class FieldError(ReproError):
    """Invalid finite-field construction or operation."""


class NonInvertibleError(FieldError):
    """An element with no multiplicative inverse was inverted (e.g. zero)."""


class MixedFieldError(FieldError):
    """Two elements from different fields were combined."""


class PolynomialError(ReproError):
    """Invalid polynomial construction or operation."""


class InterpolationError(ReproError):
    """Lagrange interpolation could not be performed.

    Raised for duplicate x-coordinates or an insufficient number of points.
    """


class CryptoError(ReproError):
    """Cryptographic failure (bad key/nonce sizes, MAC mismatch, ...)."""


class AuthenticationError(CryptoError):
    """A message failed MAC verification."""


class KeyNotFoundError(CryptoError):
    """No pairwise key installed for the requested node pair."""


class SecretSharingError(ReproError):
    """Invalid secret-sharing parameters or inconsistent shares."""


class ReconstructionError(SecretSharingError):
    """Not enough (or inconsistent) shares to reconstruct the secret."""


class TopologyError(ReproError):
    """Malformed network topology (unknown node, disconnected graph, ...)."""


class SimulationError(ReproError):
    """Invalid bit-mask sampling input (negative width, bad probability, ...)."""


class PacketError(ReproError):
    """Malformed packet or chain layout."""


class ProtocolError(ReproError):
    """Protocol-level failure in S3/S4 round orchestration."""


class BootstrapError(ProtocolError):
    """Bootstrapping could not establish keys or elect collectors."""


class ChaosError(ReproError):
    """A fault-injected campaign degraded past what it can survive.

    Raised by :mod:`repro.chaos` when injected losses exceed the
    cross-cell reconstruction threshold (or a cell's contribution is
    unrecoverable from every replica).  The message names the offending
    round and cells, so the CLI surfaces a one-line structured failure
    (exit 1) instead of a stack trace — and, crucially, a campaign past
    its degradation bound *fails*; it never returns a wrong total.
    """


class ServiceError(ReproError):
    """The aggregation service broke one of its own contracts.

    Raised by :mod:`repro.service` when something that must never happen
    under the crash-safety contract did: a replayed window total that
    does not match its recomputation, a journal naming a window the
    state machine does not know, a close record for a window with no
    submissions on record.  Admission outcomes (shed, late, retry-after)
    are *results*, not errors — this class is for broken invariants.
    """


class WireError(ServiceError):
    """A wire frame or record could not be decoded (CRC, tag, framing)."""


class TransportError(ServiceError):
    """The socket transport lost a connection or missed a deadline.

    Raised by :mod:`repro.service.transport` for *delivery* failures —
    a dropped connection, a request past its deadline, a peer gone
    mid-frame — never for malformed bytes (that is :class:`WireError`).
    The distinction is the retry taxonomy: a ``TransportError`` leaves
    the request outcome unknown, so an idempotent sender re-sends under
    its ``(device, seq)`` identity and treats ``DUPLICATE`` as success;
    a ``WireError`` means the peer spoke garbage and retrying is
    pointless.
    """


class LintError(ReproError):
    """A machine-checked invariant was violated.

    Raised by :mod:`repro.lintkit` in two situations: the static
    analyzer found a rule violation it cannot attribute to the checked-in
    baseline, or the runtime lock-order watchdog (``REPRO_LOCKDEP=1``)
    observed a service-layer lock acquisition that inverts the canonical
    order or closes a cycle in the acquisition graph.  Both mean the
    *code* broke a contract the repo enforces — this is never a data or
    configuration failure.
    """


class ConfigurationError(ReproError):
    """Invalid protocol or experiment configuration."""


class SpecError(ConfigurationError):
    """Invalid scenario specification (bad field, unknown scenario, ...).

    Raised by the declarative Scenario API (:mod:`repro.scenarios`) for
    everything that is wrong *before* an experiment runs: malformed spec
    files, unknown fields, out-of-range values, unknown scenario or
    testbed names.  The CLI maps it to exit code 2; genuine runtime
    failures keep raising their own :class:`ReproError` subclasses and
    exit 1.
    """
