"""Runtime lock-order watchdog (a mini-lockdep) for the service layer.

The static concurrency rules (:mod:`repro.lintkit.concurrency`) catch
*lexically visible* lock nesting; this module catches the rest at run
time.  Every lock in :mod:`repro.service` is created through
:func:`ordered_lock`, which normally returns a plain
:class:`threading.Lock` — zero overhead, nothing to get wrong in
production.  When ``REPRO_LOCKDEP=1`` is set (the service test suites
enable it via ``tests/service/conftest.py``), the factory returns an
instrumented wrapper that

* keeps a per-thread stack of held locks,
* checks every acquisition against :data:`SERVICE_LOCK_RANKS` — a new
  lock's rank must be strictly greater than every rank already held by
  the thread (per-shard locks order by index within their rank), and
* records the global acquisition graph (``held -> acquired`` edges) and
  refuses any acquisition that would close a cycle, which covers locks
  that have no declared rank.

A violation raises :class:`repro.errors.LintError` immediately, at the
acquisition that would have made a deadlock *possible* — not at the
rare interleaving that makes it actual.

The canonical order (rank ascending) mirrors what the daemon and
supervisor actually do: the directory flock is taken first and alone,
the supervisor's ``close`` gate comes before its per-shard ``spawn``
locks, per-shard locks (ascending index) come before the shared state
lock, and the transport endpoint lock — which serializes a socket and
therefore blocks — is innermost-forbidden: nothing may be acquired
while it is held.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LintError

__all__ = [
    "SERVICE_LOCK_RANKS",
    "enabled",
    "ordered_lock",
    "reset",
]

# Canonical acquisition order for the service stack.  Lower rank must be
# acquired first; a thread may only ever acquire a lock whose rank is
# strictly greater than every rank it already holds.  Locks that exist
# in per-shard arrays pass ``index`` so that same-rank siblings order by
# index (ascending), matching ``ShardedServiceDaemon._acquire_all``.
SERVICE_LOCK_RANKS: Dict[str, int] = {
    "service.dirlock": 0,  # fcntl flock; documented, not instrumented
    "service.close": 10,  # ShardSupervisor._close_lock
    "supervisor.spawn": 20,  # ShardSupervisor._spawn_locks[i]
    "daemon.shard": 30,  # ShardedServiceDaemon._shard_locks[i]
    "shardserver.state": 38,  # ShardServer._lock (its ShardCore; child process)
    "daemon.state": 40,  # ShardedServiceDaemon._state (its FoldHost side)
    "supervisor.state": 40,  # ShardSupervisor._state
    "transport.endpoint": 50,  # ShardEndpoint._lock (blocks on the socket)
}

_ENV_FLAG = "REPRO_LOCKDEP"


def enabled() -> bool:
    """True when the watchdog is switched on via ``REPRO_LOCKDEP``."""

    return os.environ.get(_ENV_FLAG, "") not in ("", "0")


_local = threading.local()

# Global acquisition graph: node -> set of nodes acquired while holding
# it.  Nodes are "name[index]" strings so per-shard siblings stay
# distinct.  Guarded by _graph_guard (a plain lock, never instrumented).
_graph_guard = threading.Lock()
_edges: Dict[str, Set[str]] = {}


def _held() -> List[Tuple[Optional[Tuple[int, int]], str, int]]:
    stack = getattr(_local, "held", None)
    if stack is None:
        stack = []
        _local.held = stack
    return stack


def reset() -> None:
    """Clear the acquisition graph and this thread's held stack (tests)."""

    with _graph_guard:
        _edges.clear()
    _local.held = []


def _reaches(start: str, targets: Set[str]) -> bool:
    """DFS over the acquisition graph: can ``start`` reach any target?"""

    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node in targets:
            return True
        for nxt in _edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


class _LockdepLock:
    """threading.Lock wrapper enforcing rank order + acyclic acquisition."""

    __slots__ = ("_lock", "name", "node", "rank")

    def __init__(self, name: str, rank: Optional[int], index: int) -> None:
        self._lock = threading.Lock()
        self.name = name
        self.node = f"{name}[{index}]"
        self.rank: Optional[Tuple[int, int]] = None if rank is None else (rank, index)

    # -- checks ---------------------------------------------------------

    def _check(self) -> None:
        held = _held()
        if not held:
            return
        if self.rank is not None:
            ranked = [(rank, node) for rank, node, _ in held if rank is not None]
            if ranked:
                worst_rank, worst_node = max(ranked)
                if self.rank <= worst_rank:
                    raise LintError(
                        "lock order inversion: acquiring "
                        f"{self.node} (rank {self.rank}) while holding "
                        f"{worst_node} (rank {worst_rank}); the canonical "
                        "service order is rank-ascending "
                        "(dirlock < close < spawn < shard < state "
                        "< endpoint), per-shard locks by ascending index"
                    )
        held_nodes = {node for _, node, _ in held}
        with _graph_guard:
            if self.node in held_nodes or _reaches(self.node, held_nodes):
                raise LintError(
                    "lock acquisition cycle: acquiring "
                    f"{self.node} while holding {sorted(held_nodes)} would "
                    "close a cycle in the acquisition graph"
                )
            for node in held_nodes:
                _edges.setdefault(node, set()).add(self.node)

    # -- lock protocol --------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check()
        got = self._lock.acquire(blocking, timeout)
        if got:
            _held().append((self.rank, self.node, id(self)))
        return got

    def release(self) -> None:
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][2] == id(self):
                del held[i]
                break
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


def ordered_lock(name: str, index: int = 0, rank: Optional[int] = None):
    """Create a service-layer lock that honours the canonical order.

    With ``REPRO_LOCKDEP`` unset this returns a plain
    :class:`threading.Lock` — the watchdog costs nothing unless asked
    for.  With the flag set it returns an instrumented lock whose rank
    comes from :data:`SERVICE_LOCK_RANKS` (or the explicit ``rank``
    argument, used by tests); unranked names fall back to pure
    acquisition-graph cycle detection.
    """

    if not enabled():
        return threading.Lock()
    resolved = SERVICE_LOCK_RANKS.get(name) if rank is None else rank
    return _LockdepLock(name, resolved, index)
