"""Build and load the fast path's one native library.

Every C kernel of the package is compiled into one shared library:
MiniCast's slot loop (``ct/minicast_kernel.c``), the share-packet AES
lanes (``crypto/aes_lanes.c``) and the Mersenne-61 Horner evaluation
(``field/m61_horner.c``).  This module owns building, caching, trusting
and loading it; it knows no kernel's arguments.  Each kernel's
signature and calling convention belong to the module that calls it
(:mod:`repro.ct.native`, :mod:`repro.crypto.aesbatch`,
:mod:`repro.field.kernels`), which asks :func:`kernel` for its function
by name and keeps its Python twin as the oracle and the fallback.

The library is compiled with the system C compiler the first time a
kernel is asked for, never at import, and at most once per process: the
outcome (the loaded library, or ``None``) is remembered, so a host
without a compiler pays for one failed attempt, not one per call.  Any
failure — no compiler, a cache directory that is unwritable or not
private, a library that will not load — yields ``None`` and every
caller runs its Python path instead, without an error.

The library is cached per user, not per run: under ``$XDG_CACHE_HOME``
(else ``~/.cache``) in ``repro-native/``, else in a per-user directory
under the system temp directory, both created mode 0700 and used only
when owned by this user and writable by no one else.  The file name
carries the SHA-256 of every source, the compiler flags and the
platform tag, so an edited kernel or another architecture gets its own
build.  It is deliberately not under ``REPRO_CACHE_DIR``, which holds
commissioning state that callers point at fresh directories; a compiler
run there would land in every cold start.  A build is written under a
temporary name and moved into place with ``os.replace``, so processes
that build concurrently each load a complete library.
"""

from __future__ import annotations

import os
import sys
import threading

_PACKAGE = os.path.dirname(os.path.abspath(__file__))
#: Every kernel source, in link order.
SOURCES = tuple(
    os.path.join(_PACKAGE, *name.split("/"))
    for name in ("ct/minicast_kernel.c", "crypto/aes_lanes.c", "field/m61_horner.c")
)
#: No fused multiply-adds: float arithmetic must round as Python's does.
#: No -ffast-math and no -march=native for the same reason, and so a
#: cached build runs on any host of the platform.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120

_UNTRIED = object()
_library = _UNTRIED
_kernels: dict[tuple, object] = {}
_load_lock = threading.Lock()


def library():
    """The loaded library (a ``ctypes.CDLL``), or ``None`` where it
    cannot be built or loaded in this process."""
    global _library
    if _library is _UNTRIED:
        with _load_lock:
            if _library is _UNTRIED:
                _library = _load()
    return _library


def kernel(name: str, signature: str):
    """The library's function ``name``, typed by ``signature``, or
    ``None`` where the library or the function is missing.

    ``signature`` is one letter for the return type, then one per
    argument: ``q`` int64, ``d`` double, ``p`` pointer, ``v`` void
    (return only).  Each function is typed once per process.
    """
    handle = library()
    if handle is None:
        return None
    function = _kernels.get((handle, name))
    if function is None:
        import ctypes

        codes = {"q": ctypes.c_int64, "d": ctypes.c_double, "p": ctypes.c_void_p, "v": None}
        with _load_lock:
            try:
                function = getattr(handle, name)
            except AttributeError:
                return None
            function.restype = codes[signature[0]]
            function.argtypes = [codes[code] for code in signature[1:]]
            _kernels[handle, name] = function
    return function


def compiler() -> str | None:
    """The C compiler on ``PATH`` (``cc``, else ``gcc``), if any."""
    import shutil

    return shutil.which("cc") or shutil.which("gcc")


def library_name() -> str:
    """The cached library's file name: a digest of every source, the
    flags and the platform.  Imports only ``hashlib``, which keeps a
    cache hit in a fresh process (a spawn worker, a cold start) cheap."""
    import hashlib

    digest = hashlib.sha256()
    for source in SOURCES:
        with open(source, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    digest.update(" ".join(FLAGS).encode())
    digest.update(f"\0{sys.platform}-{os.uname().machine}".encode())
    return f"repro-{digest.hexdigest()[:24]}.so"


def _load():
    try:
        path = _built()
        if path is None:
            return None
        import ctypes

        return ctypes.CDLL(path)
    except (OSError, ImportError):
        return None


def _built() -> str | None:
    """Path of a built library, building it on a cache miss."""
    directory = _cache_directory()
    if directory is None:
        return None
    path = os.path.join(directory, library_name())
    if not os.path.exists(path):
        cc = compiler()
        if cc is None or not _build(cc, directory, path):
            return None
    return path if _private(path) else None


def _build(cc: str, directory: str, path: str) -> bool:
    """Compile to a temporary name in ``directory``, then move it to
    ``path``; False when the compiler fails."""
    import subprocess
    import tempfile

    handle, temporary = tempfile.mkstemp(dir=directory, prefix=".repro-", suffix=".so")
    os.close(handle)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", temporary, *SOURCES, "-lm"],
            check=True,
            capture_output=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        os.chmod(temporary, 0o700)
        os.replace(temporary, path)
    except subprocess.SubprocessError:
        return False
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return True


def _cache_directory() -> str | None:
    """The first usable private per-user directory for the library."""
    import tempfile

    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for directory in (
        os.path.join(base, "repro-native"),
        os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}"),
    ):
        if not os.path.isabs(directory):
            continue  # no home directory: never build relative to the cwd
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
        except OSError:
            continue
        if _private(directory) and os.access(directory, os.W_OK):
            return directory
    return None


def _private(path: str) -> bool:
    """Owned by this user and writable by no one else."""
    try:
        status = os.stat(path)
    except OSError:
        return False
    return status.st_uid == os.getuid() and not status.st_mode & 0o022
