"""Build and load the native KS merge scan of ``ks_scan.c``, once per process.

The C source ships next to this module. On the first call of ``ks_scan`` it
is compiled with the local ``cc`` into a per-user cache,
``$XDG_CACHE_HOME/ksdiff`` or else ``~/.cache/ksdiff`` (mode 0700), under a
name keyed by the hash of the source and the flags, and loaded through
ctypes; a warm cache skips the compiler. Without a compiler or a writable
cache the failure is logged once at DEBUG on the ``ksdiff`` logger, and
``ks_scan`` returns None for the rest of the process, so the caller keeps
its numpy kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("ks_scan.c")
# no -march=native or -ffast-math: the scan must round exactly like numpy
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lock = threading.Lock()
_tried = False
_scan = None


def _load():
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ksdiff"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    # a library is only loaded from a directory no other user can write to
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    library = cache / f"ks_scan-{digest}.so"
    if not library.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(["cc", *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    scan = ctypes.CDLL(str(library)).ks_scan
    scan.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    scan.restype = None
    return scan


def ks_scan():
    """The loaded C function ``ks_scan``, or None when it cannot be built."""
    global _tried, _scan
    if not _tried:
        with _lock:
            if not _tried:
                try:
                    _scan = _load()
                except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                    logging.getLogger("ksdiff").debug("native KS kernel unavailable, using numpy: %s", exc)
                _tried = True
    return _scan
