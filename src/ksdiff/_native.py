"""Build and load the native library of ``_native.c``, once per process.

The library holds the KS merge scan (``ks_scan``) and the strict parser of a
table's body (``parse_table``). The C source ships next to this module. On
the first call of either accessor it is compiled with the local ``cc`` into a
per-user cache, ``$XDG_CACHE_HOME/ksdiff`` or else ``~/.cache/ksdiff`` (mode
0700), under a name keyed by the hash of the source and the flags, and loaded
through ctypes; a warm cache skips the compiler. Without a compiler or a
writable cache the failure is logged once at DEBUG on the ``ksdiff`` logger,
and both accessors return None for the rest of the process, so the callers
keep the numpy kernel and the Python CSV reader.
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

SOURCE = Path(__file__).with_name("_native.c")
# no -march=native or -ffast-math: the scan must round exactly like numpy
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lock = threading.Lock()
_tried = False
_lib = None


def _load():
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "ksdiff"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    # a library is only loaded from a directory no other user can write to
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    library = cache / f"_native-{digest}.so"
    if not library.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(["cc", *FLAGS, "-o", tmp, str(SOURCE)], check=True, capture_output=True, timeout=120)
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(library))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.ks_scan.argtypes = [ptr, i64, i64, i64, i64, ptr]
    lib.ks_scan.restype = None
    lib.parse_table.argtypes = [ctypes.c_char_p, i64, i64, i64, i64, i64, ptr]
    lib.parse_table.restype = i64
    return lib


def _library():
    global _tried, _lib
    if not _tried:
        with _lock:
            if not _tried:
                try:
                    _lib = _load()
                except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                    logging.getLogger("ksdiff").debug("native library unavailable, using numpy and csv: %s", exc)
                _tried = True
    return _lib


def ks_scan():
    """The loaded C function ``ks_scan``, or None when the library cannot be built."""
    lib = _library()
    return None if lib is None else lib.ks_scan


def parse_table():
    """The loaded C function ``parse_table``, or None when the library cannot be built."""
    lib = _library()
    return None if lib is None else lib.parse_table
