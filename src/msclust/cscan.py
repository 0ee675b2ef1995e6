"""The compiled form of fastmsc's scan and of core's CSV reader: _scan.c,
built by the system C compiler on first use and loaded with ctypes.

``load`` compiles the source once into the package's ``__pycache__``,
under a name keyed by the SHA-256 of the source and the flags, so a
changed source builds anew and an unchanged one loads at once. The
compiler writes a temporary file that ``os.replace`` moves into place,
so processes that build at the same time cannot tear the library. A
cached library that does not load is built once more. Any other failure
(no ``cc``, an unwritable cache, a compile error or timeout, a library
that does not load) gives None: fastmsc scores with numpy, and core
reads every CSV token by token. ``core.compiled`` is the one owner of the
loaded library: it calls ``load`` once per process, and ``make_state``
asks it once per optimiser state.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_scan.c")
CACHE = SOURCE.with_name("__pycache__")
# -ffp-contract=off: no fused multiply-adds; never -ffast-math, which reorders
# the sums and flushes subnormals to zero. Either would change the bits. The
# alignments pin the code placement, on which the scan's speed depends.
FLAGS = ("-O2", "-ffp-contract=off", "-falign-functions=64", "-falign-loops=32", "-fPIC",
         "-shared")
COMPILE_SECONDS = 30.0


def load():
    """The library as a ctypes.CDLL with its block_totals, best_swap,
    rescan, eager_next and parse_csv typed, or None if it cannot be built or
    loaded. Every array argument is the address of a C-ordered array;
    _scan.c gives their types."""
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
        path = CACHE / f"_scan-{key}.so"
        cached = path.exists()
        if not cached:
            _build(path)
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            if not cached:
                raise
            path.unlink(missing_ok=True)
            _build(path)
            library = ctypes.CDLL(str(path))
        ssize, address = ctypes.c_ssize_t, ctypes.c_void_p
        library.block_totals.restype = None
        library.block_totals.argtypes = [ssize] * 3 + [address] * 13
        library.best_swap.restype = ssize
        library.best_swap.argtypes = [ssize] * 3 + [address] * 13
        library.rescan.restype = ssize
        library.rescan.argtypes = [ssize] * 3 + [address] * 13
        library.eager_next.restype = ssize
        library.eager_next.argtypes = [ssize, ssize, ctypes.c_double] + [address] * 14
        library.parse_csv.restype = ssize
        library.parse_csv.argtypes = [address, ssize, address, address]
    except (OSError, AttributeError):
        return None
    return library


def _build(path: Path) -> None:
    """Compile SOURCE into path, or raise OSError. A compiler still running
    at the timeout, or at an interrupt, is killed with every process it
    started, and the temporary file is removed."""
    import signal  # here, as they cost a process that loads a cached kernel 6 ms
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler named cc on PATH")
    CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.Popen([cc, *FLAGS, "-o", tmp, str(SOURCE)], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=COMPILE_SECONDS)
        except subprocess.TimeoutExpired:
            raise TimeoutError(f"{cc} ran past {COMPILE_SECONDS} s") from None
        finally:
            if proc.returncode is None:  # cc1, as and ld run in cc's process group
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise OSError(f"{cc} exited with {code}")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
