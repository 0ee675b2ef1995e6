"""The compiled form of fastmsc's steepest pass, eager loop and rescan and
of core's CSV reader: _scan.c, built by the system C compiler on first use
and loaded with ctypes.

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
asks it once per optimiser state and fills that state's ``State``.
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


class State(ctypes.Structure):
    """struct state of _scan.c, field for field: n, the addresses of an
    optimiser state's C-ordered arrays, then eager_next's progress."""

    _fields_ = [("n", ctypes.c_ssize_t)]
    _fields_ += [(name, ctypes.c_void_p) for name in (
        "n1 n2 matrix d1 d2 d3 r12 r13 r23 removal_loss medoids work is_medoid idx".split())]
    _fields_ += [(name, ctypes.c_ssize_t) for name in (
        "j visited passes last_pass kept position candidate scored budget".split())]


def load():
    """The library as a ctypes.CDLL with its best_swap, rescan, eager_next
    and parse_csv typed, or None if it cannot be built or loaded. Each
    array argument is a State or a C-ordered array's address, typed in
    _scan.c."""
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
        ssize, address, state = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.POINTER(State)
        library.best_swap.restype = ssize
        library.best_swap.argtypes = [state, ssize, ssize, address]
        library.rescan.restype = ssize
        library.rescan.argtypes = [state, ssize, ssize, address]
        library.eager_next.restype = ssize
        library.eager_next.argtypes = [state, ssize, ctypes.c_double]
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
