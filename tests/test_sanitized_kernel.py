"""The compiled kernels under AddressSanitizer and UBSan: a subset of the
compiled-path tests runs in a child process whose ``_scan.c`` is built with
the sanitizers, so a read or write past an array, which the bit comparisons
with numpy cannot see, stops the child with a report."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer")
# the tests that call every C function on awkward inputs; the kernel-build
# tests stay out, as they run stand-in compilers and patch the cache themselves
SUBSET = [
    "tests/test_compiled_scan.py::test_the_kernel_gives_the_numpy_bits",
    "tests/test_compiled_scan.py::test_the_compiled_pass_finds_the_numpy_swap",
    "tests/test_compiled_scan.py::test_both_paths_make_the_same_runs",
    "tests/test_compiled_scan.py::test_the_compiled_eager_loop_makes_the_numpy_runs",
    "tests/test_compiled_scan.py::test_the_c_rescan_gives_the_numpy_bits",
    "tests/test_compiled_scan.py::test_the_address_table_stays_live",
    "tests/test_compiled_scan.py::test_the_eager_loop_returns_once_per_distance_budget",
    "tests/test_csv_parse.py",
    "tests/test_scan_paths.py",
]
# the child builds the sanitized kernel into its own cache, and fails rather
# than let the tests skip if it does not load; --capture=sys leaves file
# descriptor 2 to the sanitizers, whose report would else be lost with the
# capture when they abort
CHILD = """
import sys
from pathlib import Path
import pytest
from msclust import cscan
cscan.CACHE = Path(sys.argv[1])
cscan.FLAGS = cscan.FLAGS + tuple(sys.argv[2].split())
assert cscan.load() is not None, "the sanitized kernel did not build or load"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys", *sys.argv[3:]]))
"""


def runtime(name: str) -> str | None:
    """The path of the compiler's sanitizer runtime library, or None."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    found = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True, text=True,
                           check=False).stdout.strip()
    return found if os.path.isabs(found) and os.path.isfile(found) else None


def test_the_kernels_pass_under_the_sanitizers(tmp_path):
    libraries = [runtime("libasan.so"), runtime("libubsan.so")]
    if None in libraries:
        pytest.skip("cc -print-file-name names no libasan.so or libubsan.so, so the "
                    "sanitized kernel cannot be loaded into Python")
    env = dict(os.environ, LD_PRELOAD=" ".join(libraries), ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="print_stacktrace=1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "__pycache__"),
                            " ".join(SANITIZE), *SUBSET],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    # a sanitizer's report opens with its kind and the frames in _scan.c
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[:6000]
    assert list((tmp_path / "__pycache__").glob("_scan-*.so"))
