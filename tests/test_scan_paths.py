"""The scan kernel's and the optimizers' equivalences on both scan paths.

Each test imported or wrapped here runs once per ``scan_path``: with the
compiled kernel of ``_scan.c``, and with the numpy body of
``fastmsc.block_totals``, which is the kernel's fallback and its
reference. In its own module the same test runs on whichever path loads.
"""

import importlib

import pytest

import test_dynmsc
import test_fastmsc
import test_scan_split
from helpers import assert_no_child_left
from test_properties import test_fastmsc_equals_pammedsil_on_tie_free_input  # noqa: F401
from test_scan_kernel import (  # noqa: F401
    test_block_totals_do_not_depend_on_the_block,
    test_block_totals_match_scalar_formula,
    test_block_totals_match_the_reference_kernel,
    test_block_totals_match_the_reference_kernel_at_scale,
    test_eager_blocks_make_the_reference_swaps_at_scale,
)
from test_scan_split import forks  # noqa: F401

fm = importlib.import_module("msclust.fastmsc")

pytestmark = pytest.mark.usefixtures("scan_path")


def test_fastmsc_makes_pammedsil_swaps():
    test_fastmsc.TestFastmsc().test_equivalent_to_pammedsil()


@pytest.mark.parametrize("max_iter", [1, 1000])
def test_dynmsc_single_k_matches_fastermsc(max_iter):
    test_dynmsc.TestDynmsc().test_single_k_flags_match_fastermsc(max_iter)


def test_split_fastmsc_makes_pammedsil_swaps(forks, monkeypatch):
    monkeypatch.setattr(fm, "SHARE_DISTANCES", 256)
    test_scan_split.test_split_fastmsc_makes_pammedsil_swaps(forks)
    assert_no_child_left()
