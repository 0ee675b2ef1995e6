"""The compiled CSV reader (``parse_csv`` of ``_scan.c``, which
``core._parse_csv_rows`` runs on a mapped regular file): ``float()``'s
bits on every token it accepts, and the per-token path's array or
exception on every file, whichever path reads it."""

import importlib
import locale
import math
import mmap
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msclust import core

fm = importlib.import_module("msclust.fastmsc")


def compiled(kernel, data: bytes, size: int | None = None):
    """parse_csv's two passes over the first size bytes of data (all of
    them by default): the array, or None where parse_csv declines."""
    text = np.frombuffer(data, np.uint8)
    size = len(data) if size is None else size
    shape = np.zeros(2, np.intp)
    if kernel.parse_csv(text.ctypes.data, size, shape.ctypes.data, None) != 0:
        return None
    out = np.empty(tuple(shape))
    if kernel.parse_csv(text.ctypes.data, size, shape.ctypes.data, out.ctypes.data) != 0:
        return None
    return out


def outcome(path, handle):
    """What _parse_csv_rows gives for path with the kernel handle (None:
    the per-token path): the array's dtype, shape and bytes, or the
    exception's type and message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm, "_kernel", handle)
        try:
            rows = core._parse_csv_rows(path)
        except (ValueError, OSError) as exc:
            return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@st.composite
def tokens(draw):
    """A number token of parse_csv's grammar: repr or %.*e of a random
    float64 bit pattern, a mantissa of up to 40 digits, an exponent up to
    +-400, or a value at the edge of float64 (-0.0 among them)."""
    kind = draw(st.sampled_from(["repr", "e", "long", "exponent", "edge"]))
    if kind in ("repr", "e"):
        bits = st.integers(0, 2**64 - 1).filter(lambda b: math.isfinite(from_bits(b)))
        x = from_bits(draw(bits))
        return repr(x) if kind == "repr" else "%.*e" % (draw(st.integers(0, 25)), x)
    sign = draw(st.sampled_from(["", "+", "-"]))
    if kind == "long":
        whole = draw(st.text("0123456789", min_size=1, max_size=40))
        return sign + whole + "." + draw(st.text("0123456789", max_size=40 - len(whole)))
    if kind == "exponent":
        mantissa = draw(st.sampled_from(["1", "9.999", ".5", "5.", "123456789012345678",
                                         "2.4703282292062327", "4.9406564584124654"]))
        return f"{sign}{mantissa}{draw(st.sampled_from('eE'))}{draw(st.integers(-400, 400))}"
    return sign + draw(st.sampled_from([
        "0", "0.0", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308", "1e400", "1e-400",
        "9007199254740993", "0.1", "1.00000000000000011102230246251565404236316680908203125"]))


@settings(deadline=None, max_examples=300)
@given(st.lists(tokens(), min_size=1, max_size=60), st.integers(1, 4),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", " ", "\t", " \t "]),
       st.booleans())
def test_a_file_of_tokens_parses_to_floats_bits(kernel, tmp_path_factory, words, cols, eol,
                                                pad, bom):
    words += ["0"] * (-len(words) % cols)
    lines = [",".join(pad + w + pad for w in words[i:i + cols])
             for i in range(0, len(words), cols)]
    data = ("\ufeff" * bom + eol.join(lines) + eol).encode()
    want = np.array([float(w) for w in words]).reshape(-1, cols)
    got = compiled(kernel, data)
    assert got is not None and got.tobytes() == want.tobytes()
    path = tmp_path_factory.getbasetemp() / "tokens.csv"
    path.write_bytes(data)
    assert outcome(path, kernel) == (want.dtype, want.shape, want.tobytes())


# what the fuzz below inserts or writes over: the CSV alphabet, a BOM's
# bytes and \r
FUZZ_BYTES = b"0123456789+-.eE, \t\n\r\xef\xbb\xbf"


@settings(deadline=None, max_examples=300)
@given(st.lists(tokens(), min_size=1, max_size=12), st.integers(1, 3),
       st.sampled_from(["\n", "\r\n"]),
       st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                          st.integers(0, 2**16), st.sampled_from(FUZZ_BYTES)),
                min_size=1, max_size=3))
def test_a_mutated_file_gives_the_per_token_outcome(kernel, tmp_path_factory, words, cols,
                                                    eol, edits):
    words += ["0"] * (-len(words) % cols)
    data = bytearray(eol.join(",".join(words[i:i + cols])
                              for i in range(0, len(words), cols)).encode() + eol.encode())
    for edit, at, byte in edits:
        if edit == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif data and edit == "delete":
            del data[at % len(data)]
        elif data:
            data[at % len(data)] = byte
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(bytes(data))
    assert outcome(path, kernel) == outcome(path, None)


ROW_300 = b"1,2\n" * 299 + b"1,\xff\n" + b"3,4\n"

# name: (the file's bytes, whether parse_csv reads it)
CATALOGUE = {
    "header": (b"x,y\n1,2\n3,4\n", False),
    "header-only-numeric-field": (b"x,1\n1,2\n", False),
    "bom": (b"\xef\xbb\xbf1,2\n3,4\n", True),
    "bom-on-row-2": (b"1,2\n\xef\xbb\xbf3,4\n", False),
    "crlf": (b"1,2\r\n\r\n3,4\r\n", True),
    "lone-cr": (b"1,2\r3,4\n", False),
    "cr-at-the-end": (b"1,2\n3,4\r", False),
    "blank-lines": (b"\n \t\n1,2\n\n  \n3,4\n\t\n", True),
    "vertical-tab": (b"1,\x0b2\n3,4\n", False),
    "no-break-space": ("1,\u00a02\n3,4\n".encode(), False),
    "nan": (b"1,nan\n3,4\n", False),
    "inf": (b"1,-inf\n3,4\n", False),
    "underscore": (b"1_000,2\n3,4\n", False),
    "arabic-indic": ("\u0661.\u0665,2\n3,4\n".encode(), False),
    "hex": (b"0x10,2\n3,4\n", False),
    "nul": (b"1,2\x00\n3,4\n", False),
    "trailing-comma": (b"1,2,\n3,4,\n", False),
    "empty-token": (b"1,,2\n", False),
    "ragged": (b"1,2\n3\n", False),
    "no-final-newline": (b"1,2\n3,4", True),
    "signs-and-forms": (b" -1 ,\t+.5e-3\t, 5. ,0E-0\n", True),
    "exponent-without-digits": (b"1e,2\n", False),
    "long-token": (b"1." + b"0" * 70 + b",2\n", False),
    "longest-token": (b"1." + b"0" * 61 + b",2\n", True),
    "token-one-byte-too-long": (b"1." + b"0" * 62 + b",2\n", False),
    "empty": (b"", False),
    "only-blank-lines": (b"\n \n\t\r\n", False),
    "invalid-utf8-on-row-300": (ROW_300, False),
}


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_an_awkward_file_gives_the_per_token_outcome(kernel, tmp_path, name):
    data, strict = CATALOGUE[name]
    assert (compiled(kernel, data) is not None) == strict
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    got = outcome(path, kernel)
    assert got == outcome(path, None)
    if name == "invalid-utf8-on-row-300":
        assert got[0] is UnicodeDecodeError
    if name == "ragged":
        assert got == (core.InputError, "row 2: expected 2 columns, got 1")


def test_a_directory_gives_the_per_token_error(kernel, tmp_path):
    got = outcome(tmp_path, kernel)
    assert got == outcome(tmp_path, None) and got[0] is IsADirectoryError


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_read_once_by_the_per_token_path(kernel, tmp_path):
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)

    def read(handle):
        writer = threading.Thread(target=fifo.write_bytes, args=(b"x,y\n1,2\n3,4\n",),
                                  daemon=True)
        writer.start()
        try:
            return outcome(fifo, handle)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    got = read(kernel)
    assert got == read(None) and got[1] == (2, 2)


def test_strtod_reads_no_byte_past_the_buffer(kernel):
    data = b"1,2\n3,45"
    assert compiled(kernel, data, len(data) - 1).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert compiled(kernel, data).tolist() == [[1.0, 2.0], [3.0, 45.0]]


def test_a_page_sized_file_that_ends_in_a_digit(kernel, tmp_path):
    # the mapping ends where the file does, with no byte after the last digit
    head = b"0,1\n1,0\n" * (mmap.PAGESIZE // 8 - 1)
    data = head + b"0,1\n1,0" + b"0" * (mmap.PAGESIZE - len(head) - 7)
    assert len(data) == mmap.PAGESIZE
    path = tmp_path / "page.csv"
    path.write_bytes(data)
    got = outcome(path, kernel)
    assert got == outcome(path, None) and got[1] == (len(data) // 4, 2)


def test_a_comma_decimal_locale_takes_the_per_token_path(kernel, tmp_path):
    before = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
    except locale.Error:
        pytest.skip("the de_DE.UTF-8 locale is not installed, so strtod cannot be given "
                    "a comma decimal point")
    try:
        data = b"1.5,2\n0.25,4\n"
        assert compiled(kernel, data) is None  # strtod stops at the '.'
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        got = outcome(path, kernel)
        assert got == outcome(path, None)
        assert got[2] == np.array([[1.5, 2.0], [0.25, 4.0]]).tobytes()
    finally:
        locale.setlocale(locale.LC_NUMERIC, before)
