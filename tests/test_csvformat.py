import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dopptrack.csvformat import format_rows


def per_row(fmt, columns):
    """The bytes the block formatter must give: fmt % row for each row of
    the columns' Python values."""
    values = [np.asarray(c).tolist() for c in columns]
    return "".join(fmt % row for row in zip(*values)).encode()


def assert_repr(values):
    x = np.asarray(values, dtype=float)
    assert format_rows("%r\n", [x]) == per_row("%r\n", [x])


def neighbours(x):
    """x and the doubles next to each of its values; past the largest
    double that is an infinity."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([x, np.nextafter(x, -np.inf),
                               np.nextafter(x, np.inf)])


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers.size == 2098
    assert_repr(neighbours(powers))


def test_every_power_of_ten_and_its_neighbours():
    powers = [float("1e%d" % e) for e in range(-323, 309)]
    assert_repr(neighbours(powers))
    assert_repr(-neighbours(powers))


def test_small_subnormals():
    # every subnormal whose significand is below 4 096
    bits = np.arange(1, 4096, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


@pytest.mark.parametrize("x", [1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0,
                               -0.0, 1e22, 1e23, 5e-324, 2.0 ** 53,
                               1.7976931348623157e308, 2.2250738585072014e-308,
                               math.inf, -math.inf, math.nan])
def test_notation_edges(x):
    assert_repr(neighbours([x]) if math.isfinite(x) else [x])


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    assert_repr(rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64)
                .view(np.float64))


def test_integers_to_both_ends():
    ints = np.array([0, 1, -1, 9, 10, -10, 2 ** 63 - 1, -2 ** 63],
                    dtype=np.int64)
    assert format_rows("%d\n", [ints]) == per_row("%d\n", [ints])
    big = np.array([0, 2 ** 64 - 1, 10 ** 19], dtype=np.uint64)
    assert format_rows("%d\n", [big]) == per_row("%d\n", [big])


def test_range_column_and_literals():
    rows = (range(7, 40, 3), np.linspace(-1.0, 1.0, 11))
    fmt = "é%d;%r,café\n"
    assert format_rows(fmt, rows) == per_row(fmt, rows)


def test_empty_block_is_empty():
    assert format_rows("%d,%r\n", [[], []]) == b""


@pytest.mark.parametrize("fmt", ["%f\n", "%5d\n", "%r\0", "%", "%s\n",
                                 "%%\n"])
def test_other_conversions_rejected(fmt):
    with pytest.raises(ValueError):
        format_rows(fmt, [[1.0]])


@pytest.mark.parametrize("fmt, column", [("%d", [1.5]), ("%r", [1]),
                                         ("%d", [[1, 2]])])
def test_column_of_another_kind_rejected(fmt, column):
    with pytest.raises(TypeError):
        format_rows(fmt, [column])


def column(kind, n):
    """A strategy for a column of n values of one kind."""
    values = {
        "int": st.integers(-2 ** 63, 2 ** 63 - 1),
        "bool": st.booleans(),
        "float": st.floats(allow_subnormal=True),
        "float_bits": st.integers(0, 2 ** 64 - 1),
    }[kind]
    dtype = {"int": np.int64, "bool": bool, "float": float,
             "float_bits": np.uint64}[kind]
    array = st.lists(values, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=dtype))
    return array.map(lambda a: a.view(np.float64)) if kind == "float_bits" \
        else array


SPEC = {"int": "%d", "bool": "%d", "float": "%r", "float_bits": "%r"}
LITERAL = st.text(st.characters(blacklist_characters="\0%"), max_size=4)


@st.composite
def blocks(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(SPEC)), min_size=1,
                          max_size=4))
    n = draw(st.integers(0, 12))
    columns = [draw(column(kind, n)) for kind in kinds]
    literals = [draw(LITERAL) for _ in range(len(kinds) + 1)]
    fmt = literals[0] + "".join(SPEC[kind] + text for kind, text
                                in zip(kinds, literals[1:]))
    return fmt, columns


@settings(max_examples=300)
@given(blocks())
def test_matches_percent_formatting(block):
    fmt, columns = block
    assert format_rows(fmt, columns) == per_row(fmt, columns)
