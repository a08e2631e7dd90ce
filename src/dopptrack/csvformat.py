"""CSV rows formatted a block at a time in numpy.

format_rows(fmt, columns) returns the bytes of
"".join(fmt % row for row in zip(*columns)) for a format made of literal
text and the conversions %d (integer or boolean columns), %r (float
columns) and %s (str columns), with %% a literal '%'. Each field of the
block is formed as a (rows, width) byte matrix padded with NUL bytes; the
fields side by side make one matrix, whose non-NUL bytes, row by row, are
the block's text. A literal or a string therefore holds no NUL character.

A normal double is written as repr writes it: the shortest decimal that
reads back as the same double, and of those the nearest, the one with an
even last digit on a tie; in fixed notation when its decimal point falls
from 3 places before the first digit to 16 after it, in exponent notation
otherwise. The digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020; the table and the rounded-to-odd product
follow its Java implementation), whose few 64-bit integer products per
value run here over the whole block. numpy has no 128-bit integer, so each
64 x 64-bit product is formed from 32-bit limbs. Every constant is an
np.uint64 scalar, so no mixed-type promotion turns the arithmetic into
float64. Zero, subnormals, infinities and nan go through float.__repr__ one
value at a time.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_TEN = _U64(10)
_NUL, _ZERO = 0, ord("0")

# 10**0 .. 10**19, every power of ten below 2**64
_POW10 = np.array([10 ** i for i in range(20)], dtype=_U64)

# Schubfach's range of decimal exponents k for doubles
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 1233, of a Python or numpy int."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> tuple[np.ndarray, ...]:
    """Schubfach's 617 multipliers g = floor(10**-k / 2**r) + 1, one for
    each k, r such that 2**125 <= 10**-k / 2**r < 2**126, computed from
    exact integers and kept as their 63-bit halves g1 and g0
    (g = g1 2**63 + g0)."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        assert 1 << 125 < g < 1 << 126
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=_U64), np.array(g0, dtype=_U64)


def _exponent_tables() -> tuple[tuple[np.ndarray, ...], ...]:
    """Schubfach's k, h, g1 and g0 for each biased exponent of a double,
    first where its neighbours are equally far away and then where the
    lower one is half as far (below a power of two)."""
    g1, g0 = _g_table()
    q = np.arange(2048) - 1075
    tables = []
    for log10_shift in (0, 274_743_187_321):
        k = (q * 661_971_961_083 - log10_shift) >> 41
        h = (q + _flog2pow10(-k) + 2).astype(_U64)
        at = np.clip(k - _K_MIN, 0, _K_MAX - _K_MIN)   # a zero or inf's k
        tables.append((k, h, g1[at], g0[at]))
    return tuple(tables)


_REGULAR, _IRREGULAR = _exponent_tables()


def _mulhi(a, b_lo, b_hi):
    """The high 64 bits of each product a b, from b's 32-bit limbs, for a
    and b below 2**63: then the middle column sum cannot overflow."""
    a_lo, a_hi = a & _M32, a >> _U64(32)
    mid = a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _U64(32))
    return a_hi * b_hi + (mid >> _U64(32))


def _fold(y1, y0, x1):
    """Schubfach's rop from its products: (y1 2**64 + y0) the product of
    g1 and x1 the high half of the product of g0 with the same cp."""
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _shifted(g1, g0, s):
    """The 64-bit halves (low, high) of g1 2**s and of g0 2**s."""
    return g1 << s, g1 >> (_U64(64) - s), g0 << s, g0 >> (_U64(64) - s)


def _shortest(bits):
    """(f, k) with f 10**k the decimal repr writes for each normal double
    of the given bits, sign aside; 10**15 <= f <= 10**17."""
    bq = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | _U64(1 << 52)
    k, h, g1, g0 = (np.take(table, bq) for table in _REGULAR)
    # below a power of two the lower neighbour is half as far away, except
    # at the smallest normal, where subnormals keep the spacing
    irregular = (fraction == _U64(0)) & (bq > 1)
    odd_spacing = irregular.any()
    if odd_spacing:
        k, h, g1, g0 = (np.where(irregular, np.take(table, bq), value)
                        for table, value in zip(_IRREGULAR, (k, h, g1, g0)))
    # the products g cp as g1 cp = y1 2**64 + y0 and g0 cp = x1 2**64 + x0
    cp = c << (h + _U64(2))
    cp_lo, cp_hi = cp & _M32, cp >> _U64(32)
    y1, y0 = _mulhi(g1, cp_lo, cp_hi), g1 * cp
    x1, x0 = _mulhi(g0, cp_lo, cp_hi), g0 * cp
    vb = _fold(y1, y0, x1)   # 4 v 10**-k, rounded to odd
    # the rounding interval's bounds: cp -+ 2**s makes the same products
    # minus or plus g 2**s, carried across the 64-bit halves
    s = h + _U64(1)
    lo1, hi1, lo0, hi0 = _shifted(g1, g0, s)
    y0r, x0r = y0 + lo1, x0 + lo0
    vbr = _fold(y1 + hi1 + (y0r < y0), y0r, x1 + hi0 + (x0r < x0))
    if odd_spacing:
        lo1, hi1, lo0, hi0 = _shifted(g1, g0, s - irregular)
    y0l, x0l = y0 - lo1, x0 - lo0
    vbl = _fold(y1 - hi1 - (y0l > y0), y0l, x1 - hi0 - (x0l > x0))
    # a bound is inside the interval when c is even
    out = c & _U64(1)
    vbl += out
    vbr -= out
    s = vb >> _U64(2)
    # a normal double's s has 16 or 17 digits, so one digit fewer is tried
    # first: at most one of its neighbours s' and s' + 10 lies inside
    sp10 = (s // _TEN) * _TEN
    sp40 = sp10 << _U64(2)
    upin, wpin = vbl <= sp40, sp40 + _U64(40) <= vbr
    # else s or s + 1, whichever lies inside; if both do, the nearer to v,
    # the even one on a tie
    s4 = s << _U64(2)
    uin, win = vbl <= s4, s4 + _U64(4) <= vbr
    up = ~uin | (win & (vb + (s & _U64(1)) > s4 + _U64(2)))
    return np.where(upin ^ wpin, sp10 + wpin * _TEN, s + up), k


def _quads() -> np.ndarray:
    """The 4 digit characters of each r below 10**4 as 4 bytes, then the
    same with the trailing zeros as NUL bytes."""
    r = np.arange(10_000, dtype=np.uint16)[:, None]
    chars = (r // np.array([1000, 100, 10, 1], np.uint16) % np.uint16(10)
             ).astype(np.uint8) + np.uint8(_ZERO)
    trailing = np.logical_and.accumulate(chars[:, ::-1] == _ZERO,
                                         axis=1)[:, ::-1]
    quads = np.concatenate([chars, np.where(trailing, _NUL, chars)])
    return quads.view("<u4").ravel()


_QUADS = _quads()
_FIRST = 3   # the column of the first digit in _digits' matrix


def _digits(f17: np.ndarray) -> np.ndarray:
    """The 17 digits of each f17 in [10**16, 10**17), as characters in
    columns _FIRST to _FIRST + 16 of a (len(f17), 20) matrix, the trailing
    zeros as NUL bytes; the columns before them are NUL."""
    n = f17.size
    lead = f17 // _POW10[16]
    rest = f17 - lead * _POW10[16]
    # the 16 digits after the first as two 8-digit halves, four at a time
    v = np.empty((2, n), np.uint32)
    v[0] = rest // _POW10[8]
    v[1] = rest - v[0].astype(_U64) * _POW10[8]
    # 10**4 while every digit to the right of the next four is zero
    zeros = np.empty((2, n), np.uint32)
    zeros[0] = (v[1] == 0) * 10_000
    zeros[1] = 10_000
    # the quads are made in rows of their own, then laid out by value
    quads = np.empty((2, 2, n), "<u4")
    high = v // np.uint32(10_000)
    low = v - high * np.uint32(10_000)
    np.take(_QUADS, low + zeros, out=quads[1], mode="clip")
    zeros *= low == 0
    np.take(_QUADS, high + zeros, out=quads[0], mode="clip")
    d = np.empty((n, 20), np.uint8)
    by_value = d.view("<u4")
    by_value[:, 0] = (lead.astype(np.uint32) + _ZERO) << 24
    by_value[:, 1:].reshape(n, 2, 2)[...] = quads.transpose(2, 1, 0)
    return d


# The exponent part of each exponent e from -324 to 308 as 4 bytes: its
# sign, its hundreds digit or NUL, its tens and its units digits
_EXP = np.array([ord("-" if e < 0 else "+")
                 | (ord("0") + abs(e) // 100 if abs(e) >= 100 else 0) << 8
                 | (ord("0") + abs(e) // 10 % 10) << 16
                 | (ord("0") + abs(e) % 10) << 24
                 for e in range(-324, 309)], dtype="<u4")
_EXP_FORM = 20      # the layout form of exponent notation
# each form's field width, its sign column included; 24 is
# len(repr(-2.2250738585072014e-308))
_WIDTH = np.array([20 - (form - 3) if form <= 3 else 19
                   for form in range(_EXP_FORM)] + [24])


def _layout(field, d, rows, form: int, e) -> None:
    """The text of the values rows of field, after its sign column: the
    digits d (from _digits) laid out by form, which is the decimal point
    position p + 3 for p from -3 to 16, or _EXP_FORM; e the values'
    exponents, for exponent notation."""
    first = _FIRST
    if form == _EXP_FORM:
        field[rows, 1] = d[rows, first]
        # a point unless the first digit is the only one
        field[rows, 2] = (d[rows, first + 1] != 0) * np.uint8(ord("."))
        field[rows, 3:19] = d[rows, first + 1:]
        field[rows, 19] = ord("e")
        field[rows, 20:24] = np.take(_EXP, e[rows] + 324).view(
            np.uint8).reshape(-1, 4)
        return
    p = form - 3
    if p <= 0:   # 0.000ddd
        field[rows, 1:3 - p] = np.frombuffer(b"0." + b"0" * -p, np.uint8)
        field[rows, 3 - p:20 - p] = d[rows, first:]
        return
    # the integer digits keep their trailing zeros, and one fraction
    # digit is written if all are zero
    np.maximum(d[rows, first:first + p + 1], _ZERO,
               out=field[rows, 1:p + 2])
    field[rows, p + 2] = field[rows, p + 1]
    field[rows, p + 1] = ord(".")
    field[rows, p + 3:19] = d[rows, first + p + 1:]


def _float_field(x: np.ndarray) -> np.ndarray:
    """The repr of each float64 of x, a NUL-padded matrix of len(x) rows."""
    bits = x.view(_U64)
    bq = (bits >> _U64(52)) & _U64(0x7FF)
    special = np.flatnonzero((bq == _U64(0)) | (bq == _U64(0x7FF)))
    if special.size:   # formatted below; 1.0 stands in for them here
        bits = bits.copy()
        bits[special] = np.float64(1.0).view(_U64)
    f, k = _shortest(bits)
    # f scaled to exactly 17 digits; 10**17 itself is the one 18-digit f
    short = f < _POW10[16]
    f17 = np.where(short, f * _TEN, f)
    decpt = k + 17 - short
    top = np.flatnonzero(f17 == _POW10[17])
    f17[top] = _POW10[16]
    decpt[top] += 1
    form = np.where((decpt <= -4) | (decpt > 16), _EXP_FORM, decpt + 3)
    counts = np.bincount(form, minlength=_EXP_FORM + 1)
    present = np.flatnonzero(counts)
    width = 24 if special.size else _WIDTH[present].max()
    field = np.zeros((x.size, width), np.uint8)
    field[:, 0] = (bits >> _U64(63)) * _U64(ord("-"))   # else NUL
    if present.size == 1:
        _layout(field, _digits(f17), slice(None), present[0], decpt - 1)
    else:
        # rows of one form share one layout: sorted by form, each a slice
        order = np.argsort(form.astype(np.uint8), kind="stable")
        d, e = _digits(np.take(f17, order)), np.take(decpt - 1, order)
        ends = np.cumsum(counts)
        for at in present:
            _layout(field, d, slice(ends[at] - counts[at], ends[at]), at, e)
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        field[:, 1:] = np.take(field[:, 1:], back, axis=0)
    for i in special:
        text = float.__repr__(float(x[i])).encode()
        field[i] = _NUL
        field[i, :len(text)] = np.frombuffer(text, np.uint8)
    return field


def _int_field(a: np.ndarray) -> np.ndarray:
    """The decimal of each integer of a, right-aligned in a NUL-padded
    (len(a), width) matrix."""
    neg = a < 0
    mag = a.astype(_U64)
    mag = np.where(neg, _U64(0) - mag, mag)   # -2**63 included
    nd = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    digits = int(nd.max())
    width = digits + bool(neg.any())
    field = np.empty((a.size, width), np.uint8)
    for j in range(width - 1, width - 1 - digits, -1):
        rest = mag // _TEN
        field[:, j] = mag - rest * _TEN + _U64(_ZERO)
        mag = rest
    field[np.arange(width) < (width - nd)[:, None]] = _NUL
    field[np.flatnonzero(neg), width - 1 - nd[neg]] = ord("-")
    return field


def _str_field(a: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of each str of a, a NUL-padded (len(a), width)
    matrix."""
    encoded = np.char.encode(a, "utf-8")
    return encoded.view(np.uint8).reshape(a.size, encoded.dtype.itemsize)


_FIELDS = {"d": ("iub", _int_field), "r": ("f", _float_field),
           "s": ("U", _str_field)}


@functools.lru_cache(maxsize=None)
def _parse(fmt: str) -> tuple[list, list]:
    """(literals, conversions) of fmt: the literal texts as bytes, one more
    than the conversion characters, which alternate with them."""
    parts = re.split(r"%(.)", fmt.replace("%%", "\0"))
    literals = [p.replace("\0", "%").encode() for p in parts[0::2]]
    conversions = parts[1::2]
    if "\0" in fmt or not set(conversions) <= set(_FIELDS) \
            or fmt.count("%") - 2 * fmt.count("%%") != len(conversions):
        raise ValueError("format %r: only %%d, %%r, %%s and %%%% are "
                         "formatted, and no NUL character" % fmt)
    return literals, conversions


def _as_array(column) -> np.ndarray:
    """column as a 1-d array; a range without a list of its values."""
    if isinstance(column, range):
        return np.arange(column.start, column.stop, column.step)
    return np.asarray(column)


def format_rows(fmt: str, columns) -> bytes:
    """The bytes of "".join(fmt % row for row in zip(*columns)), as UTF-8,
    for columns of equal length: ranges, sequences or arrays, an integer
    or boolean column for each %d, a float one for each %r and a str one
    for each %s of fmt. TypeError when a column's type does not fit its
    conversion, ValueError when fmt holds another conversion or a NUL."""
    literals, conversions = _parse(fmt)
    arrays = [_as_array(c) for c in columns]
    if len(arrays) != len(conversions):
        raise TypeError("format %r takes %d columns, got %d"
                        % (fmt, len(conversions), len(arrays)))
    rows = len(arrays[0]) if arrays else 0
    if rows == 0:
        return b""

    def text(literal):   # the literal on every row
        return np.broadcast_to(np.frombuffer(literal, np.uint8),
                               (rows, len(literal)))

    fields = [text(literals[0])]
    for conversion, a, literal in zip(conversions, arrays, literals[1:]):
        kinds, field = _FIELDS[conversion]
        if a.ndim != 1 or a.dtype.kind not in kinds:
            raise TypeError("%%%s takes a 1-d column of kind %s, got %s"
                            % (conversion, kinds, a.dtype))
        if a.dtype.kind == "f":
            a = a.astype(np.float64, copy=False)
        fields += [field(a), text(literal)]
    block = np.concatenate(fields, axis=1)
    return block[block != 0].tobytes()
