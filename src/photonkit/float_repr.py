"""repr(float) for float64 arrays, from integer arithmetic in numpy, and the
grid CSV writer built on it.

The digits are the shortest decimal that reads back as the same double, the
closest of those to it, ties to even: Giulietti's Schubfach ("The Schubfach
way to render doubles", 2020), step for step, on uint64 limbs. Only
`numerics.write_grid_csv` uses this, and it imports it when it runs.

A process pays resident memory for each numpy loop it runs for the first
time, and the spectral commands run no integer comparison before they write
their grid. So integer tests and selections here are arithmetic:
(a - b) >> 63 is 1 where a < b, as every value compared stays below 2^62,
and a 0/1 flag f picks x + f (y - x). Small integers are compared as
doubles."""

from __future__ import annotations

import numpy as np

__all__ = ["repr_fields", "write_grid"]

_U = np.uint64
_I = np.int64
# Grid values write_grid formats per block, 16 rows at n = 300. On a 2-vCPU
# VM half as many took 17% longer and twice as many 11% longer; a spectral
# job's peak RSS was the same at 2400 and 4800.
GRID_CSV_BLOCK_VALUES = 4800
_K_MIN = -324   # the decimal exponents of the power-of-ten table
_K_MAX = 292
# The layout of one field, in slots: a sign; the 17 significand digits (A)
# for the integer part; the 0 of 0.ddd; the point; the 000 of 0.000ddd; the
# 17 digits again (B) for the fraction; e, sign and up to 3 digits,
# right-aligned. The characters kept form few runs, which numpy's boolean
# indexing copies far faster than single characters.
FIELD_WIDTH = 45
_A, _ZERO, _POINT, _ZEROS, _B, _EXP = 1, 18, 19, 20, 23, 40
_DIGIT_SLOTS = np.arange(17.0)[:, None]
_ZERO_SLOTS = np.arange(-3.0, 0.0)[:, None]
_P10 = np.array([10**i for i in range(18)], dtype=_U)
_P10_FLOAT = 10.0 ** np.arange(16)[:, None]
# Column x + _EXP_BIAS: 'e', the sign and the digits of the decimal
# exponent x, right-aligned in 5 bytes; column 0 is blank.
_EXP_BIAS = 331
_EXP_CHARS = np.array([[0] * 5] + [list(f"e{x:+03d}".rjust(5, "\0").encode())
                                   for x in range(1 - _EXP_BIAS, _EXP_BIAS)],
                      dtype=np.uint8).T.copy()
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)


def _g_table():
    """g = floor(10^-k 2^-r) + 1 for k in [_K_MIN, _K_MAX], r the integer
    that puts g in [2^125, 2^126), as rows g1, and the 32-bit limbs of g1
    and g0, where g = g1 2^63 + g0."""
    table = np.empty((5, _K_MAX - _K_MIN + 1), dtype=_U)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p = 10**abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g = (p << -r if r < 0 else p >> r) + 1
        else:
            g = (1 << (p.bit_length() + 125)) // p + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        table[:, i] = g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32
    return table


_G = _g_table()


def _lt(a, b):
    """1 where a < b, else 0, for uint64 values below 2^62."""
    return (a - b) >> _U(63)


def _one_of(a, b):
    """1 where exactly one of the 0/1 flags a and b is 1."""
    n = a + b
    return n * (_U(2) - n)


def _mulhi(a0, a1, b0, b1):
    """floor(a b / 2^64) for uint64 arrays a and b given as 32-bit limbs."""
    mid = a1 * b0 + ((a0 * b0) >> _U(32))
    return a1 * b1 + (mid >> _U(32)) + ((a0 * b1 + (mid & _M32)) >> _U(32))


def _rop(g, cp):
    """floor(g cp / 2^127), its lowest bit set when inexact (Schubfach's rop),
    for g as _G's rows and cp < 2^63."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    lo, hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_lo, g0_hi, lo, hi)
    return ((_mulhi(g1_lo, g1_hi, lo, hi) + (z >> _U(63)))
            | (((z & _M63) + _M63) >> _U(63)))


def _eight_digits(x):
    """The 8 decimal digits of uint64 values below 10^8, as ASCII bytes in
    one little-endian uint64 each, the leading digit first: 4-digit, then
    2-digit, then 1-digit lanes split by multiplying and shifting."""
    hi = x // _U(10000)
    v = hi + ((x - hi * _U(10000)) << _U(32))
    t = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)   # lane // 100
    v = t + ((v - t * _U(100)) << _U(16))
    t = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)     # lane // 10
    return t + ((v - t * _U(10)) << _U(8)) + _U(0x3030303030303030)


def _shortest(bits):
    """(f, e): the repr digits of the positive finite doubles with these bits
    as f 10^e, f < 10^17, possibly with trailing zeros."""
    bq = bits >> _U(52)
    t = bits - (bq << _U(52))
    subnormal = _lt(bits, _U(2**52))
    q = (bq + subnormal).view(_I) - _I(1075)
    # The two smallest subnormals have too few digits at q = -1074; their
    # significand is scaled by 10 and the exponent by -1.
    tiny = _lt(bits, _U(3))
    c = t + tiny * _U(9) * t + ((_U(1) - subnormal) << _U(52))
    # A power of two has a closer neighbour below: the interval is uneven.
    uneven = _lt(t, _U(1)) * _lt(_U(1), bq)
    k = (q * _I(661971961083) - uneven.view(_I) * _I(274743187321)) >> _I(41)
    h = (q + ((-k * _I(913124641741)) >> _I(38)) + _I(2)).view(_U)
    cb = c << _U(2)
    # The value and the ends of its rounding interval, in one pass. A
    # decimal d lies in the interval where vbl <= 4d < vbr; the ends belong
    # to it when c is even.
    vb, vbl, vbr = _rop(_G[:, k - _K_MIN], np.stack(
        (cb, cb - _U(2) + uneven, cb + _U(2))) << h)
    vbl += c & _U(1)
    vbr += _U(1) - (c & _U(1))
    s = vb >> _U(2)
    s1 = s + _U(1)
    # A decimal one digit shorter, if exactly one lies in the interval.
    # Schubfach keeps two digits here (s >= 100); repr keeps one.
    sp10 = s // _U(10) * _U(10)
    upin = _lt(vbl, (sp10 << _U(2)) + _U(1))
    shorter = _lt(_U(9), s) * _one_of(upin, _lt((sp10 << _U(2)) + _U(40), vbr))
    # Else s or s + 1, whichever lies in the interval; if both do, the
    # closer, s on a tie when even.
    uin = _lt(vbl, (s << _U(2)) + _U(1))
    only = _one_of(uin, _lt(s1 << _U(2), vbr))
    closer = _lt(vb, (s << _U(2)) + _U(3) - (s & _U(1)))
    f = s1 - (only * uin + (_U(1) - only) * closer)
    f += shorter * (sp10 + (_U(1) - upin) * _U(10) - f)
    return f, k - tiny.view(_I)


def repr_fields(values):
    """repr(float(v)) of each value v of a 1-D float64 array as a column of
    FIELD_WIDTH uint8 ASCII characters: the column's nonzero bytes, top to
    bottom, are the repr. Non-finite values go through repr."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    a = np.abs(v)
    finite = np.isfinite(v)
    zero = a == 0.0
    f, e = _shortest(np.where(finite & ~zero, a, 1.0).view(_U))
    # Strip trailing zeros, so that the digits end in a nonzero one.
    while True:
        tenth = f // _U(10)
        strip = _lt(f - tenth * _U(10), _U(1))
        if not strip.max(initial=0):
            break
        f -= strip * (f - tenth)
        e += strip.view(_I)
    f = np.where(zero, _U(0), f)
    # The digit count; as a double, f compares exactly with 10^j below 2^53.
    length = (np.add.reduce(f.astype(np.float64) >= _P10_FLOAT, axis=0, dtype=_U)
              + _lt(_P10[16] - _U(1), f))
    # v = 0.d1 d2 ... d17 10^point, d1 the leading digit (zero has point 0)
    point = np.where(zero, _I(0), length.view(_I) + e)
    n = v.size
    significand = f * _P10[17 - length]   # the digits, padded to 17
    lead = significand // _U(10**16)
    rest = significand - lead * _U(10**16)
    high = rest // _U(10**8)
    digits = np.empty((17, n), dtype=np.uint8)
    digits[0] = lead + _U(ord("0"))
    words = _eight_digits(np.stack((high, rest - high * _U(10**8))))
    # digits[1:] is contiguous, so its reshape is a view to write through.
    digits[1:].reshape(2, 8, n)[...] = (
        words.astype("<u8", copy=False).view(np.uint8).reshape(2, n, 8).transpose(0, 2, 1))
    # repr writes 1e-4 <= |v| < 1e16 positionally, and so zero; the
    # comparisons hold for the decimal because it rounds to v.
    pos = ((a >= 1e-4) & (a < 1e16)) | zero
    # The digits A below slot `split` and B from `split` to `stop` are kept.
    last = length.astype(np.float64) - 1.0
    split = np.where(pos, point, _I(1)).astype(np.float64)
    stop = np.where(pos, np.maximum(last, split), last)
    integer = _DIGIT_SLOTS < split

    chars = np.empty((FIELD_WIDTH, n), dtype=np.uint8)
    chars[0] = np.signbit(v) * _U(ord("-"))
    chars[_A:_ZERO] = np.where(integer, digits, np.uint8(0))
    chars[_ZERO] = (pos & (split <= 0.0)) * _U(ord("0"))
    chars[_POINT] = (pos | (last > 0.0)) * _U(ord("."))
    chars[_ZEROS:_B] = (pos & (_ZERO_SLOTS >= split)) * _U(ord("0"))
    chars[_B:_EXP] = np.where(~integer & (_DIGIT_SLOTS <= stop), digits, np.uint8(0))
    chars[_EXP:] = _EXP_CHARS[:, np.where(pos, _I(0), point + _I(_EXP_BIAS - 1))]
    for i in np.flatnonzero(~finite):
        text = np.frombuffer(repr(float(v[i])).encode(), dtype=np.uint8)
        chars[:, i] = 0
        chars[:text.size, i] = text
    return chars


def write_grid(path, header, x, y, values) -> None:
    """numerics.write_grid_csv: the grid's cells, x, ',', y, ',', value and
    '\\r\\n', laid out NUL-padded in a uint8 array a block of about
    GRID_CSV_BLOCK_VALUES values at a time, and one write of each block's
    nonzero bytes."""
    values = np.asarray(values, dtype=np.float64)
    # x right-aligned and y left-aligned, so that x,y is one run of a cell
    xc = _packed(repr_fields(np.asarray(x, dtype=np.float64)), right=True)
    yc = _packed(repr_fields(np.asarray(y, dtype=np.float64)), right=False)
    nx, ny = values.shape
    wx, wy = xc.shape[1], yc.shape[1]
    rows = max(1, min(nx, GRID_CSV_BLOCK_VALUES // max(ny, 1)))
    width = wx + wy + FIELD_WIDTH + 4
    cells = np.empty((rows, ny, width), dtype=np.uint8)
    cells[:, :, wx] = cells[:, :, wx + wy + 1] = ord(",")
    cells[:, :, wx + 1:wx + wy + 1] = yc
    cells[:, :, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    value_slots = slice(wx + wy + 2, width - 2)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, nx, rows):
            n = min(rows, nx - start)
            block = cells[:n]
            block[:, :, :wx] = xc[start:start + n, None]
            block[:, :, value_slots] = repr_fields(
                values[start:start + n].ravel()).T.reshape(n, ny, FIELD_WIDTH)
            fh.write(block[block.astype(bool)])


def _packed(fields, right):
    """repr_fields' columns as NUL-padded rows, as wide as the longest, with
    their characters packed to the right or the left end."""
    kept = fields.T.astype(bool)
    lengths = np.add.reduce(kept, axis=1, dtype=np.float64)
    slots = np.arange(lengths.max(initial=0.0))
    packed = np.zeros((lengths.size, slots.size), dtype=np.uint8)
    packed[slots >= (slots.size - lengths)[:, None] if right
           else slots < lengths[:, None]] = fields.T[kept]
    return packed
