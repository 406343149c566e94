"""``repr``-exact text of float64 blocks, computed per block with numpy.

``repr_lines(block)`` returns the bytes of ``",".join(map(repr, row)) + "\\n"``
for every row of a finite 2-D float64 array in one vectorized pass:

- Ryu's d2s (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018)
  finds each value's shortest decimal digits that round-trip, the closest
  to the value among them, as ``repr`` does. Its 64x128-bit products are
  emulated in uint64 halves; its power-of-5 tables and the lookup tables of
  the layout are built on first use, not at import. Zeros skip it.
- Values that Ryu sends to its trailing-zero general case (those with a
  short exact decimal expansion, such as 0.5 or 1.0; rare in the CLI's
  outputs) take their digits from ``repr`` itself.
- Each value's text is picked out of a fixed 48-byte row holding its sign,
  the lead '0.000', every digit slot with a '.' after it, the '0' of '.0',
  its exponent and the separator. The row is six uint64 words gathered from
  one table; a per-layout word mask zeroes the bytes the value does not
  keep, and one ``translate`` of the block's bytes drops those NULs (no
  NUL occurs in the text). As in ``repr``, decimal exponents -4..15 are
  positional and the rest scientific.

The tests hold it byte for byte against ``repr``.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import _readonly

_U64 = np.uint64
_M32 = 0xFFFFFFFF
# Ryu's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT, and its table sizes.
_BITS = 125
_INV_SIZE, _POW_SIZE = 342, 326

# The 48-byte row of one value: its sign; the lead '0.000' of 0.d.. to
# 0.000d..; 17 digit slots (10**16 down to 10**0) each followed by a '.';
# '0' (of '.0'), 'e', the exponent's sign and three digits, the separator,
# pad. Words 1-4 hold slots 1-16, four digits each.
_ROW = 48
_SLOT0, _TAIL = 6, 40
_SLOTS = 17
# Decimal point positions of finite float64s: value = 0.d1d2... * 10**point
# with point = _POINT0.._POINT0 + _POINTS - 1. Layout classes: point - _LEAD
# for the positional points -3..16, then scientific with a two- and with a
# three-digit exponent.
_POINT0, _POINTS = -323, 633
_LEAD, _CLASSES = -3, 22
# Offsets of the row's first and last words in the _words table.
_HEADS, _TAILS = 10000, 10020


def _pow5_limbs() -> np.ndarray:
    """(4, _INV_SIZE + _POW_SIZE) uint64: the 32-bit limbs, lowest first, of
    Ryu's DOUBLE_POW5_INV_SPLIT[q] (floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1)
    followed by DOUBLE_POW5_SPLIT[i] (5^i scaled to 125 bits, truncated)."""
    split = []
    for q in range(_INV_SIZE):
        p = 5**q
        split.append((1 << (p.bit_length() - 1 + _BITS)) // p + 1)
    for i in range(_POW_SIZE):
        p = 5**i
        shift = p.bit_length() - _BITS
        split.append(p >> shift if shift >= 0 else p << -shift)
    return np.array([[(v >> (32 * k)) & _M32 for v in split] for k in range(4)], dtype=_U64)


@functools.cache
def _exponent_table() -> np.ndarray:
    """(8, 2047) uint64 by biased exponent field, Ryu's per-exponent values:
    the four 32-bit limbs of the multiplier, the shift j - 64, the decimal
    exponent e10 (two's complement), a mask whose AND with mv is zero for the
    values of the general case (all ones: none), and 5^q where the general
    case is told by powers of 5 in mv instead (0 elsewhere)."""
    e2 = np.maximum(np.arange(2047), 1) - (1023 + 52 + 2)
    pos = e2 >= 0
    up, down = np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(pos, (up * 78913 >> 18) - (up > 3), (down * 732923 >> 20) - (down > 1))
    i = down - q
    # pow5bits(e) = bitlen(5^e) = (e * 1217359 >> 19) + 1
    j = np.where(pos, q - e2 + _BITS + (q * 1217359 >> 19),
                 q + _BITS - 1 - (i * 1217359 >> 19))
    table = np.empty((8, 2047), dtype=_U64)
    table[:4] = _pow5_limbs()[:, np.where(pos, q, _INV_SIZE + i)]
    table[4] = j - 64
    table[5] = np.where(pos, q, q + e2).view(_U64)
    # e2 < 0: the product is exact when mv has q trailing zero bits
    exact = ~pos & (q < 63)
    table[6] = np.where(exact, (_U64(1) << np.where(exact, q, 0).astype(_U64)) - 1, ~_U64(0))
    table[7] = np.where(pos & (q <= 21), _U64(5) ** np.minimum(q, 27).astype(_U64), 0)
    return _readonly(table)


@functools.cache
def _pow10() -> np.ndarray:
    return _readonly(_U64(10) ** np.arange(20, dtype=_U64))


@functools.cache
def _digit_pairs() -> np.ndarray:
    """(10000,) uint64 whose bytes are the 4 ASCII digits of the index, each
    followed by a '.': four digit slots of a row."""
    index = np.arange(10000, dtype=np.uint16)
    chars = np.full((10000, 8), ord("."), dtype=np.uint8)
    for k, scale in enumerate((1000, 100, 10, 1)):
        chars[:, 2 * k] = index // scale % 10 + ord("0")
    return _readonly(chars.view(_U64).ravel())


@functools.cache
def _words() -> np.ndarray:
    """(_TAILS + 2 * _POINTS,) uint64, every word a row can hold: the
    _digit_pairs; at _HEADS + digit + 10 * negative, the first word (sign,
    '0.000', the 10**16 slot and its '.'); at _TAILS + 2 * (point - _POINT0),
    the last word ('0', 'e', the sign and three digits of the decimal
    exponent point - 1, a comma, a pad byte), with a newline for the comma
    at the next index."""
    heads = np.frombuffer(b"\x000.0000." * 20, dtype=np.uint8).reshape(20, 8).copy()
    heads[:, 0] = np.repeat([0, ord("-")], 10)
    heads[:, 6] += np.tile(np.arange(10, dtype=np.uint8), 2)
    e = np.repeat(np.arange(_POINTS) + _POINT0 - 1, 2)
    a = np.abs(e)
    tails = np.zeros((len(e), 8), dtype=np.uint8)
    tails[:, :2] = np.frombuffer(b"0e", dtype=np.uint8)
    tails[:, 2] = np.where(e < 0, ord("-"), ord("+"))
    for k, scale in enumerate((100, 10, 1)):
        tails[:, 3 + k] = a // scale % 10 + ord("0")
    tails[:, 6] = np.tile(np.frombuffer(b",\n", dtype=np.uint8), len(e) // 2)
    words = [_digit_pairs(), heads.view(_U64).ravel(), tails.view(_U64).ravel()]
    return _readonly(np.concatenate(words))


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """(classes, pads): the layout class of each point - _POINT0, and at
    n * _CLASSES + class, for a value of n digits, the power of ten that
    extends a positional integer's digits by its trailing zeros."""
    point = np.arange(_POINT0, _POINT0 + _POINTS)
    sci = (point < _LEAD) | (point > _SLOTS - 1)
    classes = np.where(sci, _CLASSES - 2 + (np.abs(point - 1) >= 100), point - _LEAD)
    n, point = np.arange(18)[:, None], np.arange(_CLASSES) + _LEAD
    pads = np.where(point < _CLASSES - 2 + _LEAD, np.maximum(point - n, 0), 0)
    return _readonly(classes), _readonly(pads.ravel())


@functools.cache
def _kept() -> np.ndarray:
    """(18 * _CLASSES, _ROW // 8) uint64: the word mask of the bytes a value
    of n digits keeps, at n * _CLASSES + its layout class: the sign byte;
    '0.' and the zeros before the digits of a point from -3 to 0; the digit
    slots of its digits (and of a positional integer's trailing zeros); the
    '.' after the point's slot, or none for one-digit scientific values;
    '.0' when the point follows the last slot; the exponent in scientific
    notation (with its hundreds digit in the last class); the separator."""
    n = np.arange(18)[:, None, None]
    klass = np.arange(_CLASSES)[:, None]
    byte = np.arange(_ROW)
    point = klass + _LEAD
    sci = klass >= _CLASSES - 2
    first = _SLOTS - np.where(sci, n, np.maximum(n, point))
    dot = np.where(sci, np.where(n > 1, first, -1), np.where(point > 0, first + point - 1, -1))
    slot, is_dot = np.divmod(byte - _SLOT0, 2)
    in_slots = (byte >= _SLOT0) & (byte < _TAIL)
    kept = in_slots & np.where(is_dot, slot == dot, slot >= first)
    kept |= ~sci & (point <= 0) & (byte >= 1) & (byte < 3 - point)     # '0.000'
    kept |= (dot == _SLOTS - 1) & (byte == _TAIL)                       # '.0'
    exponent = (byte > _TAIL) & (byte < _TAIL + 6) & ((byte != _TAIL + 3) | (klass == _CLASSES - 1))
    kept |= sci & exponent
    kept |= (byte == 0) | (byte == _TAIL + 6)
    return _readonly(np.where(kept, 0xFF, 0).astype(np.uint8).reshape(-1, _ROW).view(_U64))


def _product(mv, l0, l1, l2, l3):
    """(t0, t1, t2): the 64-bit limbs, lowest first, of mv * mul for
    mv < 2^55 and the 126-bit mul with 32-bit limbs l0..l3. The 32 x 32-bit
    partial products are summed by column."""
    a0, a1 = mv & _M32, mv >> 32                 # a1 < 2^23
    # column k sums the products a_i * l_(k-i) at 2^(32 k), then carries on
    t0 = a0 * l0
    x, y = a0 * l1, a1 * l0
    c = t0 >> 32
    c += x & _M32
    c += y & _M32
    t0 &= _M32
    t0 |= c << 32
    c >>= 32
    c += x >> 32
    c += y >> 32
    np.multiply(a0, l2, out=x)
    np.multiply(a1, l1, out=y)
    c += x & _M32
    c += y & _M32
    t1 = c & _M32
    c >>= 32
    c += x >> 32
    c += y >> 32
    c += a0 * l3                                 # a0 * l3 < 2^62
    np.multiply(a1, l2, out=x)
    c += x & _M32
    t1 |= c << 32
    c >>= 32
    c += x >> 32
    c += a1 * l3
    return t0, t1, c


def _mul_shift_all(mv, mm_shift, limbs, dist):
    """(vr, vp, vm): mv * mul, (mv + 2) * mul and (mv - 1 - mm_shift) * mul,
    each shifted right by j = 64 + dist (0 < dist < 64), for mv < 2^55 and
    the 126-bit mul with 32-bit limbs ``limbs``."""
    t0, t1, t2 = _product(mv, *limbs)
    l0, l1, l2, l3 = limbs
    m0, m1 = (l1 << 32) | l0, (l3 << 32) | l2   # mul's low and high 64 bits
    back = 64 - dist

    def top(k0, k1, sign):
        """Bits j.. of (t0, t1, t2) + sign * (k0, k1), non-negative."""
        if sign > 0:
            s1 = t1 + k1
            s2 = t2 + (s1 < t1)
            s1b = s1 + (t0 + k0 < t0)
            s2 += s1b < s1
        else:
            s1 = t1 - k1
            s2 = t2 - (s1 > t1)
            s1b = s1 - (t0 < k0)
            s2 -= s1b > s1
        s2 <<= back
        s2 |= s1b >> dist
        return s2

    twice0, twice1 = m0 << 1, (m1 << 1) | (m0 >> 63)
    # mm_shift makes the lower bound (mv - 2) * mul
    np.copyto(m0, twice0, where=mm_shift)
    np.copyto(m1, twice1, where=mm_shift)
    vm = top(m0, m1, -1)
    vp = top(twice0, twice1, +1)
    t2 <<= back                                  # vr, in place of t2
    t2 |= t1 >> dist
    return t2, vp, vm


def _shortest(bits):
    """(digits, exponent, rare) of the positive finite float64s with these
    bit patterns: value = digits * 10**exponent, the shortest that
    round-trips and the closest among those (Ryu's d2d common case).
    ``rare`` marks the values of Ryu's general case; their digits and
    exponent are undefined."""
    ieee_e = bits >> 52
    mv = bits & ((1 << 52) - 1)
    mm_shift = (mv != 0) | (ieee_e <= 1)
    mv |= np.minimum(ieee_e, 1) << 52
    mv <<= 2
    index = ieee_e.astype(np.intp)
    del ieee_e
    table = _exponent_table()
    per_exp = table[:6].take(index, axis=1)
    vr, vp, vm = _mul_shift_all(mv, mm_shift, per_exp[:4], per_exp[4])
    e10 = per_exp[5].astype(np.int64)
    del per_exp

    # Exact products (trailing decimal zeros) send a value to the general case.
    rare = mv & table[6].take(index) == 0
    big = np.flatnonzero(table[7].take(index))
    if big.size:
        p5 = table[7, index[big]]
        mvb, ms = mv[big], mm_shift[big]
        even, five = (mvb & 4) == 0, mvb % 5 == 0
        rare[big] = np.where(five, mvb % p5 == 0, even & ((mvb - 1 - ms) % p5 == 0))
        vp[big] -= ~five & ~even & ((mvb + 2) % p5 == 0)
    del mv, mm_shift, index

    # Ryu removes digits while (vm, vp] holds a multiple of the next power
    # of ten, rounds on the last digit removed, and takes vr + 1 when vr is
    # outside the bounds. The removed count has a closed form: the k digits
    # with 10**k <= vp - vm always go; (vm, vp] / 10**k is then at most 10
    # long, so it holds at most one multiple of 10 (``holds``: one more
    # digit goes), and removal stops at that multiple's last nonzero digit.
    # The general case passes through unchecked: its digits come from repr.
    p10 = _pow10()
    k = np.searchsorted(p10[1:], vp - vm, side="right")
    scale = p10.take(k)
    vr, below = np.divmod(vr, scale)
    vp //= scale
    vm //= scale
    vp //= 10
    tens = vm // 10
    holds = vp > tens
    last = vr // 10
    # the last digit removed: vr's 10**k digit if ``holds``, else its 10**(k - 1)
    round_up = np.where(holds, vr - 10 * last >= 5, 2 * below >= scale)
    np.copyto(vr, last, where=holds)
    np.copyto(vm, tens, where=holds)
    removed = k + holds
    del scale, below, tens, last
    more = np.flatnonzero(holds & (vp == vp // 10 * 10))
    if more.size:
        # the multiple 10 * vp ends in two or more zeros: bisect the count
        top, zeros = vp[more] // 10, np.ones(more.size, dtype=np.intp)
        for step in (16, 8, 4, 2, 1):
            cut = top // 10**step
            ends = cut * 10**step == top
            np.copyto(top, cut, where=ends)
            zeros += step * ends
        removed[more] += zeros
        lower = vr[more] // p10[zeros - 1]
        round_up[more] = lower % 10 >= 5
        vr[more] = lower // 10
        vm[more] //= p10[zeros]
    vr += (vr == vm) | round_up
    return vr, e10 + removed, rare


def _repr_digits(value: float) -> tuple[int, int]:
    """(digits, exponent) of repr(value) for a positive float, without
    trailing zeros: value == float(f"{digits}e{exponent}")."""
    mantissa, _, exp = repr(value).partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    stripped = digits.rstrip("0")
    return int(stripped), int(exp or 0) - len(frac) + len(digits) - len(stripped)


def _decimal(bits):
    """(digits, exponent) per value of finite float64 bit patterns, as in
    _shortest; +-0.0 reads as 0 * 10**0."""
    live = np.flatnonzero(bits & ((1 << 63) - 1))
    live_digits, live_exp10, rare = _shortest(bits[live] & ((1 << 63) - 1))
    digits = np.zeros(len(bits), dtype=_U64)
    exp10 = np.zeros(len(bits), dtype=np.int64)
    digits[live], exp10[live] = live_digits, live_exp10
    del live_digits, live_exp10
    rare = live[rare]
    for k, value in zip(rare.tolist(), np.abs(bits[rare].view(np.float64)).tolist()):
        digits[k], exp10[k] = _repr_digits(value)
    return digits, exp10


def _rows(digits, bits, point, shape):
    """(n, 6) uint64: the 48-byte row of each value, a newline ending each
    row of a table of this shape."""
    index = np.empty((len(digits), _ROW // 8), dtype=np.intp)
    high = digits // 100_000_000
    low = digits - high * 100_000_000
    lead = high // 100_000_000
    high -= lead * 100_000_000
    index[:, 0] = lead + 10 * (bits >> 63) + _HEADS
    index[:, 1] = quad = high // 10_000
    index[:, 2] = high - quad * 10_000
    index[:, 3] = quad = low // 10_000
    index[:, 4] = low - quad * 10_000
    index[:, 5] = 2 * (point - _POINT0) + _TAILS
    index[:, 5].reshape(shape)[:, -1] += 1
    return _words().take(index)


def repr_lines(block: np.ndarray) -> bytes:
    """``"".join(",".join(map(repr, row)) + "\\n" for row in block)`` as
    bytes, for a finite 2-D float64 array."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_U64).ravel()
    digits, exp10 = _decimal(bits)
    n = np.searchsorted(_pow10()[1:], digits, side="right") + 1
    point = exp10 + n                            # value = 0.d1d2... * 10**point
    classes, pads = _layouts()
    code = n * _CLASSES + classes.take(point - _POINT0)
    digits *= _pow10().take(pads.take(code))
    rows = _rows(digits, bits, point, block.shape)
    rows &= _kept().take(code, axis=0)
    return rows.tobytes().translate(None, b"\0")
