"""``repr``-exact text of float64 blocks, computed per block with numpy.

``repr_lines(block)`` returns the bytes of ``",".join(map(repr, row)) + "\\n"``
for every row of a finite 2-D float64 array in one vectorized pass:

- Ryu's d2s (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018)
  finds each value's shortest decimal digits that round-trip, the closest
  to the value among them, as ``repr`` does. Its 64x128-bit products are
  emulated in uint64 halves; its power-of-5 tables and the lookup tables of
  the layout are built on first use, not at import.
- Values that Ryu sends to its trailing-zero general case (those with a
  short exact decimal expansion, such as 0.5 or 1.0; rare in the CLI's
  outputs) take their digits from ``repr`` itself.
- Each value's text is picked out of a fixed 56-byte row holding its sign,
  every digit slot with a '.' after it, the '0' of '.0', its exponent and
  the separator, so that one boolean gather packs the whole block. As in
  ``repr``, decimal exponents -4..15 are positional and the rest scientific.

The tests hold it byte for byte against ``repr``.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFFFFFF
# Ryu's DOUBLE_POW5_INV_BITCOUNT and DOUBLE_POW5_BITCOUNT, and its table sizes.
_BITS = 125
_INV_SIZE, _POW_SIZE = 342, 326

# The 56-byte row of one value: pad, '-', then 21 digit slots (10**20 down
# to 10**0), each followed by a '.'; '0' (of '.0'), 'e', the exponent's sign
# and three digits, the separator, pad. Slot 0 always holds '0'.
_ROW = 56
_SIGN, _SLOT0, _TAIL = 5, 6, 48
_SLOTS = 21
_HEAD = b"\0\0\0\0\0-0."
# Decimal point positions of finite float64s: value = 0.d1d2... * 10**point
# with point = _POINT0.._POINT0 + _POINTS - 1.
_POINT0, _POINTS = -323, 633


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
    return table


@functools.cache
def _pow10() -> np.ndarray:
    return _U64(10) ** np.arange(20, dtype=_U64)


@functools.cache
def _digit_pairs() -> np.ndarray:
    """(10000,) uint64 whose bytes are the 4 ASCII digits of the index, each
    followed by a '.': four digit slots of a row."""
    index = np.arange(10000, dtype=np.uint16)
    chars = np.full((10000, 8), ord("."), dtype=np.uint8)
    for k, scale in enumerate((1000, 100, 10, 1)):
        chars[:, 2 * k] = index // scale % 10 + ord("0")
    return chars.view(_U64).ravel()


@functools.cache
def _tails() -> np.ndarray:
    """(2 * _POINTS,) uint64: the last 8 bytes of a row ('0', 'e', the sign
    and three digits of the decimal exponent point - 1, a comma, a pad byte)
    at index 2 * (point - _POINT0), and with a newline for the comma at the
    next index."""
    e = np.repeat(np.arange(_POINTS) + _POINT0 - 1, 2)
    a = np.abs(e)
    chars = np.zeros((len(e), 8), dtype=np.uint8)
    chars[:, :2] = np.frombuffer(b"0e", dtype=np.uint8)
    chars[:, 2] = np.where(e < 0, ord("-"), ord("+"))
    for k, scale in enumerate((100, 10, 1)):
        chars[:, 3 + k] = a // scale % 10 + ord("0")
    chars[:, 6] = np.tile(np.frombuffer(b",\n", dtype=np.uint8), len(e) // 2)
    return chars.view(_U64).ravel()


@functools.cache
def _layouts() -> np.ndarray:
    """(2, 18 * _POINTS) int16 at n * _POINTS + point - _POINT0, for a value
    of n digits whose decimal point sits at ``point``: its _kept row index,
    and the power of ten that extends a positional integer's digits by its
    trailing zeros."""
    n = np.arange(18, dtype=np.int16)[:, None]
    point = np.arange(_POINT0, _POINT0 + _POINTS, dtype=np.int16)
    sci = (point < -3) | (point > 16)
    pad = np.where(~sci & (point > n), point - n, 0).astype(np.int16)
    first = _SLOTS - (n + pad)
    # '0.00ddd' keeps the zero slots before its digits, and the one before '.'
    start = np.where(sci, first, first + np.minimum(point - 1, 0))
    dot = np.where(sci, np.where(n > 1, first, -1), first + point - 1)
    code = ((start * 22 + dot + 1) * 2 + sci) * 2 + (np.abs(point - 1) >= 100)
    return np.stack([code, pad]).astype(np.int16).reshape(2, -1)


@functools.cache
def _kept() -> np.ndarray:
    """(22 * 22 * 4, _ROW) bool: the bytes of a row that a value keeps, but
    for its sign, at index ((start * 22 + dot + 1) * 2 + sci) * 2 + wide:
    digit slots from ``start`` on, the '.' after slot ``dot`` (none at -1),
    '.0' when the point follows the last slot, the exponent in scientific
    notation (with its hundreds digit when ``wide``), the separator."""
    kept = np.zeros((22, 22, 2, 2, _ROW), dtype=bool)
    slot = np.arange(_SLOTS)
    kept[..., _SLOT0:_TAIL:2] = (slot >= np.arange(22)[:, None])[:, None, None, None]
    kept[..., _SLOT0 + 1:_TAIL:2] = (slot == np.arange(-1, 21)[:, None])[:, None, None]
    kept[:, _SLOTS, :, :, _TAIL] = True            # dot after the last slot: '.0'
    kept[:, :, 1, :, _TAIL + 1:_TAIL + 6] = True   # 'e', sign, digits
    kept[:, :, :, 0, _TAIL + 3] = False            # hundreds digit
    kept[..., _TAIL + 6] = True
    return kept.reshape(-1, _ROW)


def _product(mv, l0, l1, l2, l3):
    """(t0, t1, t2, m0, m1): the 64-bit limbs, lowest first, of mv * mul for
    mv < 2^55 and the 126-bit mul with 32-bit limbs l0..l3, and mul's low
    and high 64 bits. The 32 x 32-bit partial products are summed by column."""
    a0, a1 = mv & _M32, mv >> 32                 # a1 < 2^23
    # column k sums the products a_i * l_(k-i) at 2^(32 k), then carries on
    t0 = a0 * l0
    x, y = a0 * l1, a1 * l0
    c = (t0 >> 32) + (x & _M32) + (y & _M32)
    t0 &= _M32
    t0 |= c << 32
    c = (c >> 32) + (x >> 32) + (y >> 32)
    x, y = a0 * l2, a1 * l1
    c += (x & _M32) + (y & _M32)
    t1 = c & _M32
    c = (c >> 32) + (x >> 32) + (y >> 32) + a0 * l3  # a0 * l3 < 2^62
    x = a1 * l2
    c += x & _M32
    t1 |= c << 32
    t2 = (c >> 32) + (x >> 32) + a1 * l3
    return t0, t1, t2, (l1 << 32) | l0, (l3 << 32) | l2


def _mul_shift_all(mv, mm_shift, limbs, dist):
    """(vr, vp, vm): mv * mul, (mv + 2) * mul and (mv - 1 - mm_shift) * mul,
    each shifted right by j = 64 + dist (0 < dist < 64), for mv < 2^55 and
    the 126-bit mul with 32-bit limbs ``limbs``."""
    t0, t1, t2, m0, m1 = _product(mv, *limbs)
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

    vr = (t2 << back) | (t1 >> dist)
    twice0, twice1 = m0 << 1, (m1 << 1) | (m0 >> 63)
    vp = top(twice0, twice1, +1)
    # mm_shift makes the lower bound (mv - 2) * mul
    vm = top(np.where(mm_shift, twice0, m0), np.where(mm_shift, twice1, m1), -1)
    return vr, vp, vm


def _shortest(bits):
    """(digits, exponent, rare) of the positive finite float64s with these
    bit patterns: value = digits * 10**exponent, the shortest that
    round-trips and the closest among those (Ryu's d2d common case).
    ``rare`` marks the values of Ryu's general case; their digits and
    exponent, and those of zeros, are undefined."""
    ieee_m = bits & ((1 << 52) - 1)
    ieee_e = bits >> 52
    mm_shift = (ieee_m != 0) | (ieee_e <= 1)
    mv = np.where(ieee_e == 0, ieee_m, ieee_m | (1 << 52)) << 2
    per_exp = _exponent_table()[:, ieee_e]
    vr, vp, vm = _mul_shift_all(mv, mm_shift, per_exp[:4], per_exp[4])
    e10 = per_exp[5].view(np.int64)

    # Exact products (trailing decimal zeros) send a value to the general case.
    rare = mv & per_exp[6] == 0
    big = np.flatnonzero(per_exp[7])
    if big.size:
        p5 = per_exp[7, big]
        mvb, ms = mv[big], mm_shift[big]
        even, five = (mvb & 4) == 0, mvb % 5 == 0
        rare[big] = np.where(five, mvb % p5 == 0, even & ((mvb - 1 - ms) % p5 == 0))
        vp[big] -= ~five & ~even & ((mvb + 2) % p5 == 0)

    # Ryu removes digits while (vm, vp] holds a multiple of the next power
    # of ten, rounds on the last digit removed, and takes vr + 1 when vr is
    # outside the bounds. The removed count has a closed form: the k digits
    # with 10**k <= vp - vm always go; (vm, vp] / 10**k is then at most 10
    # long, so it holds at most one multiple of 10, and removal stops at that
    # multiple's last nonzero digit. Zeros and the general case pass through
    # unchecked: their digits come from repr.
    p10 = _pow10()
    k = np.maximum(np.searchsorted(p10, vp - vm, side="right") - 1, 0)
    top = vp // p10[k]
    top -= top % 10
    holds = top > vm // p10[k]
    removed = k + holds
    more = np.flatnonzero(holds & (top % 100 == 0))
    if more.size:
        top, zeros = top[more], np.full(more.size, 2)
        for step in (16, 8, 4, 2, 1):
            wider = np.minimum(zeros + step, 19)
            zeros = np.where(top % p10[wider] == 0, wider, zeros)
        removed[more] = k[more] + zeros
    lower = vr // p10[np.maximum(removed, 1) - 1]
    round_up = (removed > 0) & (lower % 10 >= 5)
    vr = np.where(removed > 0, lower // 10, vr)
    vm //= p10[removed]
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


def _decimal(x):
    """(digits, exponent) per value of a finite float64 array, as in
    _shortest; +-0.0 reads as 0 * 10**0."""
    mag = x.view(_U64) & ((1 << 63) - 1)
    digits, exp10, rare = _shortest(mag)
    zero = mag == 0
    digits[zero], exp10[zero] = 0, 0
    for k in np.flatnonzero(rare & ~zero).tolist():
        digits[k], exp10[k] = _repr_digits(abs(float(x[k])))
    return digits, exp10


def _rows(digits, point, shape):
    """(n, 7) uint64: the 56-byte row of each value, a newline ending each
    row of a table of this shape."""
    chars = np.empty((len(digits), _ROW // 8), dtype=_U64)
    chars[:, 0] = np.frombuffer(_HEAD, dtype=_U64)
    hi, lo = np.divmod(digits, 100_000_000)
    chunks = np.empty((len(digits), 5), dtype=np.intp)
    chunks[:, 0], chunks[:, 1] = np.divmod(hi // 10_000, 10_000)
    chunks[:, 2] = hi % 10_000
    chunks[:, 3], chunks[:, 4] = np.divmod(lo, 10_000)
    chars[:, 1:6] = _digit_pairs()[chunks]
    tail = 2 * (point - _POINT0)
    tail.reshape(shape)[:, -1] += 1
    chars[:, 6] = _tails()[tail]
    return chars


def repr_lines(block: np.ndarray) -> bytes:
    """``"".join(",".join(map(repr, row)) + "\\n" for row in block)`` as
    bytes, for a finite 2-D float64 array."""
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    digits, exp10 = _decimal(x)
    n = np.maximum(np.searchsorted(_pow10(), digits, side="right"), 1)
    point = exp10 + n                            # value = 0.d1d2... * 10**point
    code, pad = _layouts()[:, n * _POINTS + point - _POINT0]
    digits *= _pow10()[pad]
    chars = _rows(digits, point, block.shape)
    keep = _kept()[code]
    keep[:, _SIGN] = np.signbit(x)
    return chars.view(np.uint8).ravel()[keep.ravel()].tobytes()
