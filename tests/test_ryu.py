"""``ryu.repr_lines`` writes the bytes of ``",".join(map(repr, row))`` per row.

``repr`` is the oracle throughout: random finite bit patterns, every power
of 2 and 10 with its neighbours, the layout edges between positional and
scientific notation, and blocks of values that Ryu sends to its general case.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gravdiff import ryu
from gravdiff.ryu import repr_lines

TINY = 5e-324
HUGE = np.finfo(float).max


def oracle(table):
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def assert_repr_exact(values, width):
    values = np.asarray(values, dtype=float).ravel()
    table = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    step = max(1, 4096 // width)                 # as write_csv's blocks
    got = b"".join(repr_lines(table[i:i + step]) for i in range(0, len(table), step))
    want = oracle(table)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        assert next((g, w) for g, w in pairs if g != w) is None


def neighbours(values):
    values = np.asarray(values, dtype=float)
    both = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


def test_random_bit_patterns():
    # 1e6 finite values: random sign, exponent field and mantissa, with one
    # in twenty exponent fields 0 (subnormals)
    rng = np.random.default_rng(20250117)
    n = 1_000_000
    exponent = rng.integers(0, 2047, n, dtype=np.uint64)
    exponent[rng.random(n) < 0.05] = 0
    bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)) | (exponent << np.uint64(52)) \
        | rng.integers(0, 2**52, n, dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.isfinite(values).all() and (values < 0).sum() > 400_000
    assert (np.abs(values[values != 0]) < 2.2250738585072014e-308).sum() > 40_000
    assert_repr_exact(values, 8)


def test_powers_of_two_and_ten_and_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    assert_repr_exact(neighbours(powers), 6)


@pytest.mark.parametrize("values", [
    [0.0, -0.0, TINY, -TINY, HUGE, -HUGE, 2.0**53 + 2, -(2.0**53 + 2)],
    # positional from 1e-4 to just below 1e16, scientific outside
    neighbours([1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e15, 1.0000000000000001e-4,
                0.00012345678901234567, 123456789012345.67, 1234567890123456.7]),
    # three-digit exponents of both signs
    neighbours([1e100, 1e-100, 1.5e-300, 2.2250738585072014e-308, 1.7e308, 4.9e-310,
                6.02214076e123, 1.23456789012345e-123]),
    # short numbers the common case reaches only after many removed digits
    neighbours([0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 1.1, 9.5, 299792458.1, 1e-7 + 1e-22]),
])
@pytest.mark.parametrize("width", [1, 3])
def test_special_values_and_layout_edges(values, width):
    assert_repr_exact(values, width)


def test_blocks_of_general_case_values_only():
    # exact short decimals: integers, halves, powers of ten up to 1e22
    values = np.concatenate([np.arange(1.0, 2000.0), np.arange(1, 400) / 8.0,
                             [float(f"1e{k}") for k in range(23)], [2.0**53, 2.0**60, 0.5**20]])
    values = np.concatenate([values, -values])
    mag = values.view(np.uint64) & np.uint64(2**63 - 1)
    assert ryu._shortest(mag)[2].all()
    assert_repr_exact(values, 5)
    assert_repr_exact(values[:1], 1)


def test_cli_columns():
    # the CLI's own kinds of value: grids, spectra and variances
    rng = np.random.default_rng(7)
    grid = np.linspace(0.25 * 6.283185307179586, 2.0 * 6.283185307179586, 2048)
    table = np.column_stack([grid, *(rng.lognormal(-46.0, 3.0, (5, 2048)))])
    table[::7, 3] = 0.0
    table[::5, 5] *= -1.0
    assert repr_lines(table) == oracle(table)


def test_import_builds_no_table():
    # Each one-shot CLI process imports the package: the formatter's tables
    # are built on the first CSV write, not at import.
    import gravdiff
    env = dict(os.environ, PYTHONPATH=str(Path(gravdiff.__file__).parents[1]))
    code = ("import gravdiff.cli\n"
            "from gravdiff import ryu\n"
            "for name, f in sorted(vars(ryu).items()):\n"
            "    if hasattr(f, 'cache_info'):\n"
            "        print(name, f.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    tables = dict(line.split() for line in out.splitlines())
    assert {"_exponent_table", "_digit_pairs", "_kept"} <= set(tables)
    assert set(tables.values()) == {"0"}


def layout(value):
    """(significant digit count, layout class) of repr(value): the decimal
    point position -3..16 (value = 0.d1d2... * 10**point) when positional,
    else 'sci' or 'sci3' by the exponent's digit count."""
    mantissa, _, exp = repr(abs(float(value))).partition("e")
    whole, _, frac = mantissa.partition(".")
    n = len((whole + frac).strip("0"))
    if exp:
        return n, "sci3" if abs(int(exp)) >= 100 else "sci"
    whole = whole.lstrip("0")
    return n, len(whole) if whole else len(frac.lstrip("0")) - len(frac)


def with_digits(n, point, rng):
    """Positive floats whose repr has n significant digits and its decimal
    point at ``point``: value = 0.d1..dn * 10**point."""
    if n <= 15:                      # any 15-digit decimal round-trips
        digits = int(rng.integers(10 ** (n - 1), 10**n))
        digits += digits % 10 == 0
        return [float(f"{digits}e{point - n}")]
    # 16 and 17 digits: draw in [10**(point - 1), 10**point) until repr agrees
    lo = float(f"1e{point - 1}")
    found = []
    while len(found) < 2:
        value = lo * float(rng.uniform(1.0, 10.0))
        if layout(value)[0] == n and 1e-307 < value < 1e308:
            found.append(value)
    return found


def test_every_layout_with_both_signs():
    # every digit count at every positional point -3..16 (1e-4 <= |x| < 1e16),
    # and scientific on both sides of them with two- and three-digit exponents
    rng = np.random.default_rng(18)
    points = list(range(-3, 17)) + [-98, -4, 17, 100, -99, 101, -300, 300]
    values = [v for n in range(1, 18) for p in points for v in with_digits(n, p, rng)]
    values = np.array(values)
    seen = {layout(v) for v in values}
    assert seen == {(n, c) for n in range(1, 18) for c in [*range(-3, 17), "sci", "sci3"]}
    # -0.0, subnormals down to 5e-324, and the smallest normals
    subnormal = np.ldexp(rng.integers(1, 2**52, 64).astype(float), -1074)
    values = np.concatenate([values, [0.0, -0.0, TINY, 2 * TINY, 3 * TINY, 2.2250738585072014e-308],
                             subnormal])
    values = np.concatenate([values, -values])
    rng.shuffle(values)
    for width in (1, 3, 6, 13):
        assert_repr_exact(values, width)


def test_zero_heavy_welch_table():
    # a Welch output: frequency and PSD columns, four component columns of zeros
    rng = np.random.default_rng(1024)
    table = np.zeros((1024, 6))
    table[:, 0] = np.arange(1024) * (2 * np.pi / 1024 / 0.01)
    table[:, 1] = rng.lognormal(-46.0, 3.0, 1024)
    table[::9, 2] = -0.0
    assert repr_lines(table[:682]) + repr_lines(table[682:]) == oracle(table)
