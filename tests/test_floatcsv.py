"""floatcsv.csv_text writes the bytes of ",".join(map(repr, row)) + "\\n"."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermnet import floatcsv
from hermnet.floatcsv import csv_text


def _repr_text(table):
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def _check(values, cols=257):
    """csv_text equals the repr text, in rows of `cols` cells."""
    values = np.asarray(values, dtype=float).ravel()
    table = np.resize(values, (-(-values.size // cols), cols))
    got, want = csv_text(table), _repr_text(table)
    if got != want:  # name the first cell that differs
        cells = zip(got.replace("\n", ",").split(","),
                    want.replace("\n", ",").split(","))
        assert next((g, w) for g, w in cells if g != w) is None
    assert got == want


def test_random_bit_patterns():
    # the whole double range: subnormals, nan and inf among them
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    _check(np.concatenate([bits.view(np.float64),
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -2.2250738585072014e-308, 1.7976931348623157e308]]))
    # and 100k patterns over the exponents of the vectorized range
    exponent = rng.integers(1023 - 14, 1023 + 54, size=100_000,
                            dtype=np.uint64)
    mantissa = rng.integers(0, 2 ** 52, size=100_000, dtype=np.uint64)
    sign = rng.integers(0, 2, size=100_000, dtype=np.uint64)
    _check(((sign << 63) | (exponent << 52) | mantissa).view(np.float64))


def test_powers_and_their_neighbours():
    base = np.concatenate([2.0 ** np.arange(-17, 58),
                           [float(f"1e{k}") for k in range(-5, 18)],
                           [1e-4, 1e16, 5e-5, 2e16, 9.999e15, 1.0001e-4]])
    below, above = [base], [base]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    values = np.concatenate(below + above)
    _check(np.concatenate([values, -values]))


def test_decimals_of_1_to_17_digits():
    rng = np.random.default_rng(1)
    values = []
    for digits in range(1, 18):
        mantissa = rng.integers(10 ** (digits - 1), 10 ** digits, size=600)
        exponent = rng.integers(-22, 18, size=600)
        values += [float(f"{m}e{e}") for m, e in zip(mantissa, exponent)]
    _check(np.array(values) * rng.choice([-1.0, 1.0], size=len(values)))


def test_integers_to_2_53_and_past():
    rng = np.random.default_rng(2)
    ints = np.concatenate([np.arange(-1000, 1000),
                           rng.integers(0, 2 ** 53, size=20_000),
                           2 ** 53 + np.arange(-600, 600),
                           rng.integers(2 ** 53, 2 ** 62, size=5_000)])
    _check(ints.astype(float))


def test_halfway_digits_round_to_even():
    # odd / 4 in [2^49, 1e15): |v| * 100 ends in 25 or 75 and both
    # neighbouring multiples of 10 read back, so the last digit is a tie
    rng = np.random.default_rng(3)
    odd = 2 * rng.integers(2 ** 50, 2 * 10 ** 15, size=20_000) + 1
    _check(odd / 4.0)
    # odd / 2^17 in [1, 2): |v| * 10^16 is halfway between integers
    _check((2 * rng.integers(2 ** 16, 2 ** 17, size=5_000) + 1) / 2.0 ** 17)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.integers(1, 7))
def test_any_floats(values, cols):
    _check(values, cols)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (1, 1)])
def test_edge_shapes(shape):
    table = np.full(shape, 0.5)
    assert csv_text(table) == _repr_text(table)


def test_in_range_block_never_falls_back(monkeypatch):
    def refuse(value):
        raise AssertionError(f"{value!r} took the per-cell fallback")

    monkeypatch.setattr(floatcsv, "_repr_cell", refuse)
    rng = np.random.default_rng(4)
    block = 10.0 ** rng.uniform(-4, 16, size=(256, 257))
    block *= rng.choice([-1.0, 1.0], size=block.shape)
    block[0, :3] = [0.0, -0.0, 1e-4]
    text = csv_text(block)
    monkeypatch.undo()
    assert text == _repr_text(block)
