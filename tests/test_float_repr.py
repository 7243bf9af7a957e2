"""float_repr.repr_fields against repr(float), which it must match byte for
byte: on hypothesis floats, on raw 64-bit patterns, and on the cases where
shortest-digit algorithms differ from each other or from repr."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from photonkit import float_repr


def _reprs(values):
    fields = float_repr.repr_fields(np.asarray(values, dtype=np.float64))
    assert fields.shape == (float_repr.FIELD_WIDTH, len(values))
    return [column[column != 0].tobytes().decode() for column in fields.T]


def _assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert _reprs(values) == [repr(v) for v in values.tolist()]


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_floats_match_repr(values):
    _assert_matches_repr(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_bit_patterns_match_repr(patterns):
    _assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_pinned_values():
    _assert_matches_repr([
        0.0, -0.0, 5e-324, -5e-324, 1e-323, 8e-323, 2.2250738585072014e-308,
        1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e22, 1e23,
        math.nan, math.inf, -math.inf, 0.1, 1.0, 123.0, 1e15, 0.00012345678901234567,
        1.7976931348623157e308])


def test_powers_of_two_and_neighbours():
    # At c = 2^52 the spacing below is half the spacing above.
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_matches_repr(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_powers_of_ten():
    _assert_matches_repr([float(f"1e{k}") for k in range(-323, 309)])


def test_smallest_subnormals():
    # Their significands below 3 are scaled by 10 in the algorithm.
    _assert_matches_repr(np.arange(1, 2001, dtype=np.uint64).view(np.float64))


def test_empty():
    assert float_repr.repr_fields(np.array([])).shape == (float_repr.FIELD_WIDTH, 0)
