import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import (
    CyclotomicInt,
    ExpSumValue,
    cyc_from_trace_counts,
    expsum_to_cyclotomic,
    gauss_cyclotomic,
)
from quadsums.errors import InvalidInput, MixedPrimes


def test_trace_count_reduction_examples():
    assert cyc_from_trace_counts(3, (1, 2, 0)).coords == (1, 2)
    assert cyc_from_trace_counts(3, (1, 0, 2)).coords == (-1, -2)
    assert cyc_from_trace_counts(5, (1, 2, 0, 0, 2)).coords == (-1, 0, -2, -2)
    with pytest.raises(InvalidInput):
        cyc_from_trace_counts(5, (1, 2, 3))


def test_gauss_examples():
    assert gauss_cyclotomic(3).coords == (1, 2)
    assert gauss_cyclotomic(5) == cyc_from_trace_counts(5, (1, 2, 0, 0, 2))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_gauss_square_identity(p):
    g = gauss_cyclotomic(p)
    assert g * g == (-1) ** ((p - 1) // 2) * p


def test_arith_examples():
    g3 = gauss_cyclotomic(3)
    assert (g3 * CyclotomicInt.zero(3)).is_zero()
    assert (g3 * g3).coords == (-3, 0)
    g5 = gauss_cyclotomic(5)
    assert g5.conj() * g5 == 5
    assert (g5 == g5) is True
    with pytest.raises(MixedPrimes):
        g3 + g5


coords5 = st.tuples(*[st.integers(-20, 20)] * 4)


@given(coords5, coords5)
@settings(max_examples=80, deadline=None)
def test_conj_is_ring_automorphism(a, b):
    x, y = CyclotomicInt(5, a), CyclotomicInt(5, b)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(st.integers(-5, 5), st.tuples(*[st.integers(0, 10)] * 5))
@settings(max_examples=60, deadline=None)
def test_reduction_is_canonical(shift, counts):
    # adding a constant to every zeta-exponent weight adds a multiple of
    # 1 + zeta + ... + zeta^(p-1) = 0
    base = cyc_from_trace_counts(5, counts)
    shifted = cyc_from_trace_counts(5, tuple(c + shift for c in counts))
    assert base == shifted


def test_expsum_conversions():
    assert expsum_to_cyclotomic(ExpSumValue(5, 1, 0, 1)) == gauss_cyclotomic(5)
    assert expsum_to_cyclotomic(ExpSumValue(3, 1, 1, 1)) == 3
    assert expsum_to_cyclotomic(ExpSumValue(5, 2, 0, -1)) == -5


@pytest.mark.parametrize(
    "p,N,l,t",
    [(3, 1, 0, 1), (3, 4, 2, -1), (5, 13, 4, -1), (5, 26, 8, -1), (7, 3, 1, 1)],
)
def test_norm_is_p_to_N_plus_l(p, N, l, t):
    v = ExpSumValue(p, N, l, t)
    c = v.to_cyclotomic()
    assert (c * c.conj()).as_int() == p ** (N + l)


def test_exact_str():
    assert ExpSumValue(5, 13, 4, -1).exact_str() == "-g^9*p^4"
    assert ExpSumValue(3, 1, 0, 1).exact_str() == "g"
    assert ExpSumValue(3, 2, 2, 1).exact_str() == "p^2"
    assert ExpSumValue(3, 1, 1, -1).exact_str() == "-p"


def test_complex_value_matches_cyclotomic():
    for v in (ExpSumValue(3, 2, 1, -1), ExpSumValue(5, 3, 1, 1), ExpSumValue(7, 2, 0, -1)):
        assert abs(v.complex_value() - v.to_cyclotomic().complex_value()) < 1e-6


def test_complex_value_axes_and_overflow():
    # S is real or purely imaginary; past the float range its magnitude is inf
    for p in (3, 5, 7, 13):
        for N in range(1, 7):
            for l in range(N + 1):
                for t in (1, -1):
                    v = ExpSumValue(p, N, l, t)
                    z, ref = v.complex_value(), v.to_cyclotomic().complex_value()
                    assert z.real == 0 or z.imag == 0
                    assert abs(z - ref) < 1e-9 * abs(ref), (p, N, l, t)
    assert ExpSumValue(5, 1000, 0, -1).complex_value() == complex(-math.inf, 0)
    assert ExpSumValue(3, 3000, 1, 1).complex_value() == complex(0, -math.inf)  # i^2999
    assert ExpSumValue(2**61 - 1, 40, 0, 1).complex_value() == complex(math.inf, 0)


def test_expsum_validation():
    with pytest.raises(InvalidInput):
        ExpSumValue(3, 1, 2, 1)
    with pytest.raises(InvalidInput):
        ExpSumValue(3, 1, 0, 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_form_gauss_powers_match_products(p):
    g = gauss_cyclotomic(p)
    power = CyclotomicInt.from_int(p, 1)
    for r in range(8):
        assert g**r == power
        for l, t in ((0, 1), (2, -1)):
            assert ExpSumValue(p, r + l, l, t).to_cyclotomic() == power * (t * p**l)
        power = power * g


def test_pow_squares_no_further_than_the_top_bit(monkeypatch):
    # one square per bit below the top one and one product per set bit
    # below it: the base itself is the first factor, not 1 times the base
    products = []
    mul = CyclotomicInt.__mul__
    monkeypatch.setattr(CyclotomicInt, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    g = gauss_cyclotomic(5)
    for e in range(1, 9):
        products.clear()
        g**e
        assert len(products) == bin(e).count("1") - 1 + e.bit_length() - 1, e
