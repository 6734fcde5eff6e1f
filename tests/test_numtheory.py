import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import _numtheory
from quadsums._numtheory import (
    digits,
    divisors,
    euler_phi,
    factor,
    factor_power_minus_one,
    is_prime,
    multiplicative_order,
    prime_divisors,
)
from quadsums.errors import InvalidInput, Unsupported
from quadsums.fieldcore import build_field_ctx


def _sieve(n):
    flags = [False, False] + [True] * (n - 1)
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = [False] * len(flags[q * q :: q])
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(5000)
    assert [n for n in range(5001) if is_prime(n)] == [n for n in range(5001) if flags[n]]
    assert is_prime(2**61 - 1) and is_prime(4294967311) and not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_factor_divisors_phi_against_definitions():
    for n in range(1, 800):
        fac = factor(n)
        assert math.prod(q**e for q, e in fac.items()) == n
        assert all(is_prime(q) for q in fac) and list(fac) == sorted(fac)
        assert prime_divisors(n) == list(fac)
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_multiplicative_order_against_powers():
    for modulus in range(2, 120):
        for base in range(modulus):
            if math.gcd(base, modulus) != 1:
                with pytest.raises(InvalidInput):
                    multiplicative_order(base, modulus)
                continue
            k = 1
            while pow(base, k, modulus) != 1:
                k += 1
            assert multiplicative_order(base, modulus) == k


def test_factor_known_large():
    assert factor(2**64 + 1) == {274177: 1, 67280421310721: 1}
    assert factor(7**17 - 1) == {2: 1, 3: 1, 14009: 1, 2767631689: 1}
    assert factor(3**16 - 1) == {2: 6, 5: 1, 17: 1, 41: 1, 193: 1}
    assert factor((2**61 - 1) ** 2) == {2**61 - 1: 2}
    assert factor(1009**3 * 4294967311**2) == {1009: 3, 4294967311: 2}
    assert factor((1009 * 1013) ** 3) == {1009: 3, 1013: 3}
    assert factor(1) == {}
    with pytest.raises(InvalidInput):
        factor(0)


@pytest.mark.parametrize("p,k", [(3, 16), (7, 17), (2**61 - 1, 4), (4294967311, 4), (3, 81)])
def test_factor_power_minus_one(p, k):
    fac = dict(factor_power_minus_one(p, k))
    assert math.prod(q**e for q, e in fac.items()) == p**k - 1
    assert all(is_prime(q) for q in fac) and list(fac) == sorted(fac)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**64))
def test_factor_product_and_primality(n):
    fac = factor(n)
    assert math.prod(q**e for q, e in fac.items()) == n
    assert all(is_prime(q) for q in fac) and list(fac) == sorted(fac)


def test_digits_round_trip_the_field_encoding():
    # digits is the inverse of FieldElem.encoding and the map behind
    # from_encoding, lowest digit first
    for p, d in ((3, 1), (3, 4), (5, 3), (7, 2)):
        ctx = build_field_ctx(p, d)
        for code in range(ctx.order):
            x = ctx.from_encoding(code)
            assert list(x.coeffs) == digits(code, p, d) and x.encoding == code
    p = 2**61 - 1
    for code in (0, p - 1, p, 12345 * p * p + 678 * p + 9, p**3 - 1):
        ds = digits(code, p, 3)
        assert all(0 <= c < p for c in ds) and sum(c * p**i for i, c in enumerate(ds)) == code


def test_rho_raises_unsupported_past_its_step_bound(monkeypatch):
    # rho splits 2^31 - 1 off in about 2^16 steps: within RHO_STEPS, but not
    # within 2^10, where it gives up with Unsupported instead of running on
    n = (2**31 - 1) * (2**61 - 1)
    assert factor(n) == {2**31 - 1: 1, 2**61 - 1: 1}
    monkeypatch.setattr(_numtheory, "RHO_STEPS", 2**10)
    with pytest.raises(Unsupported, match="factoring_out_of_reach"):
        factor(n)
    assert factor(1009 * 4294967311) == {1009: 1, 4294967311: 1}  # a small factor still splits off
