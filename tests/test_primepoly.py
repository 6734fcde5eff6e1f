"""The irreducibility kernel behind the default-modulus search."""

import itertools

import numpy as np
import pytest

from quadsums import _primepoly as pp
from tests import polyref
from quadsums import build_field_ctx
from quadsums.errors import DivisionByZero
from quadsums.fieldcore import _default_modulus, _has_irreducible_binomial

ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _x_power_ref(e, a, p):
    """x^e mod a by square-and-multiply through the dense remainder."""
    result, base = np.array([1], dtype=np.int64), np.array([0, 1], dtype=np.int64)
    while e:
        if e & 1:
            result = polyref.rem(polyref.mul(result, base, p), a, p)
        base = polyref.rem(polyref.mul(base, base, p), a, p)
        e >>= 1
    return result


def _rabin_ref(a, p):
    """Rabin's test with powmod to the exponents p^(d/q) and p^d: the
    reference the Frobenius-matrix test must agree with (int64, small p)."""
    d = polyref.deg(a)
    if d == 1:
        return True
    x = np.array([0, 1], dtype=np.int64)
    for q in pp.prime_divisors(d):
        h = _x_power_ref(p ** (d // q), a, p)
        if polyref.deg(polyref.gcd(polyref.sub(h, x, p), a, p)) != 0:
            return False
    return len(polyref.sub(_x_power_ref(p**d, a, p), x, p)) == 0


def _monic_polys(p, d):
    for low in itertools.product(range(p), repeat=d):
        yield np.array(low + (1,), dtype=np.int64)


def _mobius(n):
    out = 1
    for q in pp.prime_divisors(n):
        if n % (q * q) == 0:
            return 0
        out = -out
    return out


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_irreducible_count_is_gauss_formula(p, max_d):
    for d in range(1, max_d + 1):
        found = sum(pp.is_irreducible(a, p) for a in _monic_polys(p, d))
        gauss = sum(_mobius(d // k) * p**k for k in range(1, d + 1) if d % k == 0) // d
        assert found == gauss, (p, d)


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_matches_powmod_rabin_on_every_candidate(p, max_d):
    for d in range(1, max_d + 1):
        for a in _monic_polys(p, d):
            expected = _rabin_ref(a, p)
            assert pp.is_irreducible(a, p) == expected, (p, a)
            # a nonzero scalar multiple decides the same way
            assert pp.is_irreducible(a * (p - 1) % p, p) == expected, (p, a)


@pytest.mark.parametrize("p,d", [(3, 7), (5, 4), (7, 3), (101, 3), (13, 12)])
def test_frobenius_matrix_rows_are_p_powers(p, d, rng):
    low = [rng.randrange(p) for _ in range(d)]
    a = np.array(low + [1], dtype=np.int64)
    Q = pp.frobenius_matrix(a, p)
    for u in range(d):
        ref = _x_power_ref(p * u, a, p)
        row = np.zeros(d, dtype=np.int64)
        row[: len(ref)] = ref
        assert np.array_equal(Q[u], row), (p, d, u)


def test_exact_dtype_bound():
    assert pp.exact_dtype(3, 128) is np.int64
    assert pp.exact_dtype(2**31 - 1, 2) is np.int64
    assert pp.exact_dtype(4294967311, 2) is object
    assert pp.exact_dtype(2**61 - 1, 3) is object


def test_quadratics_beyond_int64_follow_euler():
    # p > 2^32: x^2 - c is irreducible iff c is a quadratic nonresidue
    p = 4294967311
    for c in list(range(1, 40)) + [p - 1, p - 2, 3**20 % p]:
        a = np.array([(-c) % p, 0, 1], dtype=np.int64)
        assert pp.is_irreducible(a, p) == (pow(c, (p - 1) // 2, p) == p - 1), c


def test_cubics_beyond_int64_follow_cubic_residues():
    # p = 2^61 - 1 = 1 (mod 3): x^3 - c is irreducible iff c is no cube
    p = 2**61 - 1
    for c in list(range(1, 40)) + [p - 1, 5**30 % p]:
        a = np.array([(-c) % p, 0, 0, 1], dtype=np.int64)
        assert pp.is_irreducible(a, p) == (pow(c, (p - 1) // 3, p) != 1), c


def _plain_search(p, d):
    for code in itertools.count(0):
        low = [code // p**i % p for i in range(d)]
        if pp.is_irreducible(np.array(low + [1], dtype=np.int64), p):
            return tuple(low) + (1,)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
def test_binomial_skip_keeps_the_default_modulus(p):
    for d in range(2, 9):
        binomials = [np.array([c] + [0] * (d - 1) + [1], dtype=np.int64) for c in range(1, p)]
        assert _has_irreducible_binomial(p, d) == any(pp.is_irreducible(b, p) for b in binomials)
        assert _default_modulus(p, d) == _plain_search(p, d), (p, d)


def test_no_binomial_block_does_not_hang():
    # p = 2 (mod 3): every x^3 + c is reducible, so codes 0..p-1 are skipped
    p = 100000007
    ctx = build_field_ctx(p, 3)
    assert ctx.modulus == (6, 1, 0, 1)
    assert pp.is_irreducible(np.array(ctx.modulus, dtype=np.int64), p)
    for c in range(6):  # the codes between p and the modulus
        assert not pp.is_irreducible(np.array([c, 1, 0, 1], dtype=np.int64), p)


@pytest.mark.parametrize("p", [3, 7, 2**61 - 1])
def test_rem_and_gcd_degree_match_numpy_euclid(p, rng):
    def rand_poly(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    for _ in range(40):
        a, b = rand_poly(rng.randrange(0, 12)), rand_poly(rng.randrange(0, 8))
        c = rand_poly(rng.randrange(0, 5))
        ab = polyref.mul(polyref.make(a, p), polyref.make(b, p), p).tolist()
        for u, v in ((a, b), (b, a), (ab, b), (ab, a + [0, 0])):
            assert pp.rem(u, v, p) == polyref.rem(polyref.make(u, p), polyref.make(v, p), p).tolist()
            common = polyref.gcd(polyref.make(u, p), polyref.make(v, p), p)
            assert pp.gcd_degree(u, v, p) == polyref.deg(common)
        # a divisor of the first argument: zero remainder, gcd the divisor
        assert pp.rem(ab, b, p) == []
        assert pp.gcd_degree(ab, b, p) == len(b) - 1
        # a common factor c of both
        ac = polyref.mul(polyref.make(a, p), polyref.make(c, p), p).tolist()
        bc = polyref.mul(polyref.make(b, p), polyref.make(c, p), p).tolist()
        assert pp.gcd_degree(ac, bc, p) == polyref.deg(polyref.gcd(polyref.make(ac, p), polyref.make(bc, p), p))
        assert pp.gcd_degree(ac, bc, p) >= len(c) - 1
        # a zero second argument: the remainder raises, the gcd is the first
        assert pp.gcd_degree(a, [], p) == pp.gcd_degree(a, [0, 0], p) == len(a) - 1
        with pytest.raises(DivisionByZero):
            pp.rem(a, [0], p)
    assert pp.gcd_degree([], [], p) == -1
