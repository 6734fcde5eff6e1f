"""The irreducibility kernel behind the default-modulus search."""

import itertools
import math

import numpy as np
import pytest

from quadsums import _primepoly as pp
from tests import polyref
from quadsums import build_field_ctx
from quadsums.errors import DivisionByZero, InternalInconsistency
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


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_stacked_test_equals_row_by_row(p, max_d):
    # every monic candidate of each degree in one stack, rows decided alone
    for d in range(2, max_d + 1):
        stack = np.array(list(_monic_polys(p, d)))
        got = pp.is_irreducible(stack, p)
        assert got.dtype == bool and got.shape == (len(stack),)
        assert got.tolist() == [pp.is_irreducible(a, p) for a in stack], (p, d)


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 + 29])
def test_stacked_test_past_int64_follows_euler(p):
    # object-dtype stacks: x^2 - c is irreducible iff c is a nonresidue,
    # x^2 + x (zero constant) never
    stack = np.array([[(-c) % p, 0, 1] for c in range(1, 30)] + [[0, 1, 1]], dtype=object)
    got = pp.is_irreducible(stack, p)
    assert got.tolist() == [pp.is_irreducible(a, p) for a in stack]
    assert got.tolist() == [pow(c, (p - 1) // 2, p) == p - 1 for c in range(1, 30)] + [False]


def test_product_without_a_linear_factor_past_int64():
    # p = 1 mod 15, so x^k - c is irreducible for k = 2, 3, 5 iff c is no
    # k-th power; a quadratic times a cubic passes every gcd and is caught
    # only by x^(p^5) != x, also as object-dtype rows of a stack
    p = 2**61 - 1
    c2, c3, c5 = (next(c for c in range(2, 99) if pow(c, (p - 1) // k, p) != 1) for k in (2, 3, 5))
    product = [c2 * c3 % p, 0, -c3 % p, -c2 % p, 0, 1]  # (x^2 - c2)(x^3 - c3)
    quintic = [-c5 % p, 0, 0, 0, 0, 1]
    assert not pp.is_irreducible(np.array(product, dtype=object), p)
    assert pp.is_irreducible(np.array(quintic, dtype=object), p)
    got = pp.is_irreducible(np.array([product, quintic, product], dtype=object), p)
    assert got.dtype == bool and got.tolist() == [False, True, False]


def _plain_search(p, d):
    for code in itertools.count(0):
        low = [code // p**i % p for i in range(d)]
        if pp.is_irreducible(np.array(low + [1], dtype=np.int64), p):
            return tuple(low) + (1,)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
def test_binomial_skip_keeps_the_default_modulus(p):
    # also the block search against one code at a time
    for d in range(2, 13 if p <= 7 else 9):
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


def _gcd_degree(a, b, p):
    return len(pp.gcd(a, b, p)) - 1


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
            assert _gcd_degree(u, v, p) == polyref.deg(common)
        # a divisor of the first argument: zero remainder, gcd the divisor
        assert pp.rem(ab, b, p) == []
        assert _gcd_degree(ab, b, p) == len(b) - 1
        # a common factor c of both
        ac = polyref.mul(polyref.make(a, p), polyref.make(c, p), p).tolist()
        bc = polyref.mul(polyref.make(b, p), polyref.make(c, p), p).tolist()
        assert _gcd_degree(ac, bc, p) == polyref.deg(polyref.gcd(polyref.make(ac, p), polyref.make(bc, p), p))
        assert _gcd_degree(ac, bc, p) >= len(c) - 1
        # a zero second argument: the remainder raises, the gcd is the first
        assert _gcd_degree(a, [], p) == _gcd_degree(a, [0, 0], p) == len(a) - 1
        with pytest.raises(DivisionByZero):
            pp.rem(a, [0], p)
    assert _gcd_degree([], [], p) == -1


@pytest.mark.parametrize("p", [3, 7, 2**61 - 1, 2**63 + 29])
def test_mulmod_and_powmod_match_numpy_euclid(p, rng):
    # a non-monic m: each lazy step scales its leading coefficient by
    # 1/lead(m); inputs longer than deg m reduce too
    for d in (1, 2, 5):
        m = [rng.randrange(p) for _ in range(d)] + [rng.randrange(2, p)]
        ref_m = polyref.make(m, p)
        for _ in range(6):
            a, b = ([rng.randrange(p) for _ in range(rng.randrange(2 * d + 2))] for _ in range(2))
            want = polyref.rem(polyref.mul(polyref.make(a, p), polyref.make(b, p), p), ref_m, p).tolist()
            got = pp.mulmod(a, b, m, p)
            assert len(got) == d and pp.trim(got) == want, (a, b, m)
            power = polyref.make([1], p)
            for e in range(12):
                assert pp.powmod(a, e, m, p) == polyref.rem(power, ref_m, p).tolist(), (a, e, m)
                power = polyref.mul(power, polyref.make(a, p), p)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 7), (7, 7), (11, 4), (3, 40), (41, 34), (101, 3)])
def test_frobenius_matrix_matches_companion_powers(p, d, rng):
    # row u of Q against row 0 of X^(p*u), one product at a time
    a = np.array([rng.randrange(p) for _ in range(d)] + [1], dtype=pp.exact_dtype(p, d))
    Q, X = pp.frobenius_matrix(a, p), pp._companion(a, p)
    row = np.eye(1, d, dtype=X.dtype)[0]
    for u in range(d):
        assert np.array_equal(Q[u], row), (p, d, u)
        for _ in range(p):
            row = row @ X % p


def _expand(factors, p):
    out = [1]
    for g, e in factors:
        for _ in range(e):
            out = pp.mul(out, g, p)
    return out


def _check_factorization(a, factors, p):
    assert _expand(factors, p) == a, (a, factors)
    gs = [tuple(g) for g, _ in factors]
    assert len(set(gs)) == len(gs), factors
    for g in gs:
        assert g[-1] == 1 and pp.is_irreducible(np.array(g, dtype=pp.exact_dtype(p, len(g) - 1)), p), g


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_factor_every_monic_polynomial(p, max_d):
    for d in range(max_d + 1):
        for a in _monic_polys(p, d):
            a = a.tolist()
            _check_factorization(a, pp.factor(tuple(a), p), p)


def test_factor_repeated_and_p_th_power_factors():
    # over GF(3): (x + 1)^3 (x^2 + 1)^6 x^4 has zero derivative parts, and the
    # multiplicities are read through the p-th root
    p = 3
    want = [([1, 1], 3), ([1, 0, 1], 6), ([0, 1], 4), ([2, 2, 1], 1)]
    a = _expand(want, p)
    got = pp.factor(tuple(a), p)
    _check_factorization(a, got, p)
    assert sorted((list(g), e) for g, e in got) == sorted(want)


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 + 29])
def test_factor_at_large_primes(p, rng):
    # a product of linear factors, one with multiplicity 2, and an
    # irreducible quadratic x^2 - c, c a nonresidue
    c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
    roots = [rng.randrange(1, p) for _ in range(3)]
    want = [([-roots[0] % p, 1], 2), ([-roots[1] % p, 1], 1), ([-roots[2] % p, 1], 1), ([-c % p, 0, 1], 1)]
    got = pp.factor(tuple(_expand(want, p)), p)
    assert sorted((list(g), e) for g, e in got) == sorted(want)


def test_equal_degree_split_failure_raises():
    # two quadratics passed off as a product of linear factors: no shift
    # splits them into degree 1, and the pass ends in the check
    p, g = 3, pp.mul([1, 0, 1], [2, 1, 1], 3)
    with pytest.raises(InternalInconsistency, match="splits"):
        pp._equal_degree(g, 1, pp.frobenius_matrix(g, p), p)


@pytest.mark.parametrize("p,max_d", [(3, 5), (5, 3), (7, 2)])
def test_order_matches_repeated_products(p, max_d):
    # the least e with x^e = 1 modulo every monic irreducible g != x
    for d in range(1, max_d + 1):
        for a in _monic_polys(p, d):
            g = a.tolist()
            if not g[0] or not pp.is_irreducible(a, p):
                continue
            e, y = 1, pp.rem([0, 1], g, p)
            while y != [1]:
                e, y = e + 1, pp.rem(pp.mul(y, [0, 1], p), g, p)
            got = pp.order(tuple(g), p)
            assert math.prod(q**v for q, v in got) == e, (g, got)
            assert [q for q, _ in got] == sorted(q for q, _ in got)


def _palindromic(low, mid):
    return list(low) + [mid] + list(low)[::-1]


def _rows_by_full_factoring(a, p):
    """(deg g, ord g, e) for each irreducible g | a, by ``factor``."""
    return sorted((len(g) - 1, math.prod(q**v for q, v in pp.order(g, p)), e) for g, e in pp.factor(tuple(a), p))


def _rows_by_half_factoring(a, p):
    """The same rows from ``factor_reciprocal``, a pair g g* twice."""
    rows = []
    for Q, k, e in pp.factor_reciprocal(tuple(a), p):
        rows += [(k, math.prod(q**v for q, v in pp.order(Q, p, k)), e)] * ((len(Q) - 1) // k)
    return sorted(rows)


@pytest.mark.parametrize("p,max_d", [(3, 8), (5, 6), (7, 4)])
def test_factor_reciprocal_matches_factor_on_every_palindromic_polynomial(p, max_d):
    # every monic palindromic a of even degree <= max_d, and a times odd and
    # even powers of x -+ 1, anti-palindromic when x - 1 has an odd power;
    # degree 0 is the mu of alpha = 0, with no rows
    assert pp.factor_reciprocal((1,), p) == ()
    minus, plus = [p - 1, 1], [1, 1]
    cofactors = [[1], minus, _expand([(plus, 1), (minus, 3)], p), _expand([(plus, 3), (minus, 2)], p)]
    palindromes = [[1]] + [_palindromic((1,) + low, mid) for d in range(2, max_d + 1, 2)
                           for low in itertools.product(range(p), repeat=d // 2 - 1) for mid in range(p)]
    for a, u in itertools.product(palindromes, cofactors):
        a = pp.mul(a, u, p)
        assert _rows_by_half_factoring(a, p) == _rows_by_full_factoring(a, p), (p, a)


@pytest.mark.parametrize("p", [3, 5])
def test_factor_reciprocal_matches_factor_at_degree_12_and_16(p, rng):
    for d in (12, 16):
        for _ in range(10):
            a = _palindromic([1] + [rng.randrange(p) for _ in range(d // 2 - 1)], rng.randrange(p))
            assert _rows_by_half_factoring(a, p) == _rows_by_full_factoring(a, p), (p, a)


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 + 29])
def test_factor_reciprocal_matches_factor_at_large_primes(p, rng):
    # products of palindromic quadratics x^2 - b x + 1, each a reciprocal
    # pair of linear factors, a self-reciprocal irreducible or (x -+ 1)^2,
    # some repeated: every order then needs only p - 1 and p + 1 factored
    for d in (12, 16):
        for _ in range(3):
            pool = [2, p - 2] + [rng.randrange(p) for _ in range(3)]
            a = [1]
            for _ in range(d // 2):
                a = pp.mul(a, [1, rng.choice(pool), 1], p)
            assert _rows_by_half_factoring(a, p) == _rows_by_full_factoring(a, p), (p, a)


def _dickson_lift(q, p):
    """x^j q(x + 1/x) = sum q_i x^(j-i) (x^2 + 1)^i, by products."""
    j, out = len(q) - 1, [0] * (2 * len(q) - 1)
    for i, c in enumerate(q):
        term = [0] * (j - i) + [1]
        for _ in range(i):
            term = pp.mul(term, [1, 0, 1], p)
        for t, v in enumerate(term):
            out[t] = (out[t] + c * v) % p
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_meyn_criterion_and_the_orders_of_a_pair(p):
    # every monic irreducible q of degree j <= 4 but y -+ 2: Q = x^j q(x + 1/x)
    # is irreducible exactly when q(2) q(-2) is a nonsquare (k = 2j), and
    # else g g* with g != g* of degree j, both of the order order(Q, p, j)
    for j in range(1, 5):
        for q in _monic_polys(p, j):
            if not pp.is_irreducible(q, p) or (j == 1 and q[0] in (2, p - 2)):
                continue
            Q = tuple(_dickson_lift(q.tolist(), p))
            ((got, k, e),) = pp.factor_reciprocal(Q, p)
            assert got == Q and e == 1 and k in (j, 2 * j), (p, q)
            assert (k == 2 * j) == pp.is_irreducible(np.array(Q, dtype=np.int64), p), (p, q)
            if k == j:
                (g, _), (h, _) = pp.factor(Q, p)
                assert len(g) == len(h) == j + 1 and g != h, (p, q)
                assert h == tuple(c * pow(g[0], -1, p) % p for c in reversed(g)), (p, q)
                assert pp.order(Q, p, j) == pp.order(g, p) == pp.order(h, p), (p, q)


@pytest.mark.parametrize("p,k", [(3, 6), (5, 4), (7, 3)])
def test_factorizations_list_every_monic_polynomial_once(p, k, monkeypatch):
    # every monic a of degree <= k is a key, with prod g^e = a; a reducible
    # a takes one product, and the a with one factor g = a, e = 1 are the
    # irreducibles of Rabin's test
    real, products = pp.mul, []
    monkeypatch.setattr(pp, "mul", lambda a, b, p: products.append(1) or real(a, b, p))
    fac = pp.factorizations(p, k)
    monkeypatch.undo()
    every = [tuple(a.tolist()) for d in range(k + 1) for a in _monic_polys(p, d)]
    assert len(fac) == len(every) == (p ** (k + 1) - 1) // (p - 1) and set(fac) == set(every)
    irreducible = set()
    for a, factors in fac.items():
        assert _expand(factors, p) == list(a), (a, factors)
        assert all(fac[g] == ((g, 1),) for g, _ in factors), (a, factors)
        if factors == ((a, 1),):
            irreducible.add(a)
    assert len(products) == len(fac) - 1 - len(irreducible)
    want = {tuple(a.tolist()) for d in range(1, k + 1) for a in _monic_polys(p, d) if pp.is_irreducible(a, p)}
    assert irreducible == want


def _palindromic_irreducibles(p, max_d):
    for d in range(2, max_d + 1, 2):
        for low in itertools.product(range(p), repeat=d // 2):
            g = tuple(_palindromic((1,) + low[:-1], low[-1]))
            if pp.is_irreducible(np.array(g, dtype=np.int64), p):
                yield g


@pytest.mark.parametrize("p,max_d", [(3, 8), (5, 6)])
def test_self_reciprocal_orders_in_p_to_the_j_plus_one(p, max_d):
    # a palindromic irreducible g of degree 2j: the default order(g, p)
    # searches p^j + 1, an explicit k = 2j all of p^(2j) - 1; they agree
    found = list(_palindromic_irreducibles(p, max_d))
    assert {len(g) - 1 for g in found} == set(range(2, max_d + 1, 2))
    for g in found:
        got = pp.order(g, p)
        assert got == pp.order(g, p, len(g) - 1), (p, g)
        assert (p ** ((len(g) - 1) // 2) + 1) % math.prod(q**v for q, v in got) == 0, (p, g, got)


def test_self_reciprocal_orders_at_a_large_prime(rng):
    # x^2 - b x + 1 with b^2 - 4 a nonsquare, and x^2 q(x + 1/x) for an
    # irreducible quadratic q with q(2) q(-2) a nonsquare, at p = 2^61 - 1
    p = 2**61 - 1

    def nonsquare(c):
        return pow(c % p, (p - 1) // 2, p) == p - 1

    found = []
    while len(found) < 4:
        b, s, t = (rng.randrange(p) for _ in range(3))
        if len(found) < 2 and nonsquare(b * b - 4):
            found.append((1, -b % p, 1))
        elif len(found) >= 2 and nonsquare(s * s - 4 * t) and nonsquare((4 + 2 * s + t) * (4 - 2 * s + t)):
            found.append(tuple(_dickson_lift([t, s, 1], p)))
    for g in found:
        assert pp.is_irreducible(np.array(g, dtype=object), p) and g == g[::-1], g
        assert pp.order(g, p) == pp.order(g, p, len(g) - 1), g


def test_a_doctored_self_reciprocal_order_raises():
    # x^2 + 6x + 1 = (x - 3)(x - 5) over GF(7) is palindromic, not
    # irreducible: 3 has order 6, which does not divide 7 + 1; with its
    # roots' field named (k = 2) the order is found in 7^2 - 1
    g = (1, 6, 1)
    assert pp.order(g, 7, 2) == ((2, 1), (3, 1))
    with pytest.raises(InternalInconsistency, match="no order dividing 7\\^1 \\+ 1"):
        pp.order(g, 7)
    # a reciprocal pair g g* over GF(5), whose order 24 divides 5^2 - 1,
    # passed off as an irreducible of degree 4
    pair = tuple(_dickson_lift([3, 0, 1], 5))
    assert not pp.is_irreducible(np.array(pair, dtype=np.int64), 5)
    with pytest.raises(InternalInconsistency, match="no order dividing 5\\^2 \\+ 1"):
        pp.order(pair, 5)
