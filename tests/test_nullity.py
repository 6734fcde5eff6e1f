import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import (
    QuadFunc,
    build_field_ctx,
    matrix_kernel_nullity,
    nullity_at,
    nullity_profile,
    radical_poly,
    splitting_exponent,
)
from quadsums import _primepoly as pp
from quadsums import _linalg, _numtheory, fieldcore, nullity
from quadsums._numtheory import is_prime
from quadsums.errors import InternalInconsistency, InvalidInput, NotMultipleOfBase

F5_RUNNING = QuadFunc.from_dense(5, [1, 2, 3, 4, 1])
F3_TOWER = QuadFunc.from_dense(3, [1, 2, 2, 2, 1])
F7_SMALL = QuadFunc.from_dense(7, [5, 6, 1])


def test_quadfunc_validation():
    with pytest.raises(InvalidInput):
        QuadFunc.from_dense(3, [1, 0])  # top coefficient zero
    with pytest.raises(InvalidInput):
        QuadFunc.from_terms(build_field_ctx(3, 1), [(1, 2), (1, 1)])  # not increasing
    f = QuadFunc.from_dense(3, [0, 1])  # interior zero dropped
    assert f.alphas == (1,)
    assert f.is_monomial


def test_radical_poly_running_example():
    L = radical_poly(F5_RUNNING)
    assert [c.coeffs[0] for c in L.coeffs] == [1, 4, 3, 2, 2, 2, 3, 4, 1]
    assert L.p_degree == 8 and L.degree == 5**8
    assert L.is_separable()


def test_radical_poly_tower_example():
    L = radical_poly(F3_TOWER)
    assert [c.coeffs[0] for c in L.coeffs] == [1, 2, 2, 2, 2, 2, 2, 2, 1]


def test_radical_poly_pure_square():
    # f = a x^2 has radical polynomial 2a z
    f = QuadFunc.from_dense(3, [2])
    L = radical_poly(f)
    assert len(L.coeffs) == 1 and L.coeffs[0].coeffs[0] == 1  # 2*2 = 4 = 1 mod 3


def test_nullity_at_examples():
    assert nullity_at(F5_RUNNING, 13) == 4
    assert nullity_at(F5_RUNNING, 26) == 8
    assert nullity_at(F5_RUNNING, 1) == 0
    f = QuadFunc.from_dense(3, [2, 1])
    assert nullity_at(f, 1) == 1
    assert nullity_at(f, 3) == 2
    with pytest.raises(NotMultipleOfBase):
        nullity_at(QuadFunc.from_dense(3, [1], n=2), 3)


def test_splitting_exponents():
    assert splitting_exponent(F5_RUNNING) == 26
    assert splitting_exponent(F7_SMALL) == 56
    assert splitting_exponent(F3_TOWER) == 24
    for p in (3, 5, 7):
        assert splitting_exponent(QuadFunc.from_dense(p, [1])) == 1


def test_splitting_exponent_reads_the_checked_profile(monkeypatch):
    # the public helper goes through nullity_profile: its cache and checks
    f = QuadFunc.from_dense(7, [2, 6, 1])
    assert splitting_exponent(f) == nullity_profile(f).s
    hits = nullity_profile.cache_info().hits
    splitting_exponent(f)
    assert nullity_profile.cache_info().hits == hits + 1
    monkeypatch.setattr(nullity, "nullity_at", lambda f, m: 1)
    with pytest.raises(InternalInconsistency, match="the ladder"):
        splitting_exponent(QuadFunc.from_dense(13, [4, 9, 2]))  # not cached elsewhere


@pytest.mark.parametrize("coeffs,s,factors", [
    ([1, 3], (2**63 + 30) // 2, [[2, (2**63 + 30) // 2, 1]]),
    ([1, 5, 7], 3 * (2**63 + 30), [[1, 6, 1], [1, 6, 1], [2, 2**63 + 30, 1]]),
])
def test_profile_past_2_to_the_63(coeffs, s, factors):
    # p = 2^63 + 29, where p - 1 and p + 1 factor at once; l_m against the
    # ladder for m <= 6 and l_s = 2*alpha
    f = QuadFunc.from_dense(2**63 + 29, coeffs)
    prof = nullity_profile.__wrapped__(f)
    assert prof.s == s and prof.to_json_dict()["factors"] == factors
    for m in range(1, 7):
        assert prof.nullity(m) == nullity_at(f, m), m
    assert prof.nullity(prof.s) == 2 * f.top_alpha


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factored_profile_matches_the_reference_at_prime_base(p, rng):
    # random n = 1 functions, plus two whose ell has repeated factors:
    # x^2 + x^(p+1) has ell = (x + 1)^2, x^2 + x^(p^2+1) has (x^2 + 1)^2
    funcs = [_random_func(rng, p, 1, alpha) for alpha in (1, 2, 2, 3)]
    funcs += [QuadFunc.from_dense(p, [1, 1]), QuadFunc.from_dense(p, [1, 0, 1])]
    for f in funcs:
        prof = nullity_profile.__wrapped__(f)
        s, ls = _reference_profile(f)
        assert prof.s == s, f
        for k, l in enumerate(ls, 1):
            assert prof.nullity(k) == l, (f, k)
            if p**k <= 3**10:
                assert l == matrix_kernel_nullity(f, k), (f, k)


def test_profile_gf3_alpha8_past_old_ceiling():
    # s = 6562 = 2 * 17 * 193 lies past the 512*n steps the ladder search
    # once took before giving up
    f = QuadFunc.from_dense(3, [1, 0, 1, 2, 0, 1, 0, 2, 1])
    prof = nullity_profile(f)
    assert prof.s == 6562
    assert prof.entry_dict[3281] == 0 and prof.nullity(3281) == 0
    assert nullity_at(f, 6562) == 16 and nullity_at(f, 3281) == 0


def test_profile_large_prime_past_old_ceiling():
    # x^2 + 3x^(p+1): the associate 3x^2 + 2x + 3 has order (p - 1)/3
    p = 1000003
    prof = nullity_profile(QuadFunc.from_dense(p, [1, 3]))
    assert prof.s == 333334 == (p - 1) // 3
    assert prof.entries == ((1, 0), (2, 0), (166667, 0), (333334, 2))


def test_profile_running_example():
    prof = nullity_profile(F5_RUNNING)
    assert prof.s == 26
    assert prof.entries == ((1, 0), (2, 0), (13, 4), (26, 8))
    # m = 2^a 13^b m*: l = 0 when b=0; 4 when b>=1 and a=0; 8 when b,a >= 1
    for m in range(1, 160):
        b = 0
        mm = m
        while mm % 13 == 0:
            b += 1
            mm //= 13
        a = 0
        while mm % 2 == 0:
            a += 1
            mm //= 2
        want = 0 if b == 0 else (4 if a == 0 else 8)
        assert prof.nullity(m) == want, m


def test_profile_two_exponent_example():
    f = QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)])
    prof = nullity_profile(f)
    assert prof.s == 20
    assert prof.entries == ((1, 0), (2, 0), (4, 2), (5, 0), (10, 0), (20, 6))
    for m in range(1, 100):
        if m % 20 == 0:
            want = 6
        elif m % 4 == 0:
            want = 2
        else:
            want = 0
        assert prof.nullity(m) == want


def test_profile_tower_example():
    prof = nullity_profile(F3_TOWER)
    assert prof.s == 24
    assert dict(prof.entries) == {1: 0, 2: 1, 3: 0, 4: 3, 6: 2, 8: 7, 12: 4, 24: 8}


def test_profile_coherence_random_m(rng):
    for f in (F5_RUNNING, F3_TOWER, F7_SMALL):
        prof = nullity_profile(f)
        for _ in range(200):
            m = rng.randint(1, 4000)
            assert prof.nullity(m) == prof.entry_dict[math.gcd(m, prof.s)]


def test_profile_monotone_on_divisors():
    for f in (F5_RUNNING, F3_TOWER, F7_SMALL, QuadFunc.from_dense(3, [1, 1, 0, 1])):
        prof = nullity_profile(f)
        d = prof.entry_dict
        for m in d:
            for m2 in d:
                if m2 % m == 0:
                    assert d[m] <= d[m2]


def test_matrix_backend_agrees_up_to_30():
    for f in (F3_TOWER, QuadFunc.from_dense(3, [1, 1]), QuadFunc.from_dense(5, [2, 0, 1])):
        for m in range(1, 31):
            assert nullity_at(f, m) == matrix_kernel_nullity(f, m), (f, m)


def test_kernel_is_linear_space_small_field():
    # roots of the radical polynomial inside GF(3^4) form an F_3-space of
    # dimension l_4
    f = QuadFunc.from_dense(3, [0, 1])
    ctx = build_field_ctx(3, 4)
    L = radical_poly(f)
    roots = [x for x in ctx.elements() if L(x).is_zero()]
    assert len(roots) == 3 ** nullity_at(f, 4)
    enc = {r.encoding for r in roots}
    for a in roots:
        for b in roots:
            assert (a + b).encoding in enc
        for c in range(3):
            assert (a * ctx.elem(c)).encoding in enc


def test_profile_json_shape():
    d = nullity_profile(F5_RUNNING).to_json_dict()
    assert d == {
        "p": 5,
        "n": 1,
        "coeffs": [1, 2, 3, 4, 1],
        "s": 26,
        "factors": [[4, 13, 1], [4, 26, 1]],
        "entries": [[1, 0], [2, 0], [13, 4], [26, 8]],
    }


def test_nullity_extension_base():
    # same polynomial viewed over GF(9): nullities at multiples of 2
    ctx9 = build_field_ctx(3, 2)
    f = QuadFunc.from_terms(ctx9, [(ctx9.elem(1), 0), (ctx9.elem(2), 1)])
    assert nullity_at(f, 2) == matrix_kernel_nullity(f, 2)
    assert nullity_at(f, 4) == matrix_kernel_nullity(f, 4)
    prof = nullity_profile(f)
    assert prof.s % 2 == 0
    assert prof.nullity(prof.s) == 2 * f.top_alpha


def test_radical_separability_check_raises(monkeypatch):
    # the check runs inside the memo: a cached L would skip it
    monkeypatch.setattr(nullity.LinearizedPoly, "is_separable", lambda self: False)
    radical_poly.cache_clear()
    with pytest.raises(InternalInconsistency, match="separable"):
        radical_poly(F7_SMALL)


def test_profile_builds_one_radical_polynomial(monkeypatch):
    # the action and the l_n ladder check share one memoized L
    real = nullity.LinearizedPoly
    built = []
    monkeypatch.setattr(nullity, "LinearizedPoly", lambda *args: built.append(args) or real(*args))
    ctx = build_field_ctx(5, 2)
    for f in (QuadFunc.from_dense(7, [3, 1, 4, 1]), QuadFunc.from_terms(ctx, [(ctx.gen(), 0), (ctx.elem(2), 3)])):
        radical_poly.cache_clear()
        built.clear()
        nullity_profile.__wrapped__(f)
        assert len(built) == 1, f


def test_profile_endpoint_check_raises(monkeypatch):
    # A = -I over GF(27) with a kernel that comes out one short, so l_s
    # falls short of 2*alpha; the uncached function runs, so no corrupted
    # profile enters the cache
    monkeypatch.setattr(nullity._Action, "kernels", lambda self, Q, js: [1] * len(js))
    with pytest.raises(InternalInconsistency, match="profile ends at l_6 = 1"):
        nullity_profile.__wrapped__(QuadFunc.from_dense(3, [[0, 0, 1], [0, 2, 1]], n=3))


@pytest.mark.parametrize("given_rows", [False, True])
@pytest.mark.parametrize("f", [F5_RUNNING, QuadFunc.from_dense(3, [[0, 0, 1], [0, 2, 1]], n=3)])
def test_a_directly_built_profile_is_checked(monkeypatch, f, given_rows):
    # NullityProfile runs both end checks itself, with or without given
    # rows (a table row gives them): the l_n ladder, and l_s = 2*alpha on a
    # kernel one short; at n = 1 (cyclic) and for A = -I over GF(27)
    rows = pp.factor_reciprocal(tuple(nullity._Action(f).mu), f.p) if given_rows else None
    assert nullity.NullityProfile(f, rows).entries == nullity_profile(f).entries
    with monkeypatch.context() as patch:
        patch.setattr(nullity, "nullity_at", lambda f, m: -1)
        with pytest.raises(InternalInconsistency, match="the ladder -1"):
            nullity.NullityProfile(f, rows)
    real = nullity._Action.kernels
    monkeypatch.setattr(nullity._Action, "kernels", lambda self, Q, js: [d - 1 for d in real(self, Q, js)])
    with pytest.raises(InternalInconsistency, match=f"profile ends at l_{nullity_profile(f).s} = .*, not 2"):
        nullity.NullityProfile(f, rows)


def test_profile_ladder_cross_check_raises(monkeypatch):
    # l_n from the closed form must equal the ladder's nullity_at(f, n)
    monkeypatch.setattr(nullity, "nullity_at", lambda f, m: 1)
    with pytest.raises(InternalInconsistency, match="the ladder"):
        nullity_profile.__wrapped__(F7_SMALL)


def test_order_check_raises(monkeypatch):
    # the running example's factors are self-reciprocal of degree 4, of
    # orders 13 and 26, searched in 5^2 + 1 = 2 * 13; a factorization of
    # 5^4 - 1 = 2^4 * 3 * 13 that misses 13 leaves 2, which they do not divide
    monkeypatch.setattr(pp, "factor_power_minus_one", lambda p, k: ((2, 4), (3, 1)))
    pp.order.cache_clear()
    try:
        with pytest.raises(InternalInconsistency, match="no order dividing 5\\^2 \\+ 1"):
            nullity_profile.__wrapped__(F5_RUNNING)
    finally:
        pp.order.cache_clear()


def test_factor_order_check_raises():
    # (x + 2)^2 over GF(5) is no irreducible quadratic: modulo it,
    # x^24 = 1 + 24 (-2)^23 (x + 2), not 1
    g = tuple(pp.mul([2, 1], [2, 1], 5))
    with pytest.raises(InternalInconsistency, match="no order dividing 5\\^2 - 1"):
        pp.order(g, 5)


def test_factor_product_check_raises(monkeypatch):
    # a factorization that drops a factor no longer multiplies to mu
    real = pp.factor
    monkeypatch.setattr(pp, "factor", lambda a, p: real(a, p)[1:])
    with pytest.raises(InternalInconsistency, match="do not multiply to mu"):
        nullity_profile.__wrapped__(F5_RUNNING)


# Bases GF(3), GF(5), GF(7), GF(9), GF(25) and GF(27), alpha <= 4: the
# closed form against the skew-gcd ladder at every m = kn <= 64 and against
# the matrix kernel where p^m <= 3^12.
CLOSED_FORM_BASES = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3))


def _random_func(rng, p, n, alpha):
    ctx = build_field_ctx(p, n)
    coeffs = [ctx.elem([rng.randrange(p) for _ in range(n)]) for _ in range(alpha + 1)]
    while coeffs[-1].is_zero():
        coeffs[-1] = ctx.elem([rng.randrange(p) for _ in range(n)])
    return QuadFunc.from_terms(ctx, [(c, j) for j, c in enumerate(coeffs)])


@pytest.mark.parametrize("p,n", CLOSED_FORM_BASES)
def test_closed_form_matches_ladder_and_kernel(rng, p, n):
    for alpha in range(5):
        for _ in range(3 if n == 1 else 2):
            f = _random_func(rng, p, n, alpha)
            prof = nullity_profile.__wrapped__(f)
            assert prof.s % n == 0 and prof.entry_dict[prof.s] == 2 * alpha
            for m in range(n, 65, n):
                assert prof.nullity(m) == nullity_at(f, m), (f, m)
                if p**m <= 3**12:
                    assert prof.nullity(m) == matrix_kernel_nullity(f, m), (f, m)


def test_closed_form_on_special_actions():
    # x^2 + x^(p+1) over GF(3): the associate 1 + 2x + x^2 = (x + 1)^2 is
    # one Jordan block of eigenvalue -1, so s = 2 * 3 and l_2 = 1
    f = QuadFunc.from_dense(3, [1, 1])
    assert nullity_profile.__wrapped__(f).entries == ((1, 0), (2, 1), (3, 0), (6, 2))
    ctx = build_field_ctx(3, 2)
    # over GF(9), x^(p+1) has L = 2(z^(p^2) + z): z -> z^9 is -I on its
    # kernel, which a gcd with the char poly (x + 1)^2 would miss at m = 4
    g = QuadFunc.from_terms(ctx, [(ctx.elem(1), 1)])
    assert nullity_profile.__wrapped__(g).entries == ((2, 0), (4, 2))
    # (0,1) x^(p+1) with (0,1)^2 = -1: L kills GF(9), the action is I
    h = QuadFunc.from_terms(ctx, [(ctx.gen(), 1)])
    assert nullity_profile.__wrapped__(h).entries == ((2, 2),)
    # x^2 + x^(p+1) over GF(9): a Jordan block again, s = 2 * 3
    k = QuadFunc.from_terms(ctx, [(ctx.elem(1), 0), (ctx.elem(1), 1)])
    assert nullity_profile.__wrapped__(k).entries == ((2, 1), (6, 2))
    for func in (g, h, k):
        for m in range(2, 25, 2):
            assert nullity_profile.__wrapped__(func).nullity(m) == nullity_at(func, m)


@pytest.mark.parametrize("p,n", CLOSED_FORM_BASES)
def test_on_demand_nullity_matches_divisor_walk(rng, p, n):
    for alpha in range(5):
        f = _random_func(rng, p, n, alpha)
        prof = nullity_profile.__wrapped__(f)
        for m, l in prof.entries:
            assert prof.nullity(m) == l, (f, m)
        assert [m for m, _ in prof.entries] == [m for m in range(n, prof.s + 1, n) if prof.s % m == 0]


def test_prime_base_action_is_the_companion_matrix():
    # at n = 1 the action is the companion matrix of ell, L's associate made
    # monic: mu is ell made monic and A is cyclic
    p = 7
    f = QuadFunc.from_dense(p, [5, 6, 3])
    ell = [c.coeffs[0] for c in radical_poly(f).coeffs]
    assert ell[-1] != 1
    inv = pow(ell[-1], -1, p)
    act = nullity._Action(f)
    assert act.mu == [c * inv % p for c in ell] == nullity.monic_ell(f)
    assert act.cyclic and act.M is None


def test_profile_answers_without_the_divisor_walk(monkeypatch):
    # each l_m is one power of A; the divisor list is never read
    def no_walk(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(nullity.NullityProfile, "entries", property(no_walk))
    prof = nullity_profile.__wrapped__(F5_RUNNING)
    assert prof.s == 26 and prof.nullity(13) == 4 and prof.nullity(52) == 8
    with pytest.raises(AssertionError, match="entries read"):
        prof.entry_dict


def test_profiles_past_two_to_the_63():
    # numpy makes float64 of a coefficient sequence holding a residue >= 2^63;
    # the Frobenius matrix, Rabin's test and the orders convert exactly
    p = 2**63 + 29
    assert pp.is_irreducible((p - 2, 0, 1), p)
    assert pp.frobenius_matrix((p - 2, 0, 1), p).tolist() == [[1, 0], [0, p - 1]]
    assert pp.order((p - 1, 1), p) == ()
    funcs = [QuadFunc.from_dense(p, c) for c in ([p - 1, 1], [p - 2, 1], [3, p - 2, 1])]
    funcs.append(QuadFunc.from_dense(p, [[1, 0], [1, 1]], n=2))
    funcs.append(QuadFunc.from_dense(p, [[0, 0], [1, 0]], n=2))  # x^(p+1): A = -I, object-dtype kernels
    for f in funcs:
        prof = nullity_profile(f)
        for m in range(f.n, 5, f.n):
            assert prof.nullity(m) == matrix_kernel_nullity(f, m), (f, m)


def _blockwise_action(f):
    # the definition: block (j, i) is mult_mat of the T^j coefficient of
    # T^(n+i) mod L, one fresh right remainder per column
    ctx, n = f.ctx, f.n
    L = list(radical_poly(f).coeffs)
    dim = len(L) - 1
    gen = np.zeros((dim * n, dim * n), dtype=pp.exact_dtype(f.p, dim * n))
    for i in range(dim):
        rem = fieldcore._rrem_elem(ctx, [ctx.zero()] * (n + i) + [ctx.one()], L)
        for j, c in enumerate(rem):
            gen[j * n : (j + 1) * n, i * n : (i + 1) * n] = ctx.mult_mat(c)
    return gen


def _extension_funcs(rng):
    # random n > 1 functions with alpha < 5, and four over GF((2^61 - 1)^2),
    # whose action is object dtype
    funcs = [_random_func(rng, p, n, alpha) for p, n in CLOSED_FORM_BASES if n > 1 for alpha in range(5)]
    big = build_field_ctx(2**61 - 1, 2)
    return funcs + [
        QuadFunc.from_terms(big, [(big.elem([rng.randrange(big.p) for _ in range(2)]), j) for j in range(alpha + 1)])
        for alpha in range(1, 5)
    ]


def test_extension_base_action_matches_blockwise_remainders(rng):
    # M = S^n, S the step matrix of left multiplication by T, against a
    # fresh remainder per column, dtype included
    for f in _extension_funcs(rng):
        M = pp.matpow(nullity._step_matrix(f), f.n, f.p)
        want = _blockwise_action(f)
        assert M.dtype == want.dtype and np.array_equal(M, want), f
    assert f.p == 2**61 - 1 and M.dtype == object


@pytest.mark.parametrize("block", ["frobenius", "reduction"])
def test_a_corrupt_step_matrix_fails_the_commutation_check(rng, monkeypatch, block):
    # one wrong entry in block (1, 0), a copy of F, or in block (0, 2*alpha
    # - 1), the reduction column: M = S^n is no longer GF(p^n)-linear
    real = nullity._step_matrix

    def corrupt(f):
        S, n = real(f).copy(), f.n
        i, j = (n, 0) if block == "frobenius" else (0, len(S) - n)
        S[i, j] = (S[i, j] + 1) % f.p
        return S

    monkeypatch.setattr(nullity, "_step_matrix", corrupt)
    for f in _extension_funcs(rng):
        if f.top_alpha:
            with pytest.raises(InternalInconsistency, match="does not commute"):
                nullity._Action(f)


def test_a_cyclic_action_of_size_324_over_gf27():
    # x^2 + x x^(3^27 + 1) + x^2 x^(3^54 + 1) over GF(27): a 324 x 324 M,
    # deg mu = 108, cyclic
    ctx = build_field_ctx(3, 3)
    f = QuadFunc.from_terms(ctx, [(ctx.one(), 0), (ctx.gen(), 27), (ctx.gen() ** 2, 54)])
    act = nullity._Action(f)
    assert act.cyclic and len(act.mu) == 109 and act.M.shape == (324, 324)
    prof = nullity_profile.__wrapped__(f)
    assert prof.s == 756
    assert [(len(g) - 1, o, e) for g, e, o, _ in prof.factors] == [(6, 28, 9), (6, 14, 9)]


def test_action_builds_without_remainders_at_prime_base(monkeypatch):
    # n = 1 reads mu off ell; n > 1 takes M = S^n, S built from F and the
    # coefficients of L, so neither takes a skew remainder
    assert not hasattr(nullity, "_rrem_elem")
    calls = []
    real = fieldcore._rrem_elem
    monkeypatch.setattr(fieldcore, "_rrem_elem", lambda *a: calls.append("rrem") or real(*a))
    monkeypatch.setattr(fieldcore.FieldCtx, "mult_mat", lambda self, c: calls.append("mult_mat"))
    nullity._Action(F5_RUNNING)
    nullity._Action(QuadFunc.from_dense(3, [1]))  # alpha = 0: a 0 x 0 action
    assert calls == []
    monkeypatch.undo()
    monkeypatch.setattr(fieldcore, "_rrem_elem", lambda *a: calls.append("rrem") or real(*a))
    ctx = build_field_ctx(5, 2)
    nullity._Action(QuadFunc.from_terms(ctx, [(ctx.gen(), 0), (ctx.elem(2), 3)]))
    nullity._Action(QuadFunc.from_terms(ctx, [(ctx.gen(), 0)]))  # alpha = 0: no column step
    assert calls == []


@pytest.mark.parametrize("p,n,alpha", [(7, 1, 2), (2**61 - 1, 1, 2), (5, 2, 2), (2**61 - 1, 2, 1)])
def test_power_matches_repeated_products(rng, p, n, alpha):
    # x^e and g^e modulo the action's mu, the powers behind the orders and
    # the kernels, against one product at a time
    mu = nullity._Action(_random_func(rng, p, n, alpha)).mu
    g = [rng.randrange(p) for _ in range(len(mu) + 2)] + [1]
    for base in ([0, 1], g):
        want = pp.rem([1], mu, p)
        for e in range(21):
            assert pp.powmod(base, e, mu, p) == want, (base, e)
            want = pp.rem(pp.mul(want, base, p), mu, p)


def _dtype_boundary(alpha):
    # the largest prime whose n = 1 action of size 2*alpha is int64, and the
    # next prime, whose action is object dtype
    top = math.isqrt((2**63 - 1) // (2 * alpha)) + 1
    below = next(q for q in range(top, 0, -1) if is_prime(q))
    above = next(q for q in range(top + 1, 2 * top) if is_prime(q))
    assert pp.exact_dtype(below, 2 * alpha) is np.int64 and pp.exact_dtype(above, 2 * alpha) is object
    return [(alpha, below), (alpha, above)]


@pytest.mark.parametrize("alpha,p", _dtype_boundary(1) + _dtype_boundary(2))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_profile_at_the_exact_dtype_boundary(alpha, p, data):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=alpha, max_size=alpha))
    f = QuadFunc.from_dense(p, coeffs + [data.draw(st.integers(1, p - 1))])
    prof = nullity_profile.__wrapped__(f)
    assert prof.nullity(prof.s) == 2 * alpha
    for m in range(1, 5):
        assert prof.nullity(m) == nullity_at(f, m), (coeffs, m)


def _mat_pow(M, e, p):
    out = np.eye(len(M), dtype=M.dtype)
    while e:
        if e & 1:
            out = out @ M % p
        M, e = M @ M % p, e >> 1
    return out


def _reference_profile(f):
    # on the block matrix M by the definition: the order of M found by
    # powers from a multiple of it, and l_(kn) = dim ker(M^k - I) / n, where
    # ker(M^k - I) = ker(M^gcd(k, ord M) - I)
    p, n, dim = f.p, f.n, 2 * f.top_alpha
    M = _blockwise_action(f)
    one = np.eye(len(M), dtype=M.dtype)
    order = math.lcm(*(p**k - 1 for k in range(1, dim + 1))) * p ** math.ceil(math.log(dim, p))
    assert np.array_equal(_mat_pow(M, order, p), one)
    for q in _numtheory.factor(order):
        while order % q == 0 and np.array_equal(_mat_pow(M, order // q, p), one):
            order //= q
    kernels = {}
    for k in range(1, 13):
        g = math.gcd(k, order)
        if g not in kernels:
            kernels[g] = _linalg.kernel_dim((_mat_pow(M, g, p) - one) % p, p)
            assert kernels[g] % n == 0
    return n * order, [kernels[math.gcd(k, order)] // n for k in range(1, 13)]


@pytest.mark.parametrize("p,n,non_cyclic_at_alpha_1", [(3, 2, None), (5, 2, None), (3, 3, 52)])
def test_two_term_profiles_match_the_block_matrix(p, n, non_cyclic_at_alpha_1):
    # every a x^(p^i + 1) + b x^(p^j + 1), i < j <= 2: s and l_(kn), k <= 12,
    # against the reference on M, and against the matrix kernel where
    # p^(kn) <= 3^12
    ctx = build_field_ctx(p, n)
    units = [c for c in ctx.elements() if not c.is_zero()]
    non_cyclic = 0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for a in units:
            for b in units:
                f = QuadFunc.from_terms(ctx, [(a, i), (b, j)])
                prof = nullity_profile.__wrapped__(f)
                s, ls = _reference_profile(f)
                assert prof.s == s, f
                for k, l in enumerate(ls, 1):
                    assert prof.nullity(k * n) == l, (f, k)
                    if p ** (k * n) <= 3**12:
                        assert l == matrix_kernel_nullity(f, k * n), (f, k)
                # deg mu, read off the factors, is below 2*alpha exactly when
                # the action is not cyclic
                cyclic = sum((len(g) - 1) * e for g, e, _, _ in prof.factors) == 2 * f.top_alpha
                assert nullity._Action(f).cyclic == cyclic, f
                non_cyclic += (i, j) == (0, 1) and not cyclic
    if non_cyclic_at_alpha_1 is not None:
        assert non_cyclic == non_cyclic_at_alpha_1


@pytest.mark.parametrize(
    "coeffs,mu,s,entries",
    [([[0, 0, 1], [0, 2, 1]], [1, 1], 6, ((3, 0), (6, 2))), ([[0, 0, 1], [0, 1, 2]], [2, 1], 3, ((3, 2),))],
)
def test_non_cyclic_actions_over_gf27(coeffs, mu, s, entries):
    # A = -I and A = I on a two-dimensional root space: mu = x + 1, x - 1;
    # the action keeps M and no other matrix
    f = QuadFunc.from_dense(3, coeffs, n=3)
    act = nullity._Action(f)
    assert act.mu == mu and act.dim == 2 and not act.cyclic and act.kernels(mu, [1]) == [2]
    assert [k for k, v in vars(act).items() if isinstance(v, np.ndarray)] == ["M"] and act.M.shape == (6, 6)
    prof = nullity_profile.__wrapped__(f)
    assert prof.s == s and prof.entries == entries


def test_corrupted_mu_fails_the_annihilation_check(monkeypatch):
    # mu + 1 sends M to I, not 0
    real = _linalg.krylov_mu
    monkeypatch.setattr(_linalg, "krylov_mu", lambda K, p: [(real(K, p)[0] + 1) % p] + real(K, p)[1:])
    ctx = build_field_ctx(5, 2)
    cyclic = QuadFunc.from_terms(ctx, [(ctx.gen(), 0), (ctx.elem(2), 3)])
    for f in (cyclic, QuadFunc.from_dense(3, [[0, 0, 1], [0, 2, 1]], n=3)):
        with pytest.raises(InternalInconsistency, match="does not annihilate"):
            nullity._Action(f)


def test_profile_splits_a_reciprocal_pair_only_to_list_the_factors(monkeypatch):
    # 2x^2 + 3x^6 + x^126 over GF(5): mu = g g* h with g != g* of order 24
    # listed apart by h; s, entries and the nullities read the pair unsplit
    # (no equal-degree split), the listed factors split it
    f = QuadFunc.from_dense(5, [2, 3, 0, 1])
    mu = tuple(nullity._Action(f).mu)
    want = [(g, e, math.prod(q**v for q, v in pp.order(g, 5))) for g, e in
            sorted(pp.factor(mu, 5), key=lambda ge: (len(ge[0]), ge[0][::-1]))]
    pp.factor.cache_clear()
    real, splits = pp._equal_degree, []
    monkeypatch.setattr(pp, "_equal_degree", lambda *args: splits.append(args) or real(*args))
    prof = nullity_profile.__wrapped__(f)
    assert prof.s == 24 and prof.nullity(48) == 6
    assert prof.entries == ((1, 0), (2, 0), (3, 0), (4, 0), (6, 2), (8, 0), (12, 2), (24, 6))
    assert splits == []
    assert prof.to_json_dict()["factors"] == [[2, 24, 1], [2, 6, 1], [2, 24, 1]]
    assert splits and [(g, e, o) for g, e, o, _ in prof.factors] == want


def test_reciprocal_product_check_raises(monkeypatch):
    # rows of the half factoring that drop a factor no longer multiply to mu
    real = pp.factor_reciprocal
    monkeypatch.setattr(pp, "factor_reciprocal", lambda a, p: real(a, p)[1:])
    with pytest.raises(InternalInconsistency, match="do not multiply to mu"):
        nullity_profile.__wrapped__(F5_RUNNING)


def _stack_nullity(act):
    """y -> dim ker y(A) for a non-cyclic action, deg y < deg mu, by an
    explicit stack M^0, ..., M^(deg mu - 1): dim ker y(M) / n, y(M) one
    tensordot of y with the stack."""
    p, M = act.p, act.M
    powers = [np.eye(len(M), dtype=M.dtype)]
    for _ in range(len(act.mu) - 2):
        powers.append(powers[-1] @ M % p)
    powers = np.array(powers, dtype=M.dtype)

    def nullity_of(y):
        k = _linalg.kernel_dim(np.tensordot(np.array(y, dtype=M.dtype), powers[: len(y)], 1) % p, p)
        assert k % act.n == 0
        return k // act.n

    return nullity_of


def _profile_by_full_factoring(f):
    """(factors, s, entries) by factoring mu whole: each irreducible g with
    its order and kernels dim ker g(A)^min(p^v, e), by the stack for a
    non-cyclic A (y = g^j mod mu), and l_(dn) = dim ker(A^d - I), deg
    gcd(x^d - 1, mu) for a cyclic A."""
    p, act = f.p, nullity._Action(f)
    mu, order, factors = tuple(act.mu), {}, []
    stack_nullity = None if act.cyclic else _stack_nullity(act)
    for g, e in pp.factor(mu, p):
        t = next(t for t in range(e) if p**t >= e)
        js = [min(p**v, e) for v in range(t + 1)]
        kernels = tuple(stack_nullity(pp.powmod(g, j, act.mu, p)) if stack_nullity
                        else (len(g) - 1) * j for j in js)
        fac = pp.order(g, p)
        for q, v in fac + ((p, t),):
            order[q] = max(order.get(q, 0), v)
        factors.append((g, e, math.prod(q**v for q, v in fac), kernels))
    factors.sort(key=lambda row: (len(row[0]), row[0][::-1]))
    ord_a = math.prod(q**v for q, v in order.items())
    entries = []
    for d in (d for d in range(1, ord_a + 1) if ord_a % d == 0):
        y = pp.powmod([0, 1], d, act.mu, p) or [0]
        y = pp.trim([(y[0] - 1) % p] + y[1:])
        ker = stack_nullity(y) if stack_nullity else len(pp.gcd(y, act.mu, p)) - 1
        entries.append((d * f.n, ker))
    return factors, f.n * ord_a, tuple(entries)


@pytest.mark.parametrize("p,n,max_alpha,non_cyclic_anti", [(3, 2, 2, (60, 18)), (3, 3, 1, (52, 26)), (5, 2, 1, (8, 4))])
def test_half_factoring_matches_full_factoring_on_every_small_function(p, n, max_alpha, non_cyclic_anti):
    # every f over GF(9) with alpha <= 2 and over GF(27), GF(25) with
    # alpha <= 1: factors, s and entries agree with factoring mu whole, on
    # the non-cyclic actions and the anti-palindromic mu (mu* = -mu) too;
    # a non-cyclic row's kernels, powers of Q(M), agree with the stack's
    # y(M), y = Q^j mod mu
    ctx = build_field_ctx(p, n)
    elems = list(ctx.elements())
    non_cyclic = anti = 0
    for alpha in range(max_alpha + 1):
        for low in itertools.product(elems, repeat=alpha):
            for top in (c for c in elems if not c.is_zero()):
                f = QuadFunc.from_terms(ctx, [(c, j) for j, c in enumerate(low + (top,))])
                prof = nullity.NullityProfile(f)
                assert (prof.factors, prof.s, prof.entries) == _profile_by_full_factoring(f), f
                act = nullity._Action(f)
                if not act.cyclic:
                    stack_nullity = _stack_nullity(act)
                    for Q, _, e, _, _ in prof._rows:
                        js = [min(p**v, e) for v in range(next(t for t in range(e) if p**t >= e) + 1)]
                        want = [stack_nullity(pp.powmod(Q, j, act.mu, p)) for j in js]
                        assert act.kernels(Q, js) == want, (f, Q)
                non_cyclic += not act.cyclic
                anti += [-c % p for c in act.mu[::-1]] == act.mu
    assert (non_cyclic, anti) == non_cyclic_anti


@pytest.mark.parametrize("coeffs,mu", [([[0, 0, 1], [0, 2, 1]], (1, 1)), ([[0, 0, 1], [0, 1, 2]], (2, 1))])
def test_non_cyclic_actions_take_the_half_factoring(monkeypatch, coeffs, mu):
    # A = -I (mu = x + 1) and A = I (mu = x - 1, anti-palindromic) over
    # GF(27): factor_reciprocal strips x -+ 1, and factor never sees mu
    f = QuadFunc.from_dense(3, coeffs, n=3)
    real, seen, halved = pp.factor, [], []
    real_half = pp.factor_reciprocal
    monkeypatch.setattr(pp, "factor", lambda a, p: seen.append(a) or real(a, p))
    monkeypatch.setattr(pp, "factor_reciprocal", lambda a, p: halved.append(a) or real_half(a, p))
    nullity_profile.__wrapped__(f)
    assert halved == [mu] and mu not in seen


def test_a_mu_that_is_not_its_own_reciprocal_raises(monkeypatch):
    # the reciprocal 2x^2 + x + 1 of x^2 + x + 2 over GF(3) is neither it
    # nor its negative: no symplectic A has it as mu
    real_init = nullity._Action.__init__

    def init(self, f):
        real_init(self, f)
        self.mu = [2, 1, 1]

    monkeypatch.setattr(nullity._Action, "__init__", init)
    with pytest.raises(InternalInconsistency, match="not palindromic"):
        nullity.NullityProfile(QuadFunc.from_dense(3, [1, 1]))


def test_an_odd_kernel_of_a_pair_raises(monkeypatch):
    # over GF(9), mu = (x + 1)(x^4 + 1) is not cyclic, x^4 + 1 a pair g g*;
    # ker Q(A)^j, twice ker g(A)^j, cannot be odd
    f = QuadFunc.from_dense(3, [[0, 0], [1, 1], [0, 0], [1, 1]], n=2)
    prof = nullity_profile.__wrapped__(f)
    assert [(len(g) - 1, o, e) for g, e, o, _ in prof.factors] == [(1, 2, 1), (2, 8, 1), (2, 8, 1)]
    real = nullity._Action.kernels
    monkeypatch.setattr(nullity._Action, "kernels", lambda self, Q, js: [d + 1 for d in real(self, Q, js)])
    with pytest.raises(InternalInconsistency, match="odd dimension"):
        nullity.NullityProfile(f)
