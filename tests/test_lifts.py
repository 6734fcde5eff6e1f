import itertools
import math
import random
from collections import Counter

import pytest

from quadsums import (
    CyclotomicInt,
    ExpSumValue,
    QuadFunc,
    brute_force_sum,
    brute_force_sum_shifted,
    build_field_ctx,
    embed_element,
    gcd_plus_minus,
    gcd_plus_plus,
    legendre,
    lift_odd_prime,
    lift_p,
    lift_p_value,
    lift_two,
    matrix_kernel_nullity,
    monomial_eval,
    multiplicative_order,
    nullity_at,
    nullity_profile,
    radical_poly,
    shift_linear,
    smallest_nonsquare,
    twist,
    type_balanced,
    type_direct,
    valuation,
    verify,
)
from quadsums import lifts, quadform
from quadsums.errors import (
    ConditionViolated,
    InternalInconsistency,
    InvalidInput,
    NotApplicable,
    NotMultipleOfBase,
    ParityViolation,
    ZeroCoefficient,
)
from quadsums.quadform import DEFAULT_CAP
from tests.conftest import random_quadfunc

F5_RUNNING = QuadFunc.from_dense(5, [1, 2, 3, 4, 1])
F3_TOWER = QuadFunc.from_dense(3, [1, 2, 2, 2, 1])
F7_SMALL = QuadFunc.from_dense(7, [5, 6, 1])


def test_valuation_and_order():
    assert valuation(12, 2) == 2
    assert valuation(0, 7) == math.inf
    assert multiplicative_order(5, 13) == 4
    assert multiplicative_order(8, 7) == 1  # p = 1 mod q
    with pytest.raises(InvalidInput):
        multiplicative_order(13, 13)


def test_valuation_rejects_bases_below_two():
    # q = 1 divides everything, so the loop would never end
    for q in (1, 0, -3):
        with pytest.raises(InvalidInput, match="q >= 2"):
            valuation(5, q)
    assert valuation(-18, 3) == 2


def test_gcd_plus_plus_examples():
    assert gcd_plus_plus(3, (1, 3)) == 4
    assert gcd_plus_plus(3, (1, 2)) == 2
    assert gcd_plus_plus(5, (2, 2)) == 26


def test_shared_two_order_matches_the_inline_set_on_small_tuples():
    # the one owner of the balanced condition against the expression it
    # replaced in plan, type_balanced and gcd_plus_plus
    for k in (1, 2, 3):
        for exps in itertools.product(range(9), repeat=k):
            vals = {valuation(a, 2) for a in exps}
            old = next(iter(vals)) if len(vals) == 1 and vals != {math.inf} else None
            assert lifts.shared_two_order(exps) == old, exps


def test_gcd_plus_minus_examples():
    assert gcd_plus_minus(5, 1, 2) == 6
    assert gcd_plus_minus(3, 2, 2) == 2
    assert gcd_plus_minus(3, 0, 1) == 2


def test_gcd_case_split_checks_raise(monkeypatch):
    import quadsums.lifts as lifts

    # a 2-adic valuation that is wrong flips the case split, and the check
    # against the direct gcd must catch it
    monkeypatch.setattr(lifts, "valuation", lambda x, q: -x)
    with pytest.raises(InternalInconsistency, match="case split"):
        gcd_plus_plus(3, (1, 3))  # true value 4, split now says 2
    with pytest.raises(InternalInconsistency, match="case split"):
        gcd_plus_minus(3, 1, 2)  # true value 4, split now says 2


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_gcd_helpers_vs_direct_gcd(p):
    for a in range(13):
        for b in range(13):
            assert gcd_plus_minus(p, a, b) == math.gcd(p**a + 1, p**b - 1)
            assert gcd_plus_plus(p, (a, b)) == math.gcd(p**a + 1, p**b + 1)
    for a in range(0, 13, 2):
        for b in range(1, 13, 3):
            for c in range(13):
                direct = math.gcd(math.gcd(p**a + 1, p**b + 1), p**c + 1)
                assert gcd_plus_plus(p, (a, b, c)) == direct


def test_lift_odd_prime_running_example():
    st = lift_odd_prime(ExpSumValue(5, 1, 0, 1), 13, 1, 4)
    assert (st.N, st.l, st.t) == (13, 4, -1)


def test_lift_odd_prime_identity_at_s0():
    st = ExpSumValue(5, 2, 0, -1)
    assert lift_odd_prime(st, 13, 0, 0) == st
    with pytest.raises(ParityViolation):
        lift_odd_prime(st, 13, 0, 2)


def test_lift_odd_prime_congruence_guards():
    with pytest.raises(ParityViolation):
        lift_odd_prime(ExpSumValue(5, 1, 0, 1), 13, 1, 3)  # odd increment
    with pytest.raises(ParityViolation):
        lift_odd_prime(ExpSumValue(5, 1, 0, 1), 13, 1, 2)  # o_13(5)=4 does not divide 2
    with pytest.raises(InvalidInput):
        lift_odd_prime(ExpSumValue(5, 1, 0, 1), 2, 1, 0)
    with pytest.raises(InvalidInput):
        lift_odd_prime(ExpSumValue(5, 1, 0, 1), 5, 1, 0)


def test_lift_odd_prime_tower_multiplier():
    # t at 2^a*q from t at 2^a picks up (q/3)^(l at 2^a), and the nullity
    # is unchanged for q coprime to the splitting exponent's odd part
    prof = nullity_profile(F3_TOWER)
    for a in (1, 2, 3):
        base_l = prof.nullity(2**a)
        t_base = (-1) ** (a + 1)
        for q in (5, 7):
            st = lift_odd_prime(ExpSumValue(3, 2**a, base_l, t_base), q, 1, prof.nullity(2**a * q))
            assert st.t == (-1) ** (a + 1) * legendre(q, 3)


def test_odd_lift_commutativity():
    prof = nullity_profile(F3_TOWER)
    base = ExpSumValue(3, 1, prof.nullity(1), -1)
    ab = lift_odd_prime(lift_odd_prime(base, 5, 1, prof.nullity(5)), 7, 1, prof.nullity(35))
    ba = lift_odd_prime(lift_odd_prime(base, 7, 1, prof.nullity(7)), 5, 1, prof.nullity(35))
    assert ab == ba


def test_twist_examples():
    assert [c.coeffs[0] for c in twist(F5_RUNNING).dense_coeffs()] == [2, 1, 1, 2, 2]
    assert [c.coeffs[0] for c in twist(F3_TOWER).dense_coeffs()] == [2, 2, 1, 2, 2]
    assert [c.coeffs[0] for c in twist(F7_SMALL).dense_coeffs()] == [1, 3, 3]


def test_double_twist_is_scaling_substitution(rng):
    # with beta fixed, twisting twice equals substituting x -> beta*x
    for f in (F5_RUNNING, F7_SMALL, random_quadfunc(rng, 5)):
        beta = smallest_nonsquare(f.ctx)
        tt = twist(twist(f))
        expected = [(c * beta ** (f.p**a + 1), a) for c, a in f.terms]
        assert list(tt.terms) == expected


def test_twist_takes_no_character_of_the_cached_nonsquare(monkeypatch):
    # once the context holds its nonsquare, twist tests no element again;
    # a caller's beta is still tested
    ctx = build_field_ctx(5, 2)
    f = QuadFunc.from_terms(ctx, [(ctx.from_encoding(7), 0), (ctx.one(), 1)])
    beta = smallest_nonsquare(ctx)
    calls = []
    character = quadform.elem_quadratic_character
    for module in (quadform, lifts):
        monkeypatch.setattr(module, "elem_quadratic_character", lambda a: calls.append(a) or character(a))
    ft = twist(f)
    assert calls == []
    assert twist(f, beta) == ft and calls == [beta]
    for y in (ctx.one(), ctx.from_encoding(7)):
        with pytest.raises(InvalidInput, match="nonsquare"):
            twist(f, y * y)
    with pytest.raises(InvalidInput, match="coefficient field"):
        twist(f, smallest_nonsquare(build_field_ctx(5, 3)))  # GF(5^3) holds no GF(5^2)


def test_lift_two_examples():
    prof = nullity_profile(F5_RUNNING)
    for a in (1, 2, 3):
        st = lift_two(ExpSumValue(5, 1, 0, 1), ExpSumValue(5, 1, 0, -1), a, prof.nullity(2**a))
        assert st.t == -1
    prof3 = nullity_profile(F3_TOWER)
    for a in (1, 2, 3):
        st = lift_two(ExpSumValue(3, 1, 0, -1), ExpSumValue(3, 1, 1, 1), a, prof3.nullity(2**a))
        assert st.t == (-1) ** (a + 1)
    prof7 = nullity_profile(F7_SMALL)
    for a in (1, 2):
        st = lift_two(ExpSumValue(7, 1, 0, -1), ExpSumValue(7, 1, 1, 1), a, prof7.nullity(2**a))
        assert st.t == -1


def test_lift_two_beta_independence(rng):
    # the two-power lift must not depend on which nonsquare twists f
    for f in (F5_RUNNING, F7_SMALL):
        p = f.p
        prof = nullity_profile(f)
        t1, l1 = type_direct(f, 1)
        nonsquares = [
            f.ctx.from_encoding(c)
            for c in range(1, p)
            if legendre(c, p) == -1
        ]
        results = set()
        for beta in nonsquares:
            ft = twist(f, beta)
            tt, lt = type_direct(ft, 1)
            st = lift_two(ExpSumValue(p, 1, l1, t1), ExpSumValue(p, 1, lt, tt), 2, prof.nullity(4))
            results.add(st.t)
        assert len(results) == 1


def _twist_cases():
    """Every f with alpha <= 2 and top coefficient 1 over GF(3), GF(5) and
    GF(7), and every f with alpha <= 1 over GF(9)."""
    for p in (3, 5, 7):
        for alpha in range(3):
            for low in itertools.product(range(p), repeat=alpha):
                yield QuadFunc.from_dense(p, list(low) + [1])
    ctx = build_field_ctx(3, 2)
    for top in range(1, 9):
        yield QuadFunc.from_terms(ctx, [(ctx.from_encoding(top), 0)])
        for c0 in range(9):
            yield QuadFunc.from_terms(ctx, [(ctx.from_encoding(c0), 0), (ctx.from_encoding(top), 1)])


def test_twist_nullity_is_l2N_minus_lN():
    # l_N(f~) = l_2N(f) - l_N(f), at N in {n, 2n, 3n} with p^(2N) <= 3^12
    checked = 0
    for f in _twist_cases():
        prof = nullity_profile(f)
        for k in (1, 2, 3):
            N = k * f.n
            if f.p ** (2 * N) > 3**12:
                continue
            ft = twist(f, smallest_nonsquare(build_field_ctx(f.p, N)))
            l_twist = type_direct(ft, 1)[1]
            assert l_twist == prof.nullity(2 * N) - prof.nullity(N), (f, N)
            assert l_twist == matrix_kernel_nullity(ft, N), (f, N)
            checked += 1
    assert checked == 3 * (13 + 31 + 57 + 80)


def test_lift_two_parity_guard():
    from quadsums.errors import InternalInconsistency

    with pytest.raises(InternalInconsistency):
        lift_two(ExpSumValue(3, 1, 0, 1), ExpSumValue(3, 1, 0, 1), 1, 1)


def test_lift_p_table_row():
    f = QuadFunc.from_dense(3, [0, 0, 0, 1])  # x^(3^3+1)
    t1, l1 = type_direct(f, 1)
    st = lift_p(ExpSumValue(3, 1, l1, t1), 1, nullity_profile(f).nullity)
    assert (st.N, st.l, st.t) == (3, 0, t1)
    assert brute_force_sum(f, 3) == ExpSumValue(3, 3, st.l, st.t).to_cyclotomic()


def test_lift_p_identity_and_condition():
    # 2x^2 + x^4 over GF(3): l = 1, 2, 2, 2 at 1, 3, 9, 27
    f = QuadFunc.from_dense(3, [2, 1])
    l = nullity_profile(f).nullity
    t1, l1 = type_direct(f, 1)
    st = ExpSumValue(3, 1, l1, t1)
    assert lift_p(st, 0, l) == st
    with pytest.raises(ConditionViolated):
        lift_p(st, 1, l)  # l_1 < l_3 < 3 l_1
    assert type_direct(f, 3)[0] != t1  # and the type does change there
    t3, l3 = type_direct(f, 3)
    st27 = lift_p(ExpSumValue(3, 3, l3, t3), 2, l)  # l_27 = l_9 = l_3 = 2
    assert (st27.N, st27.l, st27.t) == (27, 2, t3)
    assert type_direct(f, 9) == (t3, 2)
    assert nullity_at(f, 27) == 2
    # the twist of x^2 + x^28: l = 1, 3, 6 at 1, 3, 9, a free step and then
    # one strictly between
    ft = twist(QuadFunc.from_dense(3, [1, 0, 0, 1]))
    lt = nullity_profile(ft).nullity
    t1, l1 = type_direct(ft, 1)
    st3 = lift_p(ExpSumValue(3, 1, l1, t1), 1, lt)
    assert (st3.N, st3.l, st3.t) == (3, 3 * l1, t1)
    assert type_direct(ft, 3) == (t1, 3 * l1)
    assert nullity_at(ft, 3) == 3 * l1
    with pytest.raises(ConditionViolated):
        lift_p(ExpSumValue(3, 1, l1, t1), 2, lt)  # l_3 = 3 < l_9 = 6 < 9


def _every_small_function():
    """Every f over GF(3) and GF(5) with alpha <= 3 and over GF(9) with
    alpha <= 2, then 200 seeded ones over GF(9) with alpha = 3."""
    for p, n, top in ((3, 1, 3), (5, 1, 3), (3, 2, 2)):
        elems = list(build_field_ctx(p, n).elements())
        for alpha in range(top + 1):
            for lower in itertools.product(elems, repeat=alpha):
                for lead in elems[1:]:
                    yield QuadFunc.from_terms(lead.ctx, [(c, a) for a, c in enumerate(lower + (lead,))])
    rng = random.Random("p-power steps")
    ctx = build_field_ctx(3, 2)
    for _ in range(200):
        coeffs = [ctx.from_encoding(rng.randrange(9)) for _ in range(3)] + [ctx.from_encoding(rng.randrange(1, 9))]
        yield QuadFunc.from_terms(ctx, [(c, a) for a, c in enumerate(coeffs)])


def test_p_power_steps_keep_the_type_exactly_where_lift_p_accepts():
    # every step N -> pN, N = n p^j, with p^pN <= DEFAULT_CAP, for f and its
    # twist (nullity l_2N - l_N): where l_pN is l_N or p l_N, the type at pN
    # on the default field is the one at N and verify agrees; elsewhere
    # lift_p refuses.  A step the old valuation bound allowed (min
    # nu_p(alpha_i) > nu_p(N)) is always one the rule allows.
    kinds = Counter()
    for f in _every_small_function():
        p, n = f.p, f.n
        prof = nullity_profile(f)
        for g, l in ((f, prof.nullity), (twist(f), lambda N: prof.nullity(2 * N) - prof.nullity(N))):
            N = n
            while p ** (p * N) <= DEFAULT_CAP:
                t, l_N = type_direct(g, N // n)
                assert l_N == l(N), (g, N)
                l_pN = l(p * N)
                kind = "equal" if l_pN == l_N else "free" if l_pN == p * l_N else "between"
                kinds[kind] += 1
                if min(valuation(a, p) for a in f.alphas) > valuation(N, p):
                    assert kind != "between", (g, N)
                v = ExpSumValue(p, N, l_N, t)
                if kind == "between":
                    with pytest.raises(ConditionViolated):
                        lift_p(v, 1, l)
                else:
                    w = lift_p(v, 1, l)
                    assert type_direct(g, p * N // n) == (w.t, w.l) == (t, l_pN), (g, N)
                    assert verify(g, p * N // n).equal, (g, N)
                N *= p
    assert all(kinds[k] for k in ("equal", "free", "between")), kinds


def test_lifts_append_exactly_one_provenance_entry():
    def items(v):
        return [list(e.items()) for e in v.provenance]

    base = ExpSumValue(5, 1, 0, 1).record("direct_diagonalization")
    odd = lift_odd_prime(base, 13, 1, 4)
    assert items(odd) == items(base) + [
        [("step", "odd_prime_lift"), ("q", 13), ("power", 1), ("N", 13), ("t", -1), ("l", 4)]
    ]
    two = lift_two(base, ExpSumValue(5, 1, 0, -1), 1, 0)
    assert items(two) == items(base) + [
        [("step", "two_power_lift"), ("height", 1), ("twist_t", -1), ("twist_l", 0), ("N", 2), ("t", -1), ("l", 0)]
    ]
    f0 = QuadFunc.from_dense(3, [1, 0, 0, 1])  # exponents (0, 3)
    t1, l1 = type_direct(f0, 1)
    base3 = ExpSumValue(3, 1, l1, t1).record("direct_diagonalization")
    lifted = lift_p(base3, 1, nullity_profile(f0).nullity)
    assert items(lifted) == items(base3) + [
        [("step", "p_power_lift"), ("count", 1), ("N", 3), ("t", t1), ("l", 3 * l1)]
    ]
    # zero-step lifts return the input itself, provenance included
    assert lift_odd_prime(base, 13, 0, base.l) is base
    assert lift_p(base3, 0, nullity_profile(f0).nullity) is base3


def test_lift_p_value_identity_on_applicable_rows():
    for p, coeffs in [(3, [1]), (3, [0, 0, 0, 1]), (3, [1, 0, 0, 1]), (3, [2, 0, 0, 1]), (5, [1])]:
        f = QuadFunc.from_dense(p, coeffs)
        t1, l1 = type_direct(f, 1)
        v1 = ExpSumValue(p, 1, l1, t1)
        assert lift_p_value(v1) == brute_force_sum(f, p)


def test_type_balanced_examples():
    f75 = QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)])
    prof = nullity_profile(f75)
    for N in (2, 4, 6, 8):
        assert type_balanced(f75, N, prof.nullity(N)) == -1
    # p = 3 mod 4, all exponents odd, N even: type +1
    f34 = QuadFunc.from_dense(3, [0, 1])
    assert type_balanced(f34, 2, nullity_at(f34, 2)) == 1
    assert type_balanced(QuadFunc.from_terms(build_field_ctx(5, 1), [(1, 1), (1, 3)]), 2, 0) == -1
    with pytest.raises(NotApplicable):
        type_balanced(QuadFunc.from_dense(3, [1, 1]), 2, 0)  # mixed 2-adic orders
    with pytest.raises(NotApplicable):
        type_balanced(f75, 3, 0)  # odd N


def test_type_balanced_agrees_with_direct(rng):
    checked = 0
    for _ in range(40):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        vals = {valuation(a, 2) for a in f.alphas}
        if len(vals) != 1 or vals == {math.inf}:
            continue
        nu = vals.pop()
        N = 2 ** (nu + 1)
        if N > 8:
            continue
        l = nullity_at(f, N)
        t_direct, _ = type_direct(f, N)
        assert type_balanced(f, N, l) == t_direct
        checked += 1
    assert checked >= 5


def test_monomial_examples():
    c3 = build_field_ctx(3, 1)
    v = monomial_eval(c3.elem(1), 0, 1)
    assert (v.N, v.l, v.t) == (1, 0, 1)  # g_3
    c34 = build_field_ctx(3, 4)
    v = monomial_eval(c34.elem(1), 1, 4)
    assert v.to_cyclotomic().as_int() == -27
    assert v.provenance[0]["case"] == "iii"
    c52 = build_field_ctx(5, 2)
    hits = 0
    for code in range(1, 25):
        a = c52.from_encoding(code)
        if a**4 == -c52.one():
            vv = monomial_eval(a, 1, 2)
            assert vv.to_cyclotomic().as_int() == 25
            assert vv.provenance[0]["case"] == "ii"
            hits += 1
    assert hits > 0
    with pytest.raises(ZeroCoefficient):
        monomial_eval(c3.zero(), 1, 1)


def test_shift_examples():
    c5 = build_field_ctx(5, 1)
    f = QuadFunc.from_dense(5, [1])
    sh = shift_linear(f, c5.elem(1), 1, ExpSumValue(5, 1, 0, 1))
    assert not sh.zero and sh.phase == 4
    assert sh.to_cyclotomic() == brute_force_sum_shifted(f, 1, 1)
    # b = 0: phase 0, value unchanged
    sh0 = shift_linear(f, c5.zero(), 1, ExpSumValue(5, 1, 0, 1))
    assert not sh0.zero and sh0.phase == 0
    # vanishing case
    f21 = QuadFunc.from_dense(3, [2, 1])
    shz = shift_linear(f21, build_field_ctx(3, 1).elem(1), 1, ExpSumValue(3, 1, 1, 1))
    assert shz.zero
    assert brute_force_sum_shifted(f21, 1, 1).is_zero()


@pytest.mark.parametrize("N", [0, -2, 3])
def test_shift_rejects_a_degree_that_is_not_a_positive_multiple_of_the_base(N):
    f = QuadFunc.from_dense(3, [[1, 1], [0, 1]], n=2)
    b = build_field_ctx(3, 2).elem(1)
    with pytest.raises(NotMultipleOfBase):
        shift_linear(f, b, N, ExpSumValue(3, 2, 0, 1))


def test_shift_matches_brute_random(rng):
    zeros = 0
    for _ in range(60):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        N = rng.randint(1, 4)
        ctx = build_field_ctx(p, N)
        b = ctx.from_encoding(rng.randrange(ctx.order))
        t, l = type_direct(f, N)
        sh = shift_linear(f, b, N, ExpSumValue(p, N, l, t))
        assert sh.to_cyclotomic() == brute_force_sum_shifted(f, b, N)
        zeros += sh.zero
    assert zeros > 0


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1, 2**63 + 29])
def test_shift_exact_at_large_prime(p, rng):
    # f = x^2 + x^(p+1) has a one-dimensional radical over GF(p^2), so the
    # radical map L has rank 1: b^p in the image of L gives the phase
    # Tr(f(y)) of any preimage y, any other b gives zero
    f = QuadFunc.from_dense(p, [1, 1])
    ctx = build_field_ctx(p, 2)
    L = radical_poly(f)
    value = ExpSumValue(p, 2, 1, 1)
    y = ctx.from_encoding(rng.randrange(ctx.order))
    sh = shift_linear(f, L(y).frobenius(1), 2, value)
    assert not sh.zero
    assert sh.phase == (y ** 2 + y ** (p + 1)).trace()
    w = L(ctx.one())
    r = ctx.from_encoding(rng.randrange(ctx.order))
    assert not w.is_zero() and (w.coeffs[0] * r.coeffs[1] - w.coeffs[1] * r.coeffs[0]) % p
    assert shift_linear(f, r.frobenius(1), 2, value).zero


def test_shift_phase_reads_no_conjugate_sums(monkeypatch):
    # the phase comes from the trace form (Newton's identities); the
    # conjugate sums of basis_traces are left to the oracle
    p, N = 3, 9
    f = QuadFunc.from_dense(p, [1, 1])
    ctx = build_field_ctx(p, N)
    y = ctx.from_encoding(4321)
    want = (y ** 2 + y ** (p + 1)).trace()

    def no_conjugate_sums(self):
        raise AssertionError("basis_traces read")

    monkeypatch.setattr(type(ctx), "basis_traces", no_conjugate_sums)
    b = radical_poly(f)(y).frobenius(N - f.top_alpha)
    sh = shift_linear(f, b, N, ExpSumValue(p, N, 0, 1))
    assert not sh.zero and sh.phase == want


def test_product_identity_shifted(rng):
    # S(f,N) * conj(S(f+bx,N)) is p^(N+l) * zeta^(Tr f(x0)) or 0
    for _ in range(25):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        N = rng.randint(1, 3)
        ctx = build_field_ctx(p, N)
        b = ctx.from_encoding(rng.randrange(ctx.order))
        S = brute_force_sum(f, N)
        Sb = brute_force_sum_shifted(f, b, N)
        t, l = type_direct(f, N)
        sh = shift_linear(f, b, N, ExpSumValue(p, N, l, t))
        prod = S * Sb.conj()
        if sh.zero:
            assert prod.is_zero()
        else:
            expected = CyclotomicInt.zeta_power(p, sh.phase) * (p ** (N + l))
            assert prod == expected


def test_monomial_subfield_matches_embedded():
    # a in GF(p^d), d | N: the closed form in the subfield equals the one
    # on a embedded in GF(p^N), for all three cases
    rng = random.Random(11)
    cases = set()
    for p, d, N_max in ((3, 1, 12), (3, 2, 12), (3, 3, 12), (5, 1, 8), (5, 2, 8), (7, 2, 6), (7, 3, 6), (11, 2, 6)):
        sub = build_field_ctx(p, d)
        for N in range(d, N_max + 1, d):
            big = build_field_ctx(p, N)
            for _ in range(6):
                a = sub.from_encoding(rng.randrange(1, sub.order))
                alpha = rng.randrange(5)
                v = monomial_eval(a, alpha, N)
                w = monomial_eval(embed_element(sub, big, a), alpha, N)
                assert (v.N, v.l, v.t, v.provenance) == (w.N, w.l, w.t, w.provenance), (p, d, N, a, alpha)
                cases.add(v.provenance[0]["case"])
    assert cases == {"i", "ii", "iii"}
    with pytest.raises(InvalidInput):
        monomial_eval(build_field_ctx(3, 2).gen(), 1, 3)
    with pytest.raises(InvalidInput):
        monomial_eval(build_field_ctx(3, 1).one(), 1, 0)
