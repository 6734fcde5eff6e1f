import random
import re
from dataclasses import replace

import pytest

from quadsums import (
    ExpSumValue,
    NullityProfile,
    QuadFunc,
    build_field_ctx,
    evaluate,
    matrix_kernel_nullity,
    nullity_profile,
    plan,
    twist,
    type_direct,
    verify,
)
from quadsums import evaluator
from quadsums.fieldcore import direct_field
from quadsums.errors import ConditionViolated, InvalidInput, TooLarge, Unsupported
from quadsums.lifts import lift_p
from quadsums.quadform import DEFAULT_CAP
from tests.conftest import random_quadfunc

F5_RUNNING = QuadFunc.from_dense(5, [1, 2, 3, 4, 1])


def test_plan_running_example():
    steps = plan(F5_RUNNING, 26).steps
    assert steps == (("direct", 1), ("two_power_lift", 1), ("odd_prime_lift", 13, 1))


def test_plan_monomial():
    f = QuadFunc.from_dense(3, [0, 1])
    for m in (1, 6, 90):
        assert plan(f, m).steps == (("monomial",),)


def test_plan_balanced():
    f = QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)])
    assert plan(f, 4).steps == (("balanced",),)
    # odd target: falls back to composition
    assert plan(f, 3).steps[0][0] == "direct"


def test_plan_p_power_fallback():
    # exponents (0,1): no p-power lift; base 3^c must stay within the limit
    f = QuadFunc.from_dense(3, [1, 1])
    assert plan(f, 3).steps == (("direct", 3),)
    with pytest.raises(Unsupported) as ei:
        plan(f, 3**6)
    assert ei.value.reason == "p_power_base_too_large"


def test_plan_p_power_lift_applies():
    f = QuadFunc.from_dense(3, [1, 0, 0, 1])  # exponents (0, 3)
    assert plan(f, 3).steps == (("direct", 1), ("p_power_lift", 1))
    assert plan(f, 9).steps == (("direct", 9),)  # second step fails the order test


@pytest.mark.parametrize("p", [3, 5])
def test_plan_takes_the_p_power_lift_exactly_when_lift_p_accepts(p):
    # min nu_p(alpha_i) from 0 to 3 (alpha = 0 counts as infinite), odd N so
    # no balanced route, nu_p(n) from 0 to 1 and nu_p(m) from 0 to 4
    for alphas in ((0, 1), (1, 2), (0, p), (p, 2 * p), (0, p * p), (p**3, 2 * p**3)):
        for n in (1, p):
            f = QuadFunc.from_terms(build_field_ctx(p, n), [(1, a) for a in alphas])
            for c in range(5):
                try:
                    takes = ("p_power_lift", c) in plan(f, p**c).steps
                except Unsupported:
                    takes = False
                try:
                    accepts = lift_p(ExpSumValue(p, n, 0, 1), f, c).N == n * p**c
                except ConditionViolated:
                    accepts = False
                assert takes == (c > 0 and accepts), (p, alphas, n, c)


def test_plan_rejects_bad_m():
    with pytest.raises(InvalidInput):
        plan(F5_RUNNING, 0)


def test_evaluate_running_example():
    want = {1: (1, 0), 2: (-1, 0), 4: (-1, 0), 13: (-1, 4), 26: (-1, 8)}
    for m, (t, l) in want.items():
        v = evaluate(F5_RUNNING, m)
        assert (v.t, v.l) == (t, l), m
    assert evaluate(F5_RUNNING, 13).exact_str() == "-g^9*p^4"


def test_evaluate_never_lists_the_divisors(monkeypatch):
    # every nullity evaluate needs is one power of the profile's action
    ctx = build_field_ctx(3, 2)
    tower = QuadFunc.from_terms(ctx, [(ctx.elem([1, 1]), 0), (ctx.elem([0, 1]), 1), (ctx.one(), 2)])
    want = {m: evaluate(tower, m) for m in (1, 2, 6, 12)}

    def no_walk(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(NullityProfile, "entries", property(no_walk))
    nullity_profile.cache_clear()
    assert evaluate(F5_RUNNING, 13).exact_str() == "-g^9*p^4"
    for m, v in want.items():
        got = evaluate(tower, m)
        assert (got.N, got.l, got.t) == (v.N, v.l, v.t), m


@pytest.mark.parametrize("coeffs", [[1, 5, 7, 1], [1, 5, 7, 9, 1], [1, 5, 1]])
def test_evaluate_where_s_has_many_divisors(coeffs):
    # p - 1 = 2 3^2 5^2 7 11 13 31 41 61 151 331 1321 is smooth, so s has up
    # to 761,856 divisors; evaluate reads only the few nullities it needs
    f = QuadFunc.from_dense(2**61 - 1, coeffs)
    v = evaluate(f, 2)
    assert v.exact_str() == "g^2"
    assert type_direct(f, 2) == (v.t, v.l)
    assert matrix_kernel_nullity(f, 2) == v.l


def test_evaluate_base_cases():
    v = evaluate(QuadFunc.from_dense(3, [2]), 1)
    assert (v.N, v.l, v.t) == (1, 0, -1)


def test_evaluate_provenance_is_auditable():
    v = evaluate(F5_RUNNING, 26)
    steps = [s["step"] for s in v.provenance]
    assert steps == ["direct_diagonalization", "two_power_lift", "odd_prime_lift"]
    assert v.provenance[-1]["q"] == 13


F3_MONOMIAL = QuadFunc.from_dense(3, [0, 1])  # x^(p+1)
DIRECT = ("step", "direct_diagonalization")


@pytest.mark.parametrize("f, m, expected", [
    (F3_MONOMIAL, 1, [[("step", "monomial_closed_form"), ("case", "i"), ("N", 1), ("t", 1), ("l", 0)]]),
    (F3_MONOMIAL, 2, [[("step", "monomial_closed_form"), ("case", "ii"), ("N", 2), ("t", 1), ("l", 0)]]),
    (F3_MONOMIAL, 4, [[("step", "monomial_closed_form"), ("case", "iii"), ("N", 4), ("t", 1), ("l", 2)]]),
    (QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)]), 4, [
        [("step", "balanced_explicit_form"), ("N", 4), ("t", -1), ("l", 2)],
        [("step", "composition_cross_check"), ("t", -1)],
    ]),
    (QuadFunc.from_dense(3, [[1, 0], 0, 0, [0, 1]], 2), 3, [  # exponents (0, 3) over GF(3^2)
        [DIRECT, ("N", 2), ("t", -1), ("l", 0)],
        [("step", "p_power_lift"), ("count", 1), ("N", 6), ("t", -1), ("l", 0)],
    ]),
    (F5_RUNNING, 26, [
        [DIRECT, ("N", 1), ("t", 1), ("l", 0)],
        [("step", "two_power_lift"), ("height", 1), ("twist_t", -1), ("twist_l", 0), ("N", 2), ("t", -1), ("l", 0)],
        [("step", "odd_prime_lift"), ("q", 13), ("power", 1), ("N", 26), ("t", -1), ("l", 8)],
    ]),
    (QuadFunc.from_dense(3, [1, 1]), 3, [[DIRECT, ("N", 3), ("t", -1), ("l", 0)]]),  # direct base n * p^c
])
def test_provenance_golden(f, m, expected):
    # every entry, key order included, as the CLI's JSON prints it
    assert [list(e.items()) for e in evaluate(f, m).provenance] == expected


def _off_by_one(real):
    def corrupt(*args):
        v = real(*args)
        return replace(v, l=v.l - 1 if v.l else 1)

    return corrupt


@pytest.mark.parametrize("name, f, m, reached", [
    ("monomial_eval", F3_MONOMIAL, 4, "(4, 1), profile gives (4, 2)"),
    ("lift_p", QuadFunc.from_dense(3, [1, 0, 0, 1]), 3, "(3, 1), profile gives (3, 0)"),
    ("lift_two", F5_RUNNING, 2, "(2, 1), profile gives (2, 0)"),
    ("lift_odd_prime", F5_RUNNING, 26, "(26, 7), profile gives (26, 8)"),
])
def test_final_nullity_check_raises(monkeypatch, name, f, m, reached):
    # the last step of the route returns a wrong l: the one check of the
    # reached (N, l) against the profile catches it
    from quadsums.errors import InternalInconsistency

    monkeypatch.setattr(evaluator, name, _off_by_one(getattr(evaluator, name)))
    with pytest.raises(InternalInconsistency, match=re.escape(f"route reached (N, l) = {reached}")):
        evaluate(f, m)


def test_verify_examples():
    assert verify(QuadFunc.from_dense(3, [1, 2, 2, 2, 1]), 1).equal
    rep = verify(QuadFunc.from_dense(3, [1, 1]), 2)
    assert rep.equal and rep.value.l == 1


def test_verify_at_large_prime():
    # Z[zeta_p] has p - 1 coordinates here; the closed form must cost O(p)
    assert verify(QuadFunc.from_dense(1000003, [654321]), 1).equal


def test_verify_random_sweep(rng):
    for _ in range(30):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        m = rng.randint(1, 5)
        assert verify(f, m).equal, (p, f, m)


def test_route_independence_balanced_vs_composition(rng):
    # evaluate() already cross-checks internally below the limit; exercise a
    # spread of balanced instances explicitly
    import math

    from quadsums import type_balanced
    from quadsums.evaluator import _composition_plan, _run
    from quadsums.lifts import valuation

    checked = 0
    for _ in range(60):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        vals = {valuation(a, 2) for a in f.alphas}
        if len(vals) != 1 or vals == {math.inf}:
            continue
        nu = vals.pop()
        m = 2 ** (nu + 1) * rng.choice([1, 3])
        if m > 24:
            continue
        prof = nullity_profile(f)
        t_bal = type_balanced(f, m, prof.nullity(m))
        composed = _run(f, _composition_plan(f, m), prof)
        assert (composed.t, composed.l) == (t_bal, prof.nullity(m))
        checked += 1
    assert checked >= 5


def test_norm_invariant_on_outputs(rng):
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        f = random_quadfunc(rng, p)
        m = rng.randint(1, 6)
        v = evaluate(f, m)
        c = v.to_cyclotomic()
        assert (c * c.conj()).as_int() == p ** (v.N + v.l)


def test_evaluate_commutes_with_odd_lift_order(rng):
    # composite square-free odd m: explicit reversed-order composition
    from quadsums import lift_odd_prime, type_direct

    for f in (QuadFunc.from_dense(3, [1, 2, 2, 2, 1]), QuadFunc.from_dense(5, [1, 2, 3, 4, 1])):
        p = f.p
        qs = [q for q in (5, 7, 11, 13) if q != p][:2]
        m = qs[0] * qs[1]
        prof = nullity_profile(f)
        v = evaluate(f, m)
        t0, l0 = type_direct(f, 1)
        st = ExpSumValue(p, 1, l0, t0)
        for q in reversed(qs):
            st = lift_odd_prime(st, q, 1, prof.nullity(st.N * q))
        assert (st.t, st.l) == (v.t, v.l)


def test_direct_nullity_check_raises(monkeypatch):
    from quadsums import evaluator
    from quadsums.errors import InternalInconsistency

    real = evaluator.type_direct
    monkeypatch.setattr(evaluator, "type_direct", lambda g, m, ctx: (real(g, m, ctx)[0], real(g, m, ctx)[1] + 1))
    with pytest.raises(InternalInconsistency, match="diagonalization nullity 1 != profile nullity 0 at N=1"):
        evaluate(F5_RUNNING, 13)


def test_twist_nullity_check_raises(monkeypatch):
    from quadsums import evaluator
    from quadsums.errors import InternalInconsistency

    real = evaluator.type_direct

    def corrupt_twist(g, m, ctx):
        t, l = real(g, m, ctx)
        return (t, l) if g is F5_RUNNING else (t, l + 1)

    monkeypatch.setattr(evaluator, "type_direct", corrupt_twist)
    with pytest.raises(InternalInconsistency, match="twist diagonalization nullity 1 != l_2N - l_N = 0 at N=1"):
        evaluate(F5_RUNNING, 2)


def test_monomial_route_builds_no_field(monkeypatch):
    # the closed form runs on the coefficient's own field, so m = 10^18 is
    # answered without GF(p^N)
    f3 = QuadFunc.from_dense(3, [0, 1])  # x^(p+1)
    f25 = QuadFunc.from_dense(5, [(0, 0), (2, 1)], 2)

    def no_build(*args):
        raise AssertionError(f"built GF({args[0]}^{args[1]})")

    monkeypatch.setattr("quadsums.evaluator.direct_field", lambda base, N: no_build(base.p, N))
    # case iii with a = 1: l = gcd(2, N) = 2 and t = -(-1)^((N - 2)/2) = +1
    for m in (3000, 10**18):
        v = evaluate(f3, m)
        assert (v.N, v.l, v.t) == (m, 2, 1)
        assert v.provenance[0]["case"] == "iii"
    v = evaluate(f25, 10**18)
    assert v.N == 2 * 10**18 and v.l == nullity_profile(f25).nullity(v.N)


def test_verify_checks_enumeration_budget_before_evaluating(monkeypatch):
    # GF(3^243) is past the cap: verify must refuse before building it for
    # the closed form
    def no_evaluate(*args):
        raise AssertionError("verify evaluated an input past the enumeration budget")

    monkeypatch.setattr(evaluator, "evaluate", no_evaluate)
    f = QuadFunc.from_dense(3, [1, 1])
    with pytest.raises(TooLarge, match="exceeds cap"):
        verify(f, 243)
    with pytest.raises(TooLarge, match="exceeds cap"):
        verify(f, 3, cap=26)
    with pytest.raises(TooLarge, match="float64"):
        verify(QuadFunc.from_dense(100000007, [1]), 1, cap=10**9)
    monkeypatch.undo()
    with pytest.raises(InvalidInput):
        verify(f, 0)


# Every (p, n, c) with p in {3, 5, 7}, n <= 3, c >= 1 and n * p^c <= 81.
TOWER_GRID = [(p, n, c) for p in (3, 5, 7) for n in (1, 2, 3) for c in range(1, 5) if n * p**c <= 81]


@pytest.mark.parametrize("p,n,c", TOWER_GRID)
def test_tower_base_types_match_the_default_field(p, n, c):
    # the type and nullity of Tr_N(f) depend on no modulus or embedding
    # root; where GF(p^N) is small enough to enumerate, verify compares an
    # f whose route is the direct step at N with the oracle's default field
    rng = random.Random(f"tower:{p}:{n}:{c}")
    ctx, N = build_field_ctx(p, n), n * p**c
    for _ in range(2):
        coeffs = [ctx.from_encoding(rng.randrange(ctx.order)) for _ in range(4)]
        coeffs[1] = coeffs[3] = ctx.from_encoding(rng.randrange(1, ctx.order))  # alpha = 1 is prime to p
        f = QuadFunc.from_terms(ctx, [(a, i) for i, a in enumerate(coeffs)])
        assert type_direct(f, p**c, ctx=direct_field(ctx, N)) == type_direct(f, p**c)
        if p**N <= 10**6:
            assert plan(f, p**c).steps == (("direct", N),)
            assert verify(f, p**c).equal


# Every (p, n, c) with p in {3, 5, 7}, n <= 3, c >= 0 and n * p^c <= 81.
TWIST_GRID = [(p, n, c) for p in (3, 5, 7) for n in (1, 2, 3) for c in range(5) if n * p**c <= 81]


@pytest.mark.parametrize("p,n,c", TWIST_GRID)
def test_lifted_twist_matches_the_twist_at_the_top_of_the_tower(p, n, c):
    # f~ has f's exponents, so the two-power step reads it at N = n p^c as
    # it reads f: diagonalized at the plan's direct base and carried up by
    # the p-power lift.  The value must be the twist's own at N, which is
    # its diagonalization on the tower GF(p^N), and its nullity l_2N - l_N.
    rng = random.Random(f"twist:{p}:{n}:{c}")
    ctx, N = build_field_ctx(p, n), n * p**c
    for _ in range(3):
        # alpha = (0, p^c): nu_p(alpha) >= c, and alpha = 0 keeps f off the
        # balanced route
        f = QuadFunc.from_terms(ctx, [(ctx.from_encoding(rng.randrange(1, ctx.order)), a) for a in (0, p**c)])
        v = evaluate(f, 2 * p**c)
        two = next(s for s in v.provenance if s["step"] == "two_power_lift")
        if c and n % p:
            assert [s["step"] for s in v.provenance][:2] == ["direct_diagonalization", "p_power_lift"]
        assert (two["twist_t"], two["twist_l"]) == type_direct(twist(f), p**c, ctx=direct_field(ctx, N))
        prof = nullity_profile(f)
        assert two["twist_l"] == prof.nullity(2 * N) - prof.nullity(N)
        if p ** (2 * N) <= DEFAULT_CAP:
            assert verify(f, 2 * p**c).equal


def test_twist_past_the_direct_limit_is_lifted():
    # GF(3^86) with alpha = (0, 3): f needs no direct work above n = 86,
    # and neither does its twist, whose type at 258 > DIRECT_LIMIT comes
    # from the p-power lift
    ctx = build_field_ctx(3, 86)
    f = QuadFunc.from_terms(ctx, [(ctx.one(), 0), (ctx.one(), 3)])
    v = evaluate(f, 6)
    assert [(s["step"], s["N"]) for s in v.provenance] == [
        ("direct_diagonalization", 86), ("p_power_lift", 258), ("two_power_lift", 516)
    ]
    assert v.exact_str() == "-g^513*p^3"


def test_one_field_per_composition_route(monkeypatch):
    calls = []

    def counting(base, N):
        calls.append(N)
        return direct_field(base, N)

    monkeypatch.setattr(evaluator, "direct_field", counting)
    balanced = QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)])
    cases = [
        (F5_RUNNING, 26, [1]),  # direct, two-power, odd prime
        (QuadFunc.from_dense(3, [1, 0, 0, 1]), 6, [1]),  # direct, p-power, two-power
        (QuadFunc.from_dense(3, [1, 1]), 6, [3]),  # direct at n p, two-power
        (QuadFunc.from_dense(3, [1, 2, 0, 1]), 18, [9]),  # direct at n p^2, two-power
        (balanced, 4, [1]),  # the balanced form, cross-checked by direct and two-power
        (QuadFunc.from_dense(3, [0, 1]), 6, []),  # monomial
    ]
    for f, m, expected in cases:
        calls.clear()
        evaluate(f, m)
        assert calls == expected, (f, m)
