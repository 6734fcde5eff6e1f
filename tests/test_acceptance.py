"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact: cyclotomic comparisons admit no tolerance, table
comparisons are cell-for-cell.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time

import pytest

from quadsums import (
    ExpSumValue,
    QuadFunc,
    brute_force_sum,
    brute_force_sum_shifted,
    build_field_ctx,
    diagonalize,
    evaluate,
    gcd_plus_minus,
    gcd_plus_plus,
    gram_matrix,
    legendre,
    lift_p_value,
    lift_two,
    monomial_eval,
    nullity_at,
    nullity_profile,
    radical_poly,
    shift_linear,
    twist,
    type_balanced,
    type_direct,
    verify,
)
from quadsums.lifts import valuation
from quadsums.tabulate import diff_reference, enumerate_functions, generate_table, reference_path
from tests.conftest import random_quadfunc

F5_RUNNING = QuadFunc.from_dense(5, [1, 2, 3, 4, 1])
F3_TOWER = QuadFunc.from_dense(3, [1, 2, 2, 2, 1])
F7_SMALL = QuadFunc.from_dense(7, [5, 6, 1])


def _report(name: str, ok: bool, extra: str = ""):
    tail = f"  ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, name


def test_criterion_01_table1_reproduction():
    t0 = time.monotonic()
    rows = generate_table(3, 4)
    rep = diff_reference(rows, reference_path("table1"))
    dt = time.monotonic() - t0
    _report(
        "criterion 1: table for GF(3), exponents <= 4 (121 rows, 0 diffs, < 120 s)",
        rep.clean and len(rows) == 121 and dt < 120,
        f"{dt:.1f}s",
    )


def test_criterion_02_table2_reproduction():
    t0 = time.monotonic()
    rows = generate_table(5, 3)
    rep = diff_reference(rows, reference_path("table2"))
    dt = time.monotonic() - t0
    _report(
        "criterion 2: table for GF(5), exponents <= 3 (156 rows, 0 diffs, < 300 s)",
        rep.clean and len(rows) == 156 and dt < 300,
        f"{dt:.1f}s",
    )


def test_criterion_03_running_example_profile():
    prof = nullity_profile(F5_RUNNING)
    ok = prof.s == 26 and dict(prof.entries) == {1: 0, 2: 0, 13: 4, 26: 8}
    for m in range(1, 105):
        b = 0
        mm = m
        while mm % 13 == 0:
            b += 1
            mm //= 13
        a = valuation(mm, 2)
        want = 0 if b == 0 else (4 if a == 0 else 8)
        ok = ok and prof.nullity(m) == want
    _report("criterion 3: running GF(5) example has s=26 and nullities {0,4,8}", ok)


def test_criterion_04_running_example_types():
    want_t = {1: 1, 2: -1, 4: -1, 13: -1, 26: -1}
    want_l = {1: 0, 2: 0, 4: 0, 13: 4, 26: 8}
    ok = True
    for m in (1, 2, 4, 13, 26):
        v = evaluate(F5_RUNNING, m)
        ok = ok and v.t == want_t[m] and v.l == want_l[m]
    for m in (1, 2):
        v = evaluate(F5_RUNNING, m)
        ok = ok and brute_force_sum(F5_RUNNING, m) == v.to_cyclotomic()
    _report("criterion 4: running example types at m in {1,2,4,13,26} + brute check", ok)


def test_criterion_05_tower_example_types():
    ok = True
    cases = []
    for ms in (1, 5, 7, 11, 13):
        cases.append((ms, -1))
    for a in (1, 2, 3):
        for ms in (1, 5, 7):
            cases.append((2**a * ms, (-1) ** (a + 1) * legendre(ms, 3)))
    for m, want in cases:
        v = evaluate(F3_TOWER, m)
        ok = ok and v.t == want
        if 3**m <= 3**14:
            ok = ok and brute_force_sum(F3_TOWER, m) == v.to_cyclotomic()
    _report("criterion 5: GF(3) tower example types, brute-checked up to 3^14", ok)


def test_criterion_06_gf7_example():
    prof = nullity_profile(F7_SMALL)
    ok = prof.s == 56
    for ms in (1, 3, 5):
        ok = ok and evaluate(F7_SMALL, ms).t == -1
    for a in (1, 2):
        for ms in (1, 3, 5):
            ok = ok and evaluate(F7_SMALL, 2**a * ms).t == -legendre(ms, 7)
    for m in (1, 2):
        v = evaluate(F7_SMALL, m)
        ok = ok and brute_force_sum(F7_SMALL, m) == v.to_cyclotomic()
    _report("criterion 6: GF(7) example (s=56, odd and even types, brute at m<=2)", ok)


def test_criterion_07_balanced_example():
    f = QuadFunc.from_terms(build_field_ctx(5, 1), [(3, 1), (1, 3)])
    prof = nullity_profile(f)
    ok = prof.s == 20 and dict(prof.entries) == {1: 0, 2: 0, 4: 2, 5: 0, 10: 0, 20: 6}
    for m in range(1, 60):
        want = 6 if m % 20 == 0 else (2 if m % 4 == 0 else 0)
        ok = ok and prof.nullity(m) == want
    for N in (2, 4, 6, 8):
        l = prof.nullity(N)
        tb = type_balanced(f, N, l)
        td, ld = type_direct(f, N)
        ok = ok and tb == td == -1 and ld == l
    for N in (2, 4):
        ok = ok and brute_force_sum(f, N) == ExpSumValue(5, N, prof.nullity(N), -1).to_cyclotomic()
    _report("criterion 7: two-exponent GF(5) example profile and balanced types", ok)


def test_criterion_08_oracle_sweep():
    rng = random.Random(88)
    budget = 3**12
    checked = 0
    ok = True
    for i in range(200):
        p = (3, 5, 7)[i % 3]
        f = random_quadfunc(rng, p, max_terms=3, max_alpha=3)
        m = 1
        while p**m <= budget:
            rep = verify(f, m)
            ok = ok and rep.equal
            checked += 1
            m += 1
    _report("criterion 8: 200 random functions, exact oracle equality", ok, f"{checked} comparisons")


def test_criterion_09_monomial_sweep():
    rng = random.Random(89)
    case_hits = {"i": 0, "ii": 0, "iii": 0}
    ok = True
    checked = 0
    for p in (3, 5):
        for alpha in range(4):
            for N in range(1, 8):
                if p**N > 5**7:
                    continue
                ctx = build_field_ctx(p, N)
                for _ in range(20):
                    a = ctx.from_encoding(rng.randrange(1, ctx.order))
                    v = monomial_eval(a, alpha, N)
                    case_hits[v.provenance[0]["case"]] += 1
                    f = QuadFunc.from_terms(ctx, [(a, alpha)])
                    ok = ok and brute_force_sum(f, 1) == v.to_cyclotomic()
                    checked += 1
    ok = ok and all(c >= 10 for c in case_hits.values())
    _report(
        "criterion 9: monomial closed form vs brute force, all three cases",
        ok,
        f"{checked} sums, case hits {case_hits}",
    )


def _corpus():
    for coeffs, f in enumerate_functions(3, 4):
        yield f
    for coeffs, f in enumerate_functions(5, 3):
        yield f


def test_criterion_10_invariant_suites():
    ok = True
    # nullity-increment congruences across each profile: every entry pair
    # (m, q^s * m) with q an odd prime != p must have an even increment
    # divisible (as a p-power exponent) by the order of p mod q
    from quadsums.evaluator import _factor

    pairs_checked = 0
    for f in _corpus():
        prof = nullity_profile(f)
        d = prof.entry_dict
        for m1 in d:
            for m2 in d:
                if m2 <= m1 or m2 % m1:
                    continue
                fac = _factor(m2 // m1)
                if len(fac) != 1:
                    continue
                q = next(iter(fac))
                if q == 2 or q == f.p:
                    continue
                dl = d[m2] - d[m1]
                ok = ok and dl % 2 == 0 and pow(f.p, dl, q) == 1
                pairs_checked += 1
    assert pairs_checked > 100

    # two-power lift parity claim over the corpus
    for f in _corpus():
        prof = nullity_profile(f)
        lt = nullity_at(twist(f), f.n)
        for s in (1, 2, 3):
            ok = ok and (prof.nullity(1) + lt + prof.nullity(2**s)) % 2 == 0

    # p-power value identity on the applicable corpus rows
    applicable = 0
    for f in _corpus():
        if min(valuation(a, f.p) for a in f.alphas) < 1:
            continue
        t1, l1 = type_direct(f, 1)
        ok = ok and lift_p_value(ExpSumValue(f.p, 1, l1, t1)) == brute_force_sum(f, f.p)
        applicable += 1
    assert applicable >= 5

    # beta-independence of the two-power lift (GF(5) corpus: both nonsquares)
    for _, f in enumerate_functions(5, 3):
        prof = nullity_profile(f)
        t1, l1 = type_direct(f, 1)
        results = set()
        for beta_code in (2, 3):
            ft = twist(f, f.ctx.elem(beta_code))
            tt, lt = type_direct(ft, 1)
            st = lift_two(ExpSumValue(5, 1, l1, t1), ExpSumValue(5, 1, lt, tt), 1, prof.nullity(2))
            results.add(st.t)
        ok = ok and len(results) == 1

    # congruence invariance of diagonalization on corpus Gram matrices
    rng = random.Random(90)
    sample = [f for i, f in enumerate(_corpus()) if i % 37 == 0]
    import numpy as np

    for f in sample:
        B = gram_matrix(f, 2)
        d1 = diagonalize(B, f.p)
        N = B.shape[0]
        while True:
            A = np.array([[rng.randrange(f.p) for _ in range(N)] for _ in range(N)])
            if round(np.linalg.det(A.astype(float))) % f.p:
                break
        d2 = diagonalize(A @ B @ A.T % f.p, f.p)
        ok = ok and (d1.rank, d1.type_) == (d2.rank, d2.type_)

    # gcd case splits vs direct arbitrary-precision gcd
    for p in (3, 5, 7, 11):
        for a in range(13):
            for b in range(13):
                ok = ok and gcd_plus_plus(p, (a, b)) == math.gcd(p**a + 1, p**b + 1)
                ok = ok and gcd_plus_minus(p, a, b) == math.gcd(p**a + 1, p**b - 1)
    _report("criterion 10: congruence/parity/value/beta/congruence-invariance/gcd suites", ok)


def test_criterion_11_shift_identity():
    rng = random.Random(91)
    ok = True
    zeros = 0
    done = 0
    while done < 100:
        p = (3, 5)[done % 2]
        f = random_quadfunc(rng, p, max_terms=3, max_alpha=3)
        N = rng.randint(1, 6 if p == 5 else 8)
        if p**N > 5**6:
            continue
        ctx = build_field_ctx(p, N)
        b = ctx.from_encoding(rng.randrange(ctx.order))
        t, l = type_direct(f, N)
        sh = shift_linear(f, b, N, ExpSumValue(p, N, l, t))
        ok = ok and sh.to_cyclotomic() == brute_force_sum_shifted(f, b, N)
        zeros += sh.zero
        done += 1
    ok = ok and zeros > 0
    _report("criterion 11: linear-shift identity on 100 random (f, b)", ok, f"{zeros} vanishing cases")
