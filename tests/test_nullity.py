import math

import pytest

from quadsums import (
    QuadFunc,
    build_field_ctx,
    matrix_kernel_nullity,
    nullity_at,
    nullity_profile,
    radical_poly,
    splitting_exponent,
)
from quadsums import nullity
from quadsums.errors import (
    InternalInconsistency,
    InvalidInput,
    NotMultipleOfBase,
    SearchBudgetExceeded,
)

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


def test_search_ceiling():
    with pytest.raises(SearchBudgetExceeded):
        splitting_exponent(F5_RUNNING, ceiling_factor=5)


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
    monkeypatch.setattr(nullity.LinearizedPoly, "is_separable", lambda self: False)
    with pytest.raises(InternalInconsistency, match="separable"):
        radical_poly(F7_SMALL)


def test_profile_endpoint_check_raises(monkeypatch):
    # a search that stops short of nullity 2*alpha; the uncached function
    # runs, so no corrupted profile enters the cache
    monkeypatch.setattr(nullity, "_search", lambda f, ceiling: (1, {1: 0}))
    with pytest.raises(InternalInconsistency, match="profile ends"):
        nullity_profile.__wrapped__(F7_SMALL)
