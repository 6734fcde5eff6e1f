import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import (
    FieldCtx,
    FieldElem,
    Poly,
    build_field_ctx,
    embed_element,
    embedding_roots,
    linearized_gcd_deg,
)
from tests import polyref
from tests.linref import P_PAST_INT64
from quadsums import _primepoly as pp
from quadsums.fieldcore import _default_modulus, _find_root
from quadsums.errors import (
    DivisionByZero,
    InternalInconsistency,
    InvalidInput,
    ModulusReducible,
    NotOdd,
    NotPrime,
    ZeroPolynomial,
)


# Default moduli of larger fields, as {exponent: coefficient} of the nonzero
# terms: the direct bases the tower benchmark builds, GF(3^54), GF(5^50),
# GF(7^49) and GF(3^81).  Computed with the powmod Rabin search that the
# Frobenius-matrix test replaced; the smallest-encoding rule is a contract.
PINNED_MODULI = {
    (3, 9): {0: 1, 2: 1, 3: 2, 9: 1},
    (3, 18): {0: 1, 1: 2, 3: 1, 18: 1},
    (3, 27): {0: 2, 1: 2, 2: 1, 3: 1, 5: 1, 27: 1},
    (5, 10): {0: 3, 1: 1, 2: 1, 10: 1},
    (5, 15): {0: 2, 2: 1, 15: 1},
    (5, 25): {0: 2, 1: 3, 3: 2, 25: 1},
    (7, 7): {0: 1, 1: 6, 7: 1},
    (7, 14): {0: 4, 1: 1, 14: 1},
    (7, 21): {0: 1, 1: 3, 2: 1, 21: 1},
    (3, 54): {0: 2, 1: 1, 54: 1},
    (5, 50): {0: 2, 1: 2, 4: 1, 50: 1},
    (7, 49): {0: 1, 1: 3, 3: 1, 49: 1},
    (3, 81): {0: 1, 1: 2, 3: 2, 5: 1, 6: 1, 81: 1},
}


def test_default_moduli():
    assert build_field_ctx(3, 1).modulus is None
    assert build_field_ctx(3, 2).modulus == (1, 0, 1)
    assert build_field_ctx(5, 2).modulus == (2, 0, 1)
    for (p, d), terms in PINNED_MODULI.items():
        expected = tuple(terms.get(i, 0) for i in range(d + 1))
        assert _default_modulus(p, d) == expected, (p, d)


def test_ctx_validation():
    with pytest.raises(NotPrime):
        build_field_ctx(9, 1)
    with pytest.raises(NotOdd):
        build_field_ctx(2, 3)
    with pytest.raises(ModulusReducible):
        build_field_ctx(5, 2, (1, 0, 1))  # x^2+1 has roots mod 5
    with pytest.raises(InvalidInput):
        build_field_ctx(3, 2, (1, 1))  # not degree 2
    with pytest.raises(InvalidInput):
        build_field_ctx(3, 1, (1, 1))  # prime field takes no modulus


def test_field_past_int64_builds():
    # x^2 - 2 is irreducible as 2 is a non-residue mod p = 5 (mod 8); the
    # coefficient p - 2 does not fit int64
    p = P_PAST_INT64
    ctx = build_field_ctx(p, 2, (p - 2, 0, 1))
    x = ctx.gen()
    assert x * x == ctx.elem(2)
    assert x.frobenius(1) == -x and x ** p == -x
    assert ctx.frob_mat_power(1).tolist() == [[1, 0], [0, p - 1]]
    assert _default_modulus(p, 2) == (2, 0, 1)  # x^2 + 1 splits as p = 1 (mod 4)
    assert build_field_ctx(p, 3).modulus[-1] == 1


def test_field_arith_examples():
    f5 = build_field_ctx(5, 1)
    assert f5.elem(2).inverse() == f5.elem(3)
    f9 = build_field_ctx(3, 2)
    r = f9.gen()
    assert r * r == f9.elem(2)
    for ctx in (f5, f9):
        a = ctx.from_encoding(ctx.order - 2)
        assert a ** (ctx.order - 1) == ctx.one()
    with pytest.raises(DivisionByZero):
        f5.elem(0).inverse()


def test_frobenius_examples():
    f5 = build_field_ctx(5, 1)
    for j in range(4):
        assert f5.elem(3).frobenius(j) == f5.elem(3)
    f9 = build_field_ctx(3, 2)
    r = f9.gen()
    assert r.frobenius(1) == r * f9.elem(2)  # r^3 = -r
    for code in range(9):
        x = f9.from_encoding(code)
        assert x.frobenius(2) == x


def test_trace_examples():
    f9 = build_field_ctx(3, 2)
    assert f9.zero().trace() == 0
    assert f9.gen().trace() == 0  # r + r^3 = 0
    # constants: trace = d * x
    f27 = build_field_ctx(3, 3)
    for c in range(3):
        assert f27.elem(c).trace() == 3 * c % 3


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_frobenius_is_automorphism(cx, cy, j):
    ctx = build_field_ctx(3, 2)
    x, y = ctx.from_encoding(cx), ctx.from_encoding(cy)
    assert (x * y).frobenius(j) == x.frobenius(j) * y.frobenius(j)
    assert (x + y).frobenius(j) == x.frobenius(j) + y.frobenius(j)


@given(st.integers(0, 24))
@settings(max_examples=40, deadline=None)
def test_trace_frobenius_invariant(code):
    ctx = build_field_ctx(5, 2)
    x = ctx.from_encoding(code)
    assert x.frobenius(1).trace() == x.trace()


# p = 2^31 - 1, d = 2 lies outside the float64 batch maps' exact range; the
# scalar maps are Python-int tables and must stay exact there as well.
SCALAR_FIELDS = [(3, 7), (5, 4), (7, 3), (2**31 - 1, 2)]


@given(st.sampled_from(SCALAR_FIELDS), st.data())
@settings(max_examples=80, deadline=None)
def test_scalar_frobenius_and_trace_match_definitions(pd, data):
    ctx = build_field_ctx(*pd)
    x = ctx.from_encoding(data.draw(st.integers(0, ctx.order - 1)))
    j = data.draw(st.integers(0, 2 * ctx.d))
    assert x.frobenius(j) == x ** (ctx.p**j)
    conjugates = ctx.zero()
    for i in range(ctx.d):
        conjugates = conjugates + x ** (ctx.p**i)
    assert conjugates.coeffs[1:] == (0,) * (ctx.d - 1)
    assert x.trace() == conjugates.coeffs[0]


@pytest.mark.parametrize("p,d", [(3, 1), (3, 7), (5, 4), (7, 3), (2**61 - 1, 3)])
def test_trace_form_is_hankel_of_power_traces(p, d):
    # Newton's identities on the modulus against the scalar trace of x^k
    ctx = build_field_ctx(p, d)
    H = ctx.trace_form().tolist()
    x = ctx.gen()
    for u in range(d):
        for w in range(d):
            assert H[u][w] == (x ** (u + w)).trace()


@pytest.mark.parametrize("p,d", [(3, 81), (2**61 - 1, 3)])
def test_newton_power_traces_match_conjugate_sums(p, d):
    ctx = build_field_ctx(p, d)
    assert ctx.trace_form()[0].tolist() == list(ctx.basis_traces())


@pytest.mark.parametrize(
    "p,d,modulus",
    [(3, 2, None), (7, 3, None), (3, 27, None), (2**61 - 1, 3, None), (2**63 + 29, 2, (2**63 + 27, 0, 1))],
)
def test_products_powers_and_mult_mat_match_numpy_euclid(p, d, modulus, rng):
    ctx = build_field_ctx(p, d, modulus)
    m = polyref.make(ctx.modulus, p)

    def coords(r):
        return tuple(r.tolist()) + (0,) * (d - len(r))

    for _ in range(4):
        a, b = (ctx.elem([rng.randrange(p) for _ in range(d)]) for _ in range(2))
        ra, rb = polyref.make(a.coeffs, p), polyref.make(b.coeffs, p)
        want = coords(polyref.rem(polyref.mul(ra, rb, p), m, p))
        assert (a * b).coeffs == want
        col = np.array(b.coeffs, dtype=pp.exact_dtype(p, d))
        assert tuple(int(c) for c in ctx.mult_mat(a) @ col % p) == want
        # an exponent past the order: a^e = a^(e mod (p^d - 1)) for a != 0
        e = rng.randrange(2 * ctx.order)
        acc, sq = polyref.make([1], p), ra
        for bit in reversed(bin(e)[2:]):
            acc = polyref.rem(polyref.mul(acc, sq, p), m, p) if bit == "1" else acc
            sq = polyref.rem(polyref.mul(sq, sq, p), m, p)
        assert (a**e).coeffs == (coords(acc) if a else ctx.elem(int(e == 0)).coeffs)


# The invariant checks below run on fresh (uncached) contexts, so a corrupted
# table never reaches the shared ones.


def test_scalar_trace_escape_raises(monkeypatch):
    # modulo the reducible stand-in (x + 1)(x^2 + 1), the conjugate sums
    # leave GF(p)
    ctx = FieldCtx(3, 3)
    monkeypatch.setattr(ctx, "modulus", (1, 1, 1, 1))
    with pytest.raises(InternalInconsistency, match="escaped"):
        ctx.gen().trace()


def test_skew_remainder_check_raises(monkeypatch):
    from quadsums.fieldcore import _rrem_elem

    ctx = FieldCtx(5, 2)
    # z -> 2z is additive but not multiplicative, so the leading term of the
    # remainder step no longer cancels
    monkeypatch.setitem(ctx._cache, "frob_images", {1: ((2, 0), (0, 2))})
    a = [ctx.zero(), ctx.zero(), ctx.one()]
    b = [ctx.one(), ctx.gen()]
    with pytest.raises(InternalInconsistency, match="remainder"):
        _rrem_elem(ctx, a, b)


def test_embed_prime_field_constants():
    f3 = build_field_ctx(3, 1)
    f27 = build_field_ctx(3, 3)
    assert embed_element(f3, f27, f3.elem(2)) == f27.elem(2)


def test_embed_root_squares_to_minus_one():
    f9 = build_field_ctx(3, 2)
    f81 = build_field_ctx(3, 4)
    roots = embedding_roots(f9, f81)
    assert len(roots) == 2
    for r in roots:
        assert r * r == f81.elem(-1)
    # smallest-encoding rule: the default embedding uses roots[0]
    img = embed_element(f9, f81, f9.gen())
    assert img == roots[0]


def test_embed_is_homomorphism(rng):
    f9 = build_field_ctx(3, 2)
    f81 = build_field_ctx(3, 4)
    for _ in range(50):
        x = f9.from_encoding(rng.randrange(9))
        y = f9.from_encoding(rng.randrange(9))
        ex, ey = embed_element(f9, f81, x), embed_element(f9, f81, y)
        assert embed_element(f9, f81, x * y) == ex * ey
        assert embed_element(f9, f81, x + y) == ex + ey


@pytest.mark.parametrize("p,n,N", [(3, 2, 6), (5, 3, 6), (7, 2, 4), (2**61 - 1, 2, 4)])
def test_embed_is_the_sum_of_root_powers(p, n, N, rng):
    # the image of x = sum c_i g^i is sum c_i r^i, for every root r; the
    # matrix of root powers is cached on dst, one per (src key, root)
    src, dst = build_field_ctx(p, n), build_field_ctx(p, N)
    roots = embedding_roots(src, dst)
    for r in roots:
        for _ in range(10):
            x = src.elem([rng.randrange(p) for _ in range(n)])
            want, rp = dst.zero(), dst.one()
            for c in x.coeffs:
                want, rp = want + rp * dst.elem(c), rp * r
            assert embed_element(src, dst, x, r) == want
    assert embed_element(src, dst, x) == embed_element(src, dst, x, roots[0])
    assert {(src.key, r.coeffs) for r in roots} <= set(dst._cache["embed"])


def test_embed_trace_transitivity(rng):
    f9 = build_field_ctx(3, 2)
    f81 = build_field_ctx(3, 4)
    for code in range(9):
        x = f9.from_encoding(code)
        assert embed_element(f9, f81, x).trace() == (4 // 2) * x.trace() % 3


def test_exposed_traces_independent_of_embedding_root(rng):
    f9 = build_field_ctx(3, 2)
    f81 = build_field_ctx(3, 4)
    r0, r1 = embedding_roots(f9, f81)
    for code in range(9):
        x = f9.from_encoding(code)
        t0 = embed_element(f9, f81, x, root=r0).trace()
        t1 = embed_element(f9, f81, x, root=r1).trace()
        assert t0 == t1


# Embedding roots, as integer encodings, of the pairs the benchmark
# workloads embed: found with the earlier Cantor-Zassenhaus loop over all of
# GF(p^N), with exponent (p^N - 1)/2.  The sorted root set does not depend
# on the root the splitting finds first.
PINNED_ROOTS = {
    (3, 2, 6): [129, 231],
    (3, 2, 8): [828, 1629],
    (3, 2, 18): [2799995, 3821146],
    (3, 3, 9): [1629, 1630, 1631],
    (5, 2, 10): [3082203, 9124802],
    (5, 3, 15): [1133884850, 6765401245, 25610984180],
    (7, 2, 14): [16313538264, 96723640200],
    (7, 3, 21): [112629330812346548, 213855005030637902, 336518168089516562],
}


@pytest.mark.parametrize("p,n,N", sorted(PINNED_ROOTS))
def test_embedding_roots_pinned(p, n, N):
    roots = embedding_roots(build_field_ctx(p, n), build_field_ctx(p, N))
    assert [r.encoding for r in roots] == PINNED_ROOTS[(p, n, N)]


# Every n | N with n >= 2 and p^N <= 2 * 10^4.
ENUMERATED_PAIRS = [
    (3, 2, 6), (3, 3, 6), (3, 6, 6), (3, 2, 8), (3, 4, 8), (3, 8, 8),
    (5, 2, 4), (5, 4, 4), (5, 2, 6), (5, 3, 6), (5, 6, 6), (7, 2, 4), (7, 4, 4),
]


@pytest.mark.parametrize("p,n,N", ENUMERATED_PAIRS)
def test_embedding_roots_match_enumeration(p, n, N):
    # oracle: every x of GF(p^N) with g(x) = 0; all roots of g lie in
    # GF(p^n), where x^(p^n) = x, so the other elements are skipped unevaluated
    src, dst = build_field_ctx(p, n), build_field_ctx(p, N)
    g = Poly.from_ints(dst, src.modulus)
    expect = [x for x in dst.elements() if x.frobenius(n) == x and g(x).is_zero()]
    assert len(expect) == n
    assert list(embedding_roots(src, dst)) == expect


@pytest.mark.parametrize("p,n,N", [(3, 2, 8), (5, 3, 6), (7, 2, 14), (7, 3, 21)])
def test_prime_field_shift_never_splits(p, n, N):
    # the roots are conjugates r^(p^j), and r^(p^j) + c = (r + c)^(p^j) for
    # c in GF(p): all have the character of r + c
    src, dst = build_field_ctx(p, n), build_field_ctx(p, N)
    g = Poly.from_ints(dst, src.modulus)
    one = Poly(dst, (dst.one(),))
    for c in range(p):
        w = Poly(dst, (dst.elem(c), dst.one())).powmod((p**n - 1) // 2, g) - one
        assert g.gcd(w).degree in (0, n)


@pytest.mark.parametrize("p,n,N", [(3, 2, 8), (5, 3, 15), (7, 3, 21)])
def test_find_root_takes_no_large_power(monkeypatch, p, n, N):
    src, dst = build_field_ctx(p, n), build_field_ctx(p, N)
    g = Poly.from_ints(dst, src.modulus)
    elem_pow, poly_powmod = FieldElem.__pow__, Poly.powmod

    def small_pow(x, e):
        if abs(e) >= p**n:
            raise AssertionError(f"power {e} >= p^n taken")
        return elem_pow(x, e)

    def small_powmod(x, e, modulus):
        if e >= p**n:
            raise AssertionError(f"power {e} >= p^n taken")
        return poly_powmod(x, e, modulus)

    monkeypatch.setattr(FieldElem, "__pow__", small_pow)
    monkeypatch.setattr(Poly, "powmod", small_powmod)
    root = _find_root(g)
    monkeypatch.undo()
    assert g(root).is_zero()


@pytest.mark.parametrize("p", [2**61 - 1, P_PAST_INT64])
def test_embedding_roots_past_int64_match_the_full_split(p):
    # the split in the degree-n copy against the split over all of GF(p^N)
    src, dst = build_field_ctx(p, 2), build_field_ctx(p, 4)
    r = _find_root(Poly.from_ints(dst, src.modulus))
    expect = sorted({r, r.frobenius(1)}, key=lambda e: e.encoding)
    assert list(embedding_roots(src, dst)) == expect


def test_embedding_roots_live_on_the_default_context(monkeypatch):
    # cached on dst itself; no copy of dst with its modulus spelled out
    src, dst = build_field_ctx(11, 3), build_field_ctx(11, 6)
    built = []
    init = FieldCtx.__init__
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, p, d, modulus=None: built.append(d) or init(self, p, d, modulus))
    roots = embedding_roots(src, dst)
    assert all(r.ctx is dst for r in roots) and dst._cache["roots"][src.key] is roots
    assert 6 not in built
    assert embedding_roots(src, dst) is roots


INVERSE_FIELDS = [(3, 7), (7, 21), (3, 81), (2**31 - 1, 2), (2**61 - 1, 3), (P_PAST_INT64, 2)]


def _square_and_multiply(x, e):
    result, base = x.ctx.one(), x
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


@pytest.mark.parametrize("p,d", INVERSE_FIELDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_inverse_is_fermat_power(p, d, data):
    ctx = build_field_ctx(p, d)
    x = ctx.elem([data.draw(st.integers(0, p - 1)) for _ in range(d)])
    if x.is_zero():
        x = ctx.gen()
    inv = x.inverse()
    assert x * inv == ctx.one()
    assert inv == _square_and_multiply(x, ctx.order - 2)
    assert x / x == ctx.one() and x ** -1 == inv


@pytest.mark.parametrize("p", [3, 1000003, 2**61 - 1])
def test_prime_field_inverse(p):
    ctx = build_field_ctx(p, 1)
    for a in (1, 2, p - 1, p // 2):
        assert ctx.elem(a).inverse() == ctx.elem(pow(a, p - 2, p))
    with pytest.raises(DivisionByZero):
        ctx.zero().inverse()


@pytest.mark.parametrize("p,d", INVERSE_FIELDS)
def test_inverse_of_zero_raises(p, d):
    with pytest.raises(DivisionByZero):
        build_field_ctx(p, d).zero().inverse()


def test_polynomial_inverse_needs_a_unit():
    # (x + 1) shares a factor with (x + 1)(x + 2) over GF(5); a constant
    # inverts to its own inverse
    m = [2, 3, 1]
    with pytest.raises(DivisionByZero):
        pp.inverse([1, 1], m, 5)
    with pytest.raises(DivisionByZero):
        pp.inverse([0, 0], m, 5)
    assert pp.inverse([3], m, 5) == [2]
    # (x^2 + 2)(3x^2 + 3x + 2) = 1 mod x^3 + x + 1
    assert pp.inverse([2, 0, 1], [1, 1, 0, 1], 5) == [2, 3, 3]


def test_poly_gcd_deg_running_example():
    # f(x) = x^2+2x^6+3x^26+4x^126+x^626 over GF(5) has radical polynomial
    # with coefficients (1,4,3,2,2,2,3,4,1) by p-power exponent
    ctx = build_field_ctx(5, 1)
    coeffs = [1, 4, 3, 2, 2, 2, 3, 4, 1]
    assert 5 ** linearized_gcd_deg(ctx, coeffs, 13) == 5**4
    assert 5 ** linearized_gcd_deg(ctx, coeffs, 26) == 5**8
    for m in range(1, 27):
        if m not in (13, 26):
            assert linearized_gcd_deg(ctx, coeffs, m) == 0


def test_poly_gcd_deg_x_is_one():
    # z itself: gcd(z, x^(p^m) - x) = x, of degree p^0
    ctx = build_field_ctx(3, 1)
    for m in (1, 2, 7):
        assert linearized_gcd_deg(ctx, [1], m) == 0


def test_poly_gcd_deg_rejects_zero():
    ctx = build_field_ctx(3, 1)
    with pytest.raises(ZeroPolynomial):
        linearized_gcd_deg(ctx, [0, 0], 2)


def _naive_gcd_deg(ints, p, m):
    """Oracle: materialize x^(p^m) - x and run a dense gcd."""
    f = polyref.make(ints, p)
    big = np.zeros(p**m + 1, dtype=np.int64)
    big[p**m] = 1
    big[1] = p - 1
    return polyref.deg(polyref.gcd(f, big, p))


def test_sparse_path_matches_materialized_oracle():
    ctx = build_field_ctx(3, 1)
    cases = [
        [1, 1, 1],          # z + z^3 + z^9
        [1, 0, 1],          # z + z^9
        [2, 1, 0, 0, 2],    # degree 3^4
        [1, 2, 2, 2, 2, 2, 2, 2, 1],  # degree 3^8
    ]
    for coeffs in cases:
        dense = [0] * (3 ** (len(coeffs) - 1) + 1)
        for j, c in enumerate(coeffs):
            dense[3**j] = c
        for m in range(1, 10):  # 3^m <= 3^9
            assert 3 ** linearized_gcd_deg(ctx, coeffs, m) == _naive_gcd_deg(dense, 3, m)


def test_poly_arithmetic_over_extension():
    ctx = build_field_ctx(3, 2)
    r = ctx.gen()
    f = Poly(ctx, (r, ctx.one()))  # x + r
    g = Poly(ctx, (ctx.one(), r))  # rx + 1
    q, rem = divmod(f * g + Poly(ctx, (r,)), g)
    assert q * g + rem == f * g + Poly(ctx, (r,))
    assert (f * g).gcd(f).monic() == f.monic()


def test_division_by_monic_needs_no_inverse(monkeypatch):
    ctx = build_field_ctx(3, 4)
    r = ctx.gen()
    a = Poly(ctx, [r, ctx.one(), r * r, ctx.elem(2), r + 1, ctx.one()])
    g = Poly(ctx, [r + 2, r, ctx.one()])  # monic
    expect = divmod(a, g)

    def no_inverse(self):
        raise AssertionError("inverse taken for a monic divisor")

    monkeypatch.setattr(FieldElem, "inverse", no_inverse)
    q, rem = divmod(a, g)
    assert (q, rem) == expect
    assert q * g + rem == a and rem.degree < g.degree


def test_element_textual_format():
    ctx = build_field_ctx(3, 2)
    x = ctx.parse_elem("1,2")
    assert str(x) == "1,2"
    assert x == ctx.elem((1, 2))
