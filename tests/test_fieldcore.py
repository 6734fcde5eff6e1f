import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import (
    FieldCtx,
    FieldElem,
    QuadFunc,
    build_field_ctx,
    embed_element,
    embedding_roots,
    evaluate,
    linearized_gcd_deg,
)
from tests import polyref
from tests.linref import P_PAST_INT64
from tests.test_primepoly import _rabin_ref
from quadsums import _linalg
from quadsums import _primepoly as pp
from quadsums import fieldcore
from quadsums.fieldcore import _default_modulus, direct_field
from quadsums.errors import (
    DivisionByZero,
    InternalInconsistency,
    InvalidInput,
    ModulusReducible,
    NoRootFound,
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


def test_operators_defer_on_foreign_operands():
    # every binary operator answers NotImplemented for an operand that is
    # neither an element nor an integer, so Python raises TypeError
    a = build_field_ctx(3, 2).gen()
    assert a.__truediv__(1.5) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, 1.5)
    assert a / 2 == a * a.ctx.elem(2).inverse()


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


# (p, d, modulus) for the tables' references: default moduli, and past
# int64, where the arrays are Python ints, the binomials x^2 - 2 and x^4 - 2
# (2 is a nonsquare mod 2^63 + 29 and p - 1 is 4 times an odd number).
TABLE_FIELDS = [
    (3, 2, None), (3, 7, None), (3, 12, None), (5, 4, None), (5, 9, None), (7, 3, None), (7, 10, None),
    (2**61 - 1, 2, None), (2**61 - 1, 5, None),
    (P_PAST_INT64, 2, (P_PAST_INT64 - 2, 0, 1)), (P_PAST_INT64, 4, (P_PAST_INT64 - 2, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("p,d,modulus", TABLE_FIELDS)
def test_frob_images_match_scalar_powers(p, d, modulus):
    # the table for j >= 2 is a matrix power of the table for j = 1; row u
    # of frob_images(j), and column u of frob_mat_power(j), must be
    # (x^(p^j))^u by scalar powering, also for j >= d
    ctx = FieldCtx(p, d, modulus)
    for j in list(range(d)) + [d, d + 3]:
        y, cur, want = ctx.gen() ** (p**j), ctx.one(), []
        for _ in range(d):
            want.append(list(cur.coeffs))
            cur = cur * y
        assert ctx.frob_images(j).tolist() == want, j
        assert ctx.frob_mat_power(j).T.tolist() == want, j


@pytest.mark.parametrize("p,d,modulus", TABLE_FIELDS)
def test_basis_traces_match_conjugate_sum_reference(p, d, modulus):
    ctx = FieldCtx(p, d, modulus)
    assert tuple(ctx.basis_traces().tolist()) == polyref.conjugate_traces(ctx.modulus, p)


@pytest.mark.parametrize("table", ["frob_images", "frob_mat_power"])
def test_frob_images_caches_only_the_tables_asked_for(table):
    ctx = FieldCtx(3, 7, build_field_ctx(3, 7).modulus)
    power, name = getattr(ctx, table), {"frob_images": "frob_images", "frob_mat_power": "frob_pows"}[table]
    power(5)
    power(10)
    assert sorted(ctx._cache[name]) == [3, 5]
    power(1)
    power(6)
    assert sorted(ctx._cache[name]) == [1, 3, 5, 6]
    assert not any(T.flags.writeable for T in ctx._cache[name].values())


def test_frob_mat_power_keeps_one_table_at_degree_81():
    # a fresh context, whose Frobenius table 80 alone is cached
    ctx = FieldCtx(3, 81, tuple(PINNED_MODULI[3, 81].get(i, 0) for i in range(82)))
    ctx.frob_mat_power(80)
    assert list(ctx._cache["frob_pows"]) == [80]


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
    monkeypatch.setitem(ctx._cache, "frob_images", {1: np.array([[2, 0], [0, 2]], dtype=np.int64)})
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


def _embed_at(src, dst, x, r):
    """x's image under the embedding that sends src's generator to r."""
    R = fieldcore._root_powers(src, dst, r)
    return dst.elem([int(c) for c in np.array(x.coeffs, dtype=R.dtype) @ R % dst.p])


@pytest.mark.parametrize("p,n,N", [(3, 2, 6), (5, 3, 6), (7, 2, 4), (2**61 - 1, 2, 4)])
def test_embed_is_the_sum_of_root_powers(p, n, N, rng):
    # the image of x = sum c_i g^i is sum c_i r^i, for every root r; the
    # default embedding is the smallest root's, its matrix of root powers
    # cached on dst per src key
    src, dst = build_field_ctx(p, n), build_field_ctx(p, N)
    roots = embedding_roots(src, dst)
    for r in roots:
        for _ in range(10):
            x = src.elem([rng.randrange(p) for _ in range(n)])
            want, rp = dst.zero(), dst.one()
            for c in x.coeffs:
                want, rp = want + rp * dst.elem(c), rp * r
            assert _embed_at(src, dst, x, r) == want
    assert embed_element(src, dst, x) == _embed_at(src, dst, x, roots[0])
    assert tuple(int(c) for c in dst.table("embed", src.key)[1]) == roots[0].coeffs


def test_embed_element_rejects_a_root_that_is_not_a_root():
    # x -> (2,1,0,0) is no embedding of GF(9) in GF(81): x^2 would go to
    # (2,0,0,0), while (2,1,0,0)^2 = (1,1,1,0); the root powers are None
    # for it, and give x -> r for each true root r
    src, dst = build_field_ctx(3, 2), FieldCtx(3, 4)
    assert fieldcore._root_powers(src, dst, dst.from_encoding(5)) is None
    for r in embedding_roots(src, dst):
        assert _embed_at(src, dst, src.gen(), r) == r
        assert _embed_at(src, dst, src.gen() ** 2, r) == r * r


@pytest.mark.parametrize("p,d", [(3, 4), (5, 3), (7, 1), (2**61 - 1, 2)])
def test_p_poly_matrix_applies_the_p_polynomial(p, d, rng):
    # columns act on coordinate vectors: M z = sum c z^(p^a), a past d too
    ctx = build_field_ctx(p, d)
    terms = [(ctx.elem([rng.randrange(p) for _ in range(d)]), a) for a in (0, 1, d + 1)]
    M = ctx.p_poly_matrix(terms)
    for _ in range(5):
        z = ctx.elem([rng.randrange(p) for _ in range(d)])
        want = sum((c * z.frobenius(a) for c, a in terms), ctx.zero())
        assert tuple(int(v) for v in M @ np.array(z.coeffs, dtype=M.dtype) % p) == want.coeffs
    assert ctx.p_poly_matrix([]).tolist() == [[0] * d] * d


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
        t0 = _embed_at(f9, f81, x, r0).trace()
        t1 = _embed_at(f9, f81, x, r1).trace()
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


def _horner(g, x):
    """g(x) for the integer coefficients g, ascending, at the element x."""
    acc = x.ctx.zero()
    for c in reversed(g):
        acc = acc * x + int(c)
    return acc


def _rows_times(a, b, modulus, p):
    """Row-wise products of the coordinate rows a and b modulo the monic
    modulus, by convolution and reduction from the top degree down."""
    d = len(modulus) - 1
    out = np.zeros((len(a), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        out[:, i : i + d] = (out[:, i : i + d] + a[:, i : i + 1] * b) % p
    for t in range(2 * d - 2, d - 1, -1):
        out[:, t - d : t] = (out[:, t - d : t] - out[:, t : t + 1] * np.array(modulus[:-1])) % p
    return out[:, :d]


def _roots_by_modulus(p, n, dst):
    """{g: encodings of its roots in dst} for every monic irreducible g of
    degree n: each x of GF(p^n) inside dst (x^(p^n) = x) of degree n is a
    root of exactly one, prod_(j<n) (t - x^(p^j)).  Rows of all p^N
    elements at once, the products by ``_rows_times``."""
    N = dst.d
    codes = np.arange(p**N)
    rows = np.stack([codes // p**i % p for i in range(N)], axis=1)
    rows = rows[(rows @ dst.frob_images(n) % p == rows).all(axis=1)]
    conjugates = [rows @ dst.frob_images(j) % p for j in range(n)]
    poly = [np.eye(1, N, dtype=np.int64).repeat(len(rows), axis=0)]  # prod (t - c), ascending in t
    for c in conjugates:
        poly = [np.zeros_like(c)] + poly
        for k in range(len(poly) - 1):
            poly[k] = (poly[k] - _rows_times(poly[k + 1], c, dst.modulus, p)) % p
    coeffs = np.stack(poly, axis=2)
    assert not coeffs[:, 1:].any()  # the coefficients lie in GF(p)
    degree_n = np.all([(c != rows).any(axis=1) for c in conjugates[1:]], axis=0)
    out = {}
    for code, g in zip(rows[degree_n] @ p ** np.arange(N), coeffs[degree_n, 0].tolist()):
        out.setdefault(tuple(g), []).append(int(code))
    return out


def _irreducible_count(p, n):
    """(1/n) sum_(d | n) mu(d) p^(n/d), the number of monic irreducibles."""
    def mobius(d):
        primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
        return 0 if any(d % (q * q) == 0 for q in primes) else (-1) ** len(primes)

    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p,n,N", ENUMERATED_PAIRS)
def test_embedding_roots_match_enumeration(p, n, N):
    # oracle: for every monic irreducible g of degree n, the x of GF(p^N)
    # with g(x) = 0, grouped by their minimal polynomials; all roots of g
    # lie in GF(p^n), where x^(p^n) = x, so the other elements are skipped
    dst = FieldCtx(p, N)
    expect = _roots_by_modulus(p, n, dst)
    assert len(expect) == _irreducible_count(p, n)
    default = build_field_ctx(p, n)
    assert [r.encoding for r in embedding_roots(default, build_field_ctx(p, N))] == expect[default.modulus]
    for g, codes in expect.items():
        assert len(codes) == n
        roots = embedding_roots(FieldCtx(p, n, g), dst)
        assert [r.encoding for r in roots] == sorted(codes)
        assert _horner(g, roots[0]).is_zero()


@pytest.mark.parametrize("p,n,N", [(3, 2, 8), (5, 3, 15), (7, 3, 21)])
def test_embedding_roots_take_no_large_power(monkeypatch, p, n, N):
    src, dst = build_field_ctx(p, n), FieldCtx(p, N)
    elem_pow = FieldElem.__pow__

    def small_pow(x, e):
        if abs(e) >= p**n:
            raise AssertionError(f"power {e} >= p^n taken")
        return elem_pow(x, e)

    monkeypatch.setattr(FieldElem, "__pow__", small_pow)
    roots = embedding_roots(src, dst)
    monkeypatch.undo()
    assert all(_horner(src.modulus, r).is_zero() for r in roots)


@pytest.mark.parametrize("p", [2**61 - 1, P_PAST_INT64])
def test_embedding_roots_past_int64_match_the_full_split(p):
    # g = (x - r0)(x - r1) over GF(p^4), r1 the conjugate of r0, and both
    # are roots by Horner's rule
    src, dst = build_field_ctx(p, 2), build_field_ctx(p, 4)
    r0, r1 = embedding_roots(src, dst)
    assert r0 + r1 == dst.elem(-src.modulus[1]) and r0 * r1 == dst.elem(src.modulus[0])
    assert r0.frobenius(1) == r1 and r0.encoding < r1.encoding
    assert _horner(src.modulus, r0).is_zero() and _horner(src.modulus, r1).is_zero()


def test_embedding_roots_build_no_field(monkeypatch):
    # the split runs on GF(p) arrays alone: no copy of the subfield is
    # built, on a fresh cache of contexts and a fresh GF(3^8)
    monkeypatch.setattr(fieldcore, "_ctx_cached", functools.lru_cache(maxsize=None)(fieldcore._ctx_cached.__wrapped__))
    src, dst = build_field_ctx(3, 4), FieldCtx(3, 8)
    built = []
    init = FieldCtx.__init__
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    roots = embedding_roots(src, dst)
    assert built == [] and len(roots) == 4


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


@pytest.mark.parametrize("p,n,N", [(3, 2, 8), (5, 3, 6), (7, 2, 14)])
def test_embedding_roots_keep_only_the_default_embedding_table(p, n, N, monkeypatch):
    # the root found in the degree-n copy reaches dst by one product with the
    # rows of b's powers: embed_element is not called and the one embed
    # table kept on dst is src's, at the smallest root
    src, dst = build_field_ctx(p, n), FieldCtx(p, N)
    monkeypatch.setattr(fieldcore, "embed_element", None)
    roots = embedding_roots(src, dst)
    assert list(dst._cache["embed"]) == [src.key]
    assert tuple(int(c) for c in dst._cache["embed"][src.key][1]) == roots[0].coeffs


def test_cache_roots_rejects_too_few_roots_or_a_non_root():
    # the orbit of r under z -> z^p must close after n distinct elements at
    # a root: an element of GF(3) gives too few, one of degree 4 never
    # closes, and r0 + 1 is no root
    src, dst = build_field_ctx(3, 2), FieldCtx(3, 4)
    r0, r1 = embedding_roots(src, dst)
    for r in (dst.elem(2), dst.gen(), r0 + 1):
        with pytest.raises(NoRootFound):
            fieldcore._conjugates(src, dst, r)
    assert fieldcore._conjugates(src, dst, r1) == fieldcore._conjugates(src, dst, r0) == (r0, r1)


def test_root_set_takes_one_evaluation_of_the_modulus(monkeypatch):
    # the other n - 1 roots are the Frobenius orbit of the first, so g is
    # checked once, on the rows of the smallest root's powers, which the
    # default embedding then reads
    built = []
    rows = fieldcore._root_powers
    monkeypatch.setattr(fieldcore, "_root_powers", lambda s, d, r: built.append((s.key, r)) or rows(s, d, r))
    src, dst = build_field_ctx(3, 4), FieldCtx(3, 8)
    roots = embedding_roots(src, dst)
    assert embed_element(src, dst, src.gen()) == roots[0]
    assert len(roots) == 4
    assert [r for key, r in built if key == src.key] == [roots[0]]
    assert all(_horner(src.modulus, r).is_zero() for r in roots)


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


def test_element_textual_format():
    ctx = build_field_ctx(3, 2)
    x = ctx.parse_elem("1,2")
    assert str(x) == "1,2"
    assert x == ctx.elem((1, 2))


# -- direct bases on Artin-Schreier towers ---------------------------------------

# (p, n, N) with N = n * p^c, c >= 1
TOWERS = [(3, 1, 3), (3, 1, 81), (3, 2, 18), (3, 3, 27), (5, 1, 25), (5, 2, 10), (5, 3, 15), (7, 2, 14), (7, 3, 21)]
USER_GF9 = (2, 1, 1)  # x^2 + x + 2, not the default x^2 + 1


def test_direct_field_at_the_base_degree_is_the_base():
    for ctx in (build_field_ctx(5, 1), build_field_ctx(3, 3), build_field_ctx(3, 2, USER_GF9)):
        assert direct_field(ctx, ctx.d) is ctx


def test_evaluate_on_a_user_modulus_builds_no_default_base(monkeypatch):
    # the direct step at N = n and the twist base n read f.ctx itself, and
    # the tower at N = 6 grows from it
    ctx = build_field_ctx(3, 2, USER_GF9)
    f = QuadFunc.from_terms(ctx, [(ctx.from_encoding(5), 0), (ctx.one(), 1)])
    requested = []
    cached = fieldcore._ctx_cached
    monkeypatch.setattr(fieldcore, "_ctx_cached", lambda p, d, modulus: requested.append((p, d, modulus)) or cached(p, d, modulus))
    for m in (1, 2, 3, 6):
        assert evaluate(f, m).N == 2 * m
    assert (3, 2, None) not in requested
    assert all(modulus is not None for p, d, modulus in requested if d > 1)


def test_a_tower_over_the_default_base_builds_no_second_base(monkeypatch):
    # direct_field caches per base context: the tower GF(3^6) over the
    # default GF(9) builds no copy of GF(9) with its modulus spelled out
    for name in ("_ctx_cached", "_direct_cached"):
        monkeypatch.setattr(fieldcore, name, functools.lru_cache(maxsize=None)(getattr(fieldcore, name).__wrapped__))
    built = []
    init = FieldCtx.__init__
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, *args: init(self, *args) or built.append(self))
    ctx = build_field_ctx(3, 2)
    f = QuadFunc.from_terms(ctx, [(ctx.one(), 0), (ctx.one(), 1)])  # x^2 + x^4
    assert evaluate(f, 3).provenance == ({"step": "direct_diagonalization", "N": 6, "t": 1, "l": 2},)
    assert [c for c in built if c.key == ctx.key] == [ctx]
    assert len([c for c in built if c.d == 6]) == 1


def test_a_given_modulus_is_reduced_before_the_cache_lookup():
    # (5, 4, 1) is (2, 1, 1) over GF(3): one context; p = 0 and p = 9 are
    # refused as not prime before any reduction
    assert build_field_ctx(3, 2, (5, 4, 1)) is build_field_ctx(3, 2, USER_GF9)
    assert build_field_ctx(3, 2, (5, 4, 1)).modulus == USER_GF9
    for p in (0, 9):
        with pytest.raises(NotPrime):
            build_field_ctx(p, 2, (1, 0, 1))


@pytest.mark.parametrize("p,n,N", TOWERS)
def test_direct_field_modulus_is_irreducible_of_degree_N(p, n, N):
    dst = direct_field(build_field_ctx(p, n), N)
    assert dst.d == N and len(dst.modulus) == N + 1 and dst.modulus[-1] == 1
    assert _rabin_ref(np.array(dst.modulus, dtype=np.int64), p)


@pytest.mark.parametrize("p,n,N,modulus", [t + (None,) for t in TOWERS if t[1] > 1] + [(3, 2, 6, USER_GF9)])
def test_direct_field_caches_the_conjugates_of_a_root(p, n, N, modulus):
    # against the roots of the base modulus, by Horner's rule, among the
    # p^n elements of the subfield ker(F^n - I) of the tower field
    src = build_field_ctx(p, n, modulus)
    dst = direct_field(src, N)
    roots = dst._cache["roots"][src.key]
    basis = [dst.elem(v) for v in _linalg.kernel_basis((dst.frob_mat_power(n) - np.eye(N, dtype=np.int64)) % p, p)]
    assert len(basis) == n
    subfield = [sum((c * v for c, v in zip(cs, basis)), dst.zero()) for cs in itertools.product(range(p), repeat=n)]
    expect = sorted((x for x in subfield if _horner(src.modulus, x).is_zero()), key=lambda e: e.encoding)
    assert list(roots) == expect
    assert embedding_roots(src, dst) is roots


@pytest.mark.parametrize(
    "p,n,N", [(3, 1, 6), (3, 2, 9), (3, 2, 12), (5, 1, 15), (5, 2, 1), (7, 1, 0), (3, 2, 0), (3, 1, -3), (3, 2, -6)]
)
def test_direct_field_rejects_a_degree_past_a_power_of_p(p, n, N):
    with pytest.raises(InvalidInput, match="power of"):
        direct_field(build_field_ctx(p, n), N)


def test_direct_field_is_deterministic(monkeypatch):
    # a fresh pair of caches builds every tower with the same modulus
    first = {t: direct_field(build_field_ctx(*t[:2]), t[2]) for t in TOWERS}
    for name in ("_ctx_cached", "_direct_cached"):
        monkeypatch.setattr(fieldcore, name, functools.lru_cache(maxsize=None)(getattr(fieldcore, name).__wrapped__))
    again = {t: direct_field(build_field_ctx(*t[:2]), t[2]) for t in TOWERS}
    assert all(again[t] is not first[t] and again[t].modulus == first[t].modulus for t in TOWERS)
