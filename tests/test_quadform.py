import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsums import (
    ExpSumValue,
    QuadFunc,
    brute_force_sum,
    brute_force_sum_shifted,
    build_field_ctx,
    diagonalize,
    gauss_cyclotomic,
    gram_matrix,
    legendre,
    matrix_kernel_nullity,
    nullity_at,
    smallest_nonsquare,
    type_direct,
)
from quadsums import _linalg, quadform
from quadsums.cyclotomic import cyc_from_trace_counts
from quadsums.errors import InternalInconsistency, NotSymmetric, TooLarge
from quadsums.fieldcore import FieldCtx, FieldElem, embed_element, embedding_roots, is_prime
from quadsums.quadform import (
    DEFAULT_CAP,
    _bilinear_matrix,
    _trace_counts,
    _trace_hankel,
    elem_quadratic_character,
)
from tests.conftest import random_quadfunc
from tests.linref import P_PAST_INT64, gauss_jordan, leibniz_det


def test_legendre_examples():
    for p in (3, 5, 7, 11):
        assert legendre(1, p) == 1
        assert legendre(0, p) == 0
    assert legendre(2, 5) == -1
    assert legendre(3, 7) == -1


def test_legendre_multiplicative():
    p = 11
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_smallest_nonsquare():
    assert smallest_nonsquare(build_field_ctx(3, 1)).coeffs == (2,)
    assert smallest_nonsquare(build_field_ctx(5, 1)).coeffs == (2,)
    assert smallest_nonsquare(build_field_ctx(7, 1)).coeffs == (3,)
    # extension: nonsquares of GF(9) have order 8, and constants 1, 2 and
    # the modulus root are all squares there, so the scan lands on 1+r
    ctx9 = build_field_ctx(3, 2)
    ns9 = smallest_nonsquare(ctx9)
    assert ns9.encoding == 4
    assert ns9 ** 4 == -ctx9.one()


def test_gram_examples():
    assert gram_matrix(QuadFunc.from_dense(3, [1]), 1).tolist() == [[1]]
    assert gram_matrix(QuadFunc.from_dense(3, [2, 1]), 1).tolist() == [[0]]


def test_gram_reproduces_trace_form(rng):
    # defining identity x B x^T = Tr(f(x)), with the right side evaluated
    # by scalar field arithmetic
    for _ in range(6):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        m = rng.randint(1, 3)
        N = m
        ctx = build_field_ctx(p, N)
        B = gram_matrix(f, m)
        for _ in range(40):
            x = ctx.from_encoding(rng.randrange(ctx.order))
            val = ctx.zero()
            for c, a in f.terms_in(ctx):
                val = val + c * x * x.frobenius(a)
            xv = np.array(x.coeffs)
            assert int(xv @ B @ xv % p) == val.trace()


def test_diagonalize_examples():
    d0 = diagonalize(np.zeros((4, 4), dtype=int), 3)
    assert (d0.rank, d0.nullity, d0.type_) == (0, 4, 1)
    d1 = diagonalize(np.diag([1, 2]), 5)
    assert (d1.rank, d1.type_) == (2, legendre(2, 5))
    d2 = diagonalize(np.array([[0, 1], [1, 0]]), 3)
    assert (d2.rank, d2.type_) == (2, -1)
    with pytest.raises(NotSymmetric):
        diagonalize(np.array([[0, 1], [2, 0]]), 3)


def _random_invertible(rng, N, p):
    while True:
        A = np.array([[rng.randrange(p) for _ in range(N)] for _ in range(N)])
        if round(np.linalg.det(A.astype(float))) % p:
            return A


def test_diagonalize_congruence_invariant(rng):
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        N = rng.randint(1, 6)
        B = np.array([[rng.randrange(p) for _ in range(N)] for _ in range(N)])
        B = (B + B.T) % p
        d = diagonalize(B, p)
        A = _random_invertible(rng, N, p)
        d2 = diagonalize(A @ B @ A.T % p, p)
        assert (d.rank, d.type_) == (d2.rank, d2.type_)


def test_type_direct_examples():
    assert type_direct(QuadFunc.from_dense(5, [1, 2, 3, 4, 1]), 1) == (1, 0)
    assert type_direct(QuadFunc.from_dense(3, [1, 2, 2, 2, 1]), 1) == (-1, 0)
    assert type_direct(QuadFunc.from_dense(7, [5, 6, 1]), 1) == (-1, 0)


def test_type_direct_independent_of_modulus():
    f = QuadFunc.from_dense(3, [1, 1])
    default = build_field_ctx(3, 4)
    other = build_field_ctx(3, 4, (1, 1, 1, 1, 1))  # 5th cyclotomic polynomial
    assert default.modulus != other.modulus
    assert type_direct(f, 4, ctx=default) == type_direct(f, 4, ctx=other)


def test_brute_force_examples():
    g3, g5 = gauss_cyclotomic(3), gauss_cyclotomic(5)
    assert brute_force_sum(QuadFunc.from_dense(3, [2]), 1) == -1 * g3
    assert brute_force_sum(QuadFunc.from_dense(5, [1]), 1) == g5
    assert brute_force_sum(QuadFunc.from_dense(5, [2, 1, 1, 2, 2]), 1) == -1 * g5


def test_brute_force_cap():
    with pytest.raises(TooLarge):
        brute_force_sum(QuadFunc.from_dense(3, [1]), 20)
    # explicit small cap
    with pytest.raises(TooLarge):
        brute_force_sum(QuadFunc.from_dense(3, [1]), 2, cap=8)
    # within the cap, but N*p^2 is past the exact float64 range
    with pytest.raises(TooLarge):
        brute_force_sum(QuadFunc.from_dense(100000007, [1]), 1, cap=10**9)


def test_enumeration_exact_at_large_prime():
    # (p-1)^3 > 2^53, so the tally is exact only because every partial
    # product is reduced mod p before the next one
    p, c = 1000003, 654321
    x = np.arange(p, dtype=np.int64)
    expected = np.bincount(x * x % p * c % p, minlength=p)
    assert (_trace_counts(QuadFunc.from_dense(p, [c]), 1, DEFAULT_CAP) == expected).all()


def test_closed_form_matches_brute(rng):
    # the trace form identity: sum over the field equals t g^r p^(N-r)
    for _ in range(25):
        p = rng.choice([3, 5])
        f = random_quadfunc(rng, p)
        m = rng.randint(1, 4)
        t, l = type_direct(f, m)
        assert brute_force_sum(f, m) == ExpSumValue(p, m, l, t).to_cyclotomic()


def test_type_direct_cross_check_against_gcd(rng):
    for _ in range(15):
        p = rng.choice([3, 5, 7])
        f = random_quadfunc(rng, p)
        m = rng.randint(1, 3)
        _, l = type_direct(f, m)
        assert l == nullity_at(f, m)


LARGE_PRIMES = (2**31 - 1, 4294967311, 2**61 - 1)


def _symmetrized_oracle(f, ctx):
    """(G + G^T)/2 of the oracle's G, in Python ints."""
    p = ctx.p
    G = _bilinear_matrix(f, ctx, _trace_hankel(ctx)).tolist()
    N = len(G)
    return [[(G[u][v] + G[v][u]) * pow(2, -1, p) % p for v in range(N)] for u in range(N)]


def test_gram_matrix_matches_bilinear_oracle(rng):
    # the matrix route (trace form, multiplication, Frobenius powers) and the
    # oracle's scalar route must give the same symmetric matrix, exactly,
    # also where (p-1)^2 is past 2^53 and 2^63
    for p in (3, 5, 7) + LARGE_PRIMES:
        for _ in range(4):
            f = random_quadfunc(rng, p)
            N = rng.randint(1, 3)
            ctx = build_field_ctx(p, N)
            assert gram_matrix(f, N).tolist() == _symmetrized_oracle(f, ctx), (p, f, N)


def test_gram_matrix_matches_bilinear_oracle_past_int64(rng):
    # p >= 2^63: the oracle's G and the context's modulus are Python ints
    p = P_PAST_INT64
    for N, modulus in ((1, None), (2, (p - 2, 0, 1)), (3, None)):
        ctx = build_field_ctx(p, N, modulus)
        for _ in range(2):
            f = random_quadfunc(rng, p)
            assert gram_matrix(f, N, ctx).tolist() == _symmetrized_oracle(f, ctx), (f, N)


def _bilinear_reference(f, ctx):
    """G[u, v] = Tr(x^u sum_i c_i (x^v)^(p^a_i)), one scalar product and
    trace per entry."""
    N = ctx.d
    basis = [ctx.from_encoding(ctx.p**u) for u in range(N)]
    G = [[0] * N for _ in range(N)]
    for c, a in f.terms_in(ctx):
        ys = [c * b.frobenius(a) for b in basis]
        for u, bu in enumerate(basis):
            for v, yv in enumerate(ys):
                G[u][v] = (G[u][v] + (bu * yv).trace()) % ctx.p
    return G


def _hankel_cases(rng):
    """(f, ctx) over GF(3^12), GF(5^8), GF(7^6), a GF(9) function read in
    GF(3^8), and primes past 2^31, 2^61 and 2^63 at N <= 3."""
    for p, N in ((3, 12), (5, 8), (7, 6)):
        yield random_quadfunc(rng, p), build_field_ctx(p, N)
    base = build_field_ctx(3, 2)
    coeffs = [base.from_encoding(rng.randrange(1, 9)) for _ in range(3)]
    yield QuadFunc.from_terms(base, [(c, a) for a, c in enumerate(coeffs)]), build_field_ctx(3, 8)
    for p in (2**31 - 1, 2**61 - 1, P_PAST_INT64):
        for N, modulus in ((1, None), (2, (p - 2, 0, 1) if p == P_PAST_INT64 else None), (3, None)):
            yield random_quadfunc(rng, p), build_field_ctx(p, N, modulus)


def test_bilinear_matrix_matches_per_entry_reference(rng):
    # one Hankel product per term against N^2 scalar products and traces;
    # Hc b against Tr(b x^u) one entry at a time
    for f, ctx in _hankel_cases(rng):
        Hc = _trace_hankel(ctx)
        assert _bilinear_matrix(f, ctx, Hc).tolist() == _bilinear_reference(f, ctx), (f, ctx)
        b = ctx.from_encoding(rng.randrange(1, ctx.order))
        lin = (Hc @ np.array(b.coeffs, dtype=Hc.dtype) % ctx.p).tolist()
        assert lin == [(b * ctx.from_encoding(ctx.p**u)).trace() for u in range(ctx.d)], (b, ctx)


def test_oracle_reads_no_gram_route(monkeypatch):
    # the oracle stays independent of the route it checks: with the trace
    # form, multiplication and Frobenius matrices and gram_matrix all raising,
    # it still gives the per-element tallies
    rng = random.Random(11)
    base9 = build_field_ctx(3, 2)
    coeffs = [base9.from_encoding(rng.randrange(1, 9)) for _ in range(3)]
    cases = [(random_quadfunc(rng, p), m) for p, m in ((3, 5), (5, 3), (7, 2))]
    cases.append((QuadFunc.from_terms(base9, [(c, a) for a, c in enumerate(coeffs)]), 2))
    expected = []
    for f, m in cases:
        b = f.ctx.from_encoding(rng.randrange(1, f.ctx.order))
        if f.n > 1:  # _find_root reads frob_mat_power
            embedding_roots(f.ctx, build_field_ctx(f.p, m * f.n))
        expected.append((b, *_reference_counts(f, m, b)))

    def banned(*args, **kwargs):
        raise AssertionError("the oracle read the Gram route")

    for name in ("trace_form", "mult_mat", "frob_mat_power"):
        monkeypatch.setattr(FieldCtx, name, banned)
    monkeypatch.setattr(quadform, "gram_matrix", banned)
    for (f, m), (b, plain, shifted) in zip(cases, expected):
        assert brute_force_sum(f, m) == cyc_from_trace_counts(f.p, plain), (f, m)
        assert brute_force_sum_shifted(f, b, m) == cyc_from_trace_counts(f.p, shifted), (f, m, b)


def test_enumeration_matches_binary_form_counts_at_large_prime():
    # p = 2003, N = 2: the lo C hi products reach about p^2.  A nondegenerate
    # binary form with discriminant det B takes each value r exactly
    # p + v(r) eta(-det B) times, v(0) = p - 1 and v(r) = -1 otherwise
    # (Lidl and Niederreiter, Thm 6.26)
    p = 2003
    etas = set()
    for coeffs in ([3, 5], [1, 7], [2, 0, 9]):
        f = QuadFunc.from_dense(p, coeffs)
        B = gram_matrix(f, 2)
        det = _linalg.det(B, p)
        assert det, coeffs
        eta = legendre(-det, p)
        etas.add(eta)
        counts = _trace_counts(f, 2, DEFAULT_CAP)
        assert counts[0] == p + (p - 1) * eta, coeffs
        assert (counts[1:] == p - eta).all(), coeffs
    assert etas == {1, -1}


def test_type_direct_exact_at_large_prime():
    # a nondegenerate binary form has type legendre(det); (p-1)^2 is past 2^63
    p = 4294967311
    ctx = build_field_ctx(p, 2)
    for coeffs, t in (([3, 5, 1], 1), ([2, 0, 7], -1)):
        f = QuadFunc.from_dense(p, coeffs)
        (a, b), (_, c) = _symmetrized_oracle(f, ctx)
        det = (a * c - b * b) % p
        assert det and legendre(det, p) == t
        assert type_direct(f, 2) == (t, 0)


def test_diagonalize_past_int64_matches_reference_elimination(rng):
    # B = C^T D C has rank at most k; the rank is the pivot count of the
    # pure-Python elimination and the type legendre of the Leibniz
    # determinant of B[P, P], P its pivot columns
    p = P_PAST_INT64
    for _ in range(40):
        N = rng.randint(1, 5)
        k = rng.randint(0, N)
        C = [[rng.randrange(p) for _ in range(N)] for _ in range(k)]
        D = [rng.randrange(p) for _ in range(k)]
        B = [[sum(C[t][i] * D[t] * C[t][j] for t in range(k)) % p for j in range(N)] for i in range(N)]
        _, P, _ = gauss_jordan(B, p)
        dg = diagonalize(np.array(B, dtype=object), p)
        assert (dg.rank, dg.nullity) == (len(P), N - len(P)), B
        assert dg.type_ == legendre(leibniz_det([[B[i][j] for j in P] for i in P], p), p), B


def test_type_direct_at_degree_one_past_int64(rng):
    # on GF(p), x^(p^a + 1) = x^2, so f(x) = (sum a_i) x^2: rank 1 and type
    # legendre(sum a_i), or nullity 1 when the sum vanishes.  The enumeration
    # oracle cannot follow here: it stops at p^N = 2*10^7 (DEFAULT_CAP).
    p = P_PAST_INT64
    ctx = build_field_ctx(p, 1)
    fs = [random_quadfunc(rng, p) for _ in range(20)]
    fs += [QuadFunc.from_terms(ctx, [(3, 0), (p - 1, 1), (p - 2, 2)]), QuadFunc.from_dense(p, [5, 0, p - 5])]
    for f in fs:
        total = sum(c.coeffs[0] for c, _ in f.terms) % p
        assert type_direct(f, 1) == ((legendre(total, p), 0) if total else (1, 1)), f


def test_matrix_kernel_nullity_exact_at_large_primes(rng):
    # x^2 + x^(p+1) and x^2 - x^(p+1) have nullity 1 over GF(p^2); the rest
    # are random
    for p in LARGE_PRIMES:
        for N in (2, 3):
            fs = [QuadFunc.from_dense(p, [1, 1]), QuadFunc.from_dense(p, [1, p - 1])]
            fs += [random_quadfunc(rng, p) for _ in range(4)]
            for f in fs:
                assert matrix_kernel_nullity(f, N) == nullity_at(f, N), (p, f, N)
    assert nullity_at(QuadFunc.from_dense(LARGE_PRIMES[1], [1, 1]), 2) == 1


def _reference_counts(f, m, b):
    """Tallies of Tr(f(x)) and of Tr(f(x) + b*x) over GF(p^(mn)), one element
    at a time."""
    ctx = build_field_ctx(f.p, m * f.n)
    terms = f.terms_in(ctx)
    b = embed_element(b.ctx, ctx, b)
    plain, shifted = [0] * f.p, [0] * f.p
    for x in ctx.elements():
        y = ctx.zero()
        for c, a in terms:
            y = y + c * x * x.frobenius(a)
        plain[y.trace()] += 1
        shifted[(y + b * x).trace()] += 1
    return plain, shifted


def _oracle_cases(limit):
    """(f, m) for every GF(p^N) with p^N <= limit over a GF(p) base, plus
    GF(9), GF(25) and GF(27) bases."""
    rng = random.Random(20261018)
    for p in range(3, limit + 1, 2):
        N = 1
        while is_prime(p) and p**N <= limit:
            yield random_quadfunc(rng, p), N
            N += 1
    for p, n in ((3, 2), (5, 2), (3, 3)):
        base = build_field_ctx(p, n)
        m = 1
        while p ** (m * n) <= limit:
            coeffs = [base.from_encoding(rng.randrange(base.order)) for _ in range(3)]
            coeffs.append(base.from_encoding(rng.randrange(1, base.order)))
            yield QuadFunc.from_terms(base, [(c, a) for a, c in enumerate(coeffs)]), m
            m += 1


def test_blocked_enumeration_matches_per_element_reference():
    # the lo/hi split covers N = 1 (an empty lo block), odd N and n > 1
    rng = random.Random(7)
    for f, m in _oracle_cases(3**7):
        p = f.p
        b = f.ctx.from_encoding(rng.randrange(1, f.ctx.order))
        plain, shifted = _reference_counts(f, m, b)
        assert list(_trace_counts(f, m, DEFAULT_CAP)) == plain, (f, m)
        assert list(_trace_counts(f, m, DEFAULT_CAP, linear=b)) == shifted, (f, m, b)
        assert brute_force_sum(f, m) == cyc_from_trace_counts(p, plain)
        assert brute_force_sum_shifted(f, b, m) == cyc_from_trace_counts(p, shifted)


def test_enumeration_tally_check_raises(monkeypatch):
    digit_rows = quadform._digit_rows
    monkeypatch.setattr(quadform, "_digit_rows", lambda *args: digit_rows(*args)[:-1])
    with pytest.raises(InternalInconsistency, match="tallied"):
        brute_force_sum(QuadFunc.from_dense(3, [1, 1]), 3)


def _block_cases():
    """(f, m) over GF(3^7), GF(5^4), GF(7^3) and a GF(9) function at m = 3."""
    rng = random.Random(15)
    cases = [(random_quadfunc(rng, p), N) for p, N in ((3, 7), (5, 4), (7, 3))]
    base9 = build_field_ctx(3, 2)
    coeffs = [base9.from_encoding(rng.randrange(1, 9)) for _ in range(3)]
    cases.append((QuadFunc.from_terms(base9, [(c, a) for a, c in enumerate(coeffs)]), 3))
    return cases


def test_enumeration_across_many_blocks_matches_per_element_reference(monkeypatch):
    # at the default _CHUNK each case is one block.  Chunk 16 splits hi into
    # several chunks and reduces every block mod p first (top >= 16); chunk
    # 256 takes several lo steps and folds every block's unreduced tally
    rng = random.Random(3)
    expected = []
    for f, m in _block_cases():
        b = f.ctx.from_encoding(rng.randrange(1, f.ctx.order))
        expected.append((f, m, b, *_reference_counts(f, m, b)))
    bincount, digit_rows = np.bincount, quadform._digit_rows
    bins, rows = [], []

    def counted_bincount(x, minlength):
        bins.append(minlength)
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    monkeypatch.setattr(quadform, "_digit_rows", lambda *args: rows.append(args) or digit_rows(*args))
    for f, m, b, plain, shifted in expected:
        kinds, hi_chunks, blocks = set(), {}, {}
        for chunk in (16, 64, 256):
            monkeypatch.setattr(quadform, "_CHUNK", chunk)
            for linear, reference in ((None, plain), (b, shifted)):
                bins.clear()
                rows.clear()
                assert list(_trace_counts(f, m, DEFAULT_CAP, linear=linear)) == reference, (chunk, f, m, linear)
                kinds |= {"folded" if n > f.p else "reduced" for n in bins}
                hi_chunks[chunk], blocks[chunk] = len(rows) - 1, len(bins)  # rows: lo, then each hi chunk
        assert hi_chunks[16] > 1 and blocks[256] > hi_chunks[256], (f, m, hi_chunks, blocks)
        assert kinds == {"folded", "reduced"}, (f, m)
    # p = 2003, N = 2: values reach about p^2, so every block is reduced first
    f = QuadFunc.from_dense(2003, [3, 5])
    monkeypatch.setattr(quadform, "_CHUNK", 1 << 17)
    whole = list(_trace_counts(f, 2, DEFAULT_CAP))
    monkeypatch.setattr(quadform, "_CHUNK", 1024)
    bins.clear()
    assert list(_trace_counts(f, 2, DEFAULT_CAP)) == whole
    assert set(bins) == {2003} and len(bins) > 2003


def test_trace_hankel_is_built_once_per_context_and_read_only():
    for p, N in ((3, 5), (5, 4), (7, 1), (2**61 - 1, 3)):
        ctx = build_field_ctx(p, N)
        Hc = _trace_hankel(ctx)
        assert _trace_hankel(ctx) is Hc and not Hc.flags.writeable
        with pytest.raises(ValueError):
            Hc[0, 0] = 1
        fresh = _trace_hankel.__wrapped__(FieldCtx(p, N, ctx.modulus))
        assert fresh.tolist() == Hc.tolist()
        x = ctx.gen()
        assert Hc.tolist() == [[(x ** (u + w)).trace() for w in range(N)] for u in range(N)], (p, N)


def test_bilinear_matrix_takes_no_scalar_frobenius(monkeypatch, rng):
    # row v of Y is c times row v of frob_images(a), which already holds
    # x^(v p^a); the values are checked against the per-entry reference in
    # test_bilinear_matrix_matches_per_entry_reference
    cases = list(_hankel_cases(rng))
    expected = [_bilinear_matrix(f, ctx, _trace_hankel(ctx)).tolist() for f, ctx in cases]

    def banned(self, j):
        raise AssertionError("_bilinear_matrix took a scalar Frobenius")

    monkeypatch.setattr(FieldElem, "frobenius", banned)
    for (f, ctx), G in zip(cases, expected):
        assert _bilinear_matrix(f, ctx, _trace_hankel(ctx)).tolist() == G, (f, ctx)


def _enumerated_form_sum(B, p):
    """sum over x in GF(p)^N of zeta^(x B x^T), one row per x: neither
    elimination nor diagonalization."""
    N = len(B)
    X = np.array(list(itertools.product(range(p), repeat=N)), dtype=np.int64).reshape(-1, N)
    values = np.einsum("xu,uv,xv->x", X, np.array(B, dtype=np.int64), X) % p
    return cyc_from_trace_counts(p, np.bincount(values, minlength=p))


def _random_symmetric(rng, p, N, kind):
    if kind == "rank_deficient":  # C D C^T with C of width k < N
        k = rng.randrange(N)
        C = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(N)], dtype=np.int64).reshape(N, k)
        D = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        return (C * D) @ C.T % p
    A = np.array([[rng.randrange(p) for _ in range(N)] for _ in range(N)], dtype=np.int64)
    B = (A + A.T) % p
    if kind == "hyperbolic":
        np.fill_diagonal(B, 0)
    return B


def test_diagonalize_matches_enumerated_sum(rng):
    # the sum over GF(p)^N of zeta^Q(x) is t g^r p^(N-r) for the rank r and
    # type t of Q: the pivot-minor rule against the definition
    kinds = ("random", "hyperbolic", "rank_deficient")
    seen = set()
    for p in (3, 5, 7):
        for N in range(1, 6):
            for kind in kinds * 2:
                B = _random_symmetric(rng, p, N, kind)
                dg = diagonalize(B, p)
                assert dg.rank + dg.nullity == N
                expected = ExpSumValue(p, N, dg.nullity, dg.type_).to_cyclotomic()
                assert _enumerated_form_sum(B, p) == expected, (p, kind, B.tolist())
                seen.add((kind, dg.rank == N, dg.type_))
    # each kind reached both types; zero diagonals both full and deficient rank
    assert {(kind, t) for kind, _, t in seen} == {(k, t) for k in kinds for t in (1, -1)}
    assert {("hyperbolic", True), ("hyperbolic", False), ("rank_deficient", False)} <= {k[:2] for k in seen}


CHARACTER_FIELDS = ((3, 7), (5, 4), (7, 3), (2**31 - 1, 2), (P_PAST_INT64, 2))


@given(st.sampled_from(CHARACTER_FIELDS), st.lists(st.integers(0, 2**64), min_size=7, max_size=7))
@settings(max_examples=60, deadline=None)
def test_elem_quadratic_character_is_euler(field, coords):
    # the norm route against Euler's criterion a^((q-1)/2) = +-1 in the field
    p, d = field
    ctx = build_field_ctx(p, d)
    a = ctx.elem([c % p for c in coords[:d]])
    if a.is_zero():
        assert elem_quadratic_character(a) == 0
        return
    r = a ** ((ctx.order - 1) // 2)
    assert r in (ctx.one(), -ctx.one())
    assert elem_quadratic_character(a) == (1 if r == ctx.one() else -1)


@pytest.mark.parametrize("p, d", [(p, d) for p in (3, 5, 7) for d in (1, 2, 3, 4)] + [(P_PAST_INT64, 3)])
def test_elem_quadratic_character_of_prime_field_elements(p, d, rng):
    # c in GF(p)* has Norm(c) = c^d: the closed form against Euler's criterion
    ctx = build_field_ctx(p, d)
    cs = range(1, p) if p < 10 else [1, 2, 3, 5, p - 1] + [rng.randrange(1, p) for _ in range(5)]
    for c in cs:
        a = ctx.elem(c)
        assert elem_quadratic_character(a) == (1 if a ** ((ctx.order - 1) // 2) == ctx.one() else -1), (p, d, c)


def test_zero_norm_of_nonzero_element_raises(monkeypatch):
    monkeypatch.setattr(_linalg, "det", lambda A, p: 0)
    with pytest.raises(InternalInconsistency, match="norm zero"):
        elem_quadratic_character(build_field_ctx(5, 2).gen())


def _full_scan_nonsquare(ctx):
    for code in range(1, ctx.order):
        x = ctx.from_encoding(code)
        if x ** ((ctx.order - 1) // 2) == -ctx.one():
            return x


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_smallest_nonsquare_equals_full_scan(p):
    for d in (1, 2, 4):
        ctx = build_field_ctx(p, d)
        assert smallest_nonsquare(ctx) == _full_scan_nonsquare(ctx), (p, d)


def test_smallest_nonsquare_skips_prime_field_in_even_degree(monkeypatch):
    # every element of GF(p) is a square in GF(p^2): no character call for them
    calls = []
    character = quadform.elem_quadratic_character
    monkeypatch.setattr(quadform, "elem_quadratic_character", lambda a: calls.append(a) or character(a))
    ctx = build_field_ctx(1000003, 2)
    beta = smallest_nonsquare(ctx)
    assert beta.encoding >= ctx.p and character(beta) == -1
    assert len(calls) < 100


def test_smallest_nonsquare_scans_once_per_context(monkeypatch):
    calls = []
    character = quadform.elem_quadratic_character
    monkeypatch.setattr(quadform, "elem_quadratic_character", lambda a: calls.append(a) or character(a))
    ctx = FieldCtx(7, 3)  # a fresh context, not the shared one
    beta = smallest_nonsquare(ctx)
    scanned = len(calls)
    assert scanned == beta.encoding and character(beta) == -1
    assert smallest_nonsquare(ctx) is beta and len(calls) == scanned
