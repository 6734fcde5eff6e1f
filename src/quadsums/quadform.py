"""Base-case type/nullity via Gram-matrix diagonalization, and the
brute-force summation oracle.

Tr_N(f(x)) is a quadratic form on GF(p)^N once GF(p^N) is identified with
coordinate vectors.  For a term c x^(p^a + 1), Tr(x * c x^(p^a)) = x^T H
M_c F^a x, where H[u, w] = Tr(x^(u+w)) is the trace form, M_c is
multiplication by c and F^a is the a-th power of Frobenius (all cached by
the :class:`FieldCtx`).  So the Gram matrix is G = sum_i H M_(c_i) F^(a_i)
and B = (G + G^T)/2: three matrix products per term, reduced mod p after
every sum and product, in the context's exact dtype (int64, or Python ints
for large p; see :mod:`quadsums.fieldcore`), so B is exact for every p.
Diagonalization is symmetric congruence reduction mod p, in
``exact_dtype(p, 1)`` since it multiplies two residues at a time.  No
nullity backend is called here: the evaluator checks the diagonalization's
nullity against the closed-form profile (:mod:`quadsums.nullity`).

The brute-force oracle enumerates every x in GF(p^N), tallies Tr_N(f(x))
by residue and returns the exact element of Z[zeta_p].  Tr_N(f(x)) = x G x^T
with G built entry by entry from scalar field arithmetic (Frobenius, product,
trace), never from the Gram-matrix route.  The enumeration is blocked: with
x = (lo, hi), lo the first k = N // 2 coordinates,

    Q(x) = Q(lo) + Q(hi) + lo C hi^T,    C = G_lh + G_hl^T,

and the linear term of a shifted sum splits the same way.  Each block of
values is one outer sum of Q(lo) and Q(hi) plus one float64 matrix product,
and digits are decoded for p^k + p^(N-k) rows only.  This is the only
float64 arithmetic in the package.  Every partial product is reduced mod p
before the next one, so every summand is below N*p^2; under DEFAULT_CAP
(p^N <= 2*10^7) that is at most 4*10^14, far below 2^53, where float64
stops being exact.  Enumerations past that bound raise TooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._primepoly import exact_dtype
from .cyclotomic import CyclotomicInt, cyc_from_trace_counts
from .errors import InternalInconsistency, InvalidInput, NotSymmetric, TooLarge
from .fieldcore import FieldCtx, FieldElem, build_field_ctx, embed_element
from .nullity import QuadFunc

DEFAULT_CAP = 20_000_000
_CHUNK = 1 << 17


def legendre(a: int, p: int) -> int:
    """Quadratic character of GF(p): 0 on multiples of p, +1 on nonzero
    squares, -1 otherwise."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def elem_quadratic_character(a: FieldElem) -> int:
    """Quadratic character of GF(p^d) evaluated by exact exponentiation."""
    if a.is_zero():
        return 0
    r = a ** ((a.ctx.order - 1) // 2)
    if r == a.ctx.one():
        return 1
    if r == -a.ctx.one():
        return -1
    raise InternalInconsistency("character value outside {+1,-1}")


def smallest_nonsquare(ctx: FieldCtx) -> FieldElem:
    """Non-square of GF(p^d) with the smallest integer encoding."""
    for code in range(1, ctx.order):
        x = ctx.from_encoding(code)
        if elem_quadratic_character(x) == -1:
            return x
    raise InternalInconsistency("no nonsquare found; field of odd order > 1 must have one")


def _embedded_terms(f: QuadFunc, ctx_big: FieldCtx) -> list[tuple[FieldElem, int]]:
    return [
        (c if ctx_big.key == f.ctx.key else embed_element(f.ctx, ctx_big, c), a)
        for c, a in f.terms
    ]


# -- Gram matrix and congruence diagonalization ---------------------------------


def gram_matrix(f: QuadFunc, m: int, ctx: FieldCtx | None = None) -> np.ndarray:
    """Symmetric N x N matrix over GF(p), N = m*n, with x B x^T = Tr_N(f(x))
    on coordinates of the supplied (or default) context."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    N = m * f.n
    ctx_big = ctx or build_field_ctx(f.p, N)
    if ctx_big.d != N:
        raise InvalidInput("context degree does not match m*n")
    p = f.p
    H = ctx_big.trace_form()
    G = 0
    for c, a in _embedded_terms(f, ctx_big):
        y = ctx_big.mult_mat(c) @ ctx_big.frob_mat_power(a) % p  # z -> c z^(p^a)
        G = (G + H @ y % p) % p
    return (G + G.T) % p * pow(2, -1, p) % p


@dataclass(frozen=True)
class QuadFormDiag:
    """Result of congruence diagonalization: diagonal entries (zeros
    included), rank, nullity, and type."""

    p: int
    dim: int
    diag: tuple[int, ...]
    rank: int
    nullity: int
    type_: int


def diagonalize(B: np.ndarray, p: int) -> QuadFormDiag:
    """Symmetric congruence reduction of B mod p.

    Pivot policy (fixed for determinism): use the first nonzero diagonal
    entry of the active block; if the whole active diagonal vanishes but
    some off-diagonal entry M[u,v] does not, replace e_u by e_u + e_v to
    expose 2*M[u,v] on the diagonal.  Only (rank, type) are contractual.
    """
    M = np.array(B, dtype=exact_dtype(p, 1)) % p
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("matrix is not square")
    if (M != M.T).any():
        raise NotSymmetric("matrix is not symmetric")
    N = M.shape[0]
    diag: list[int] = []
    i = 0
    while i < N:
        if M[i, i] == 0:
            cand = np.nonzero(np.diag(M)[i:])[0]
            if len(cand):
                u = i + int(cand[0])
                M[[i, u]] = M[[u, i]]
                M[:, [i, u]] = M[:, [u, i]]
            else:
                uv = np.nonzero(np.triu(M[i:, i:], 1))
                if len(uv[0]) == 0:
                    break  # zero active block: remaining dims are radical
                order = np.lexsort((uv[1], uv[0]))
                u = i + int(uv[0][order[0]])
                v = i + int(uv[1][order[0]])
                M[u] = (M[u] + M[v]) % p
                M[:, u] = (M[:, u] + M[:, v]) % p
                if u != i:
                    M[[i, u]] = M[[u, i]]
                    M[:, [i, u]] = M[:, [u, i]]
        d = int(M[i, i])
        inv_d = pow(d, -1, p)
        c = M[i + 1 :, i] * inv_d % p
        M[i + 1 :, :] = (M[i + 1 :, :] - np.outer(c, M[i, :])) % p
        M[:, i + 1 :] = (M[:, i + 1 :] - np.outer(M[:, i], c)) % p
        diag.append(d)
        i += 1
    rank = len(diag)
    full_diag = tuple(diag) + (0,) * (N - rank)
    prod = 1
    for d in diag:
        prod = prod * d % p
    t = 1 if rank == 0 else legendre(prod, p)
    return QuadFormDiag(p=p, dim=N, diag=full_diag, rank=rank, nullity=N - rank, type_=t)


def type_direct(f: QuadFunc, m: int, ctx: FieldCtx | None = None) -> tuple[int, int]:
    """(type, nullity) of Tr_{mn}(f) by Gram-matrix diagonalization.  The
    nullity is the diagonalization's own; the caller checks it against the
    closed-form profile."""
    dg = diagonalize(gram_matrix(f, m, ctx), f.p)
    return dg.type_, dg.nullity


# -- brute-force oracle ----------------------------------------------------------


def _bilinear_matrix(f: QuadFunc, ctx_big: FieldCtx) -> np.ndarray:
    """G with Tr(f(sum x_u b_u)) = x G x^T, entries Tr(a_i b_u b_v^(p^a_i))
    computed by scalar field arithmetic on the power basis."""
    N = ctx_big.d
    basis = [ctx_big.from_encoding(ctx_big.p**u) for u in range(N)]
    G = np.zeros((N, N), dtype=exact_dtype(ctx_big.p, 1))
    for c, a in _embedded_terms(f, ctx_big):
        ys = [c * b.frobenius(a) for b in basis]
        for u, bu in enumerate(basis):
            for v, yv in enumerate(ys):
                G[u, v] = (G[u, v] + (bu * yv).trace()) % ctx_big.p
    return G


def _digit_rows(p: int, k: int, start: int, stop: int) -> np.ndarray:
    """Coordinate rows of the encodings start..stop-1 of GF(p)^k (base-p
    digits, lowest first), as float64."""
    idx = np.arange(start, stop, dtype=np.int64)
    pows = p ** np.arange(k, dtype=np.int64)
    return ((idx[:, None] // pows) % p).astype(np.float64)


def _block_form(X: np.ndarray, B: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """x B x^T + x w^T mod p for every row x of X."""
    return np.mod((np.mod(X @ B, p) * X).sum(axis=1) + X @ w, p)


def _trace_counts(f: QuadFunc, m: int, cap: int, linear=None) -> np.ndarray:
    N = m * f.n
    p = f.p
    size = p**N
    if size > cap:
        raise TooLarge(f"p^N = {size} exceeds cap {cap}")
    if N * p * p >= 2**53:
        raise TooLarge(f"N*p^2 = {N * p * p} is past the exact float64 range of the enumeration")
    ctx_big = build_field_ctx(p, N)
    G = _bilinear_matrix(f, ctx_big).astype(np.float64)
    lin = np.zeros(N)
    if linear is not None:
        linear = ctx_big.elem(linear) if not isinstance(linear, FieldElem) else linear
        if linear.ctx.key != ctx_big.key:
            linear = embed_element(linear.ctx, ctx_big, linear)
        lin = np.array(
            [(linear * ctx_big.from_encoding(p**u)).trace() for u in range(N)], dtype=np.float64
        )
    # x = (lo, hi): Q(x) = Q(lo) + Q(hi) + lo C hi^T with C = G_lh + G_hl^T
    k = N // 2
    C = np.mod(G[:k, k:] + G[k:, :k].T, p)
    lo = _digit_rows(p, k, 0, p**k)
    q_lo = _block_form(lo, G[:k, :k], lin[:k], p)
    lo_C = np.mod(lo @ C, p)
    counts = np.zeros(p, dtype=np.int64)
    n_hi = p ** (N - k)
    for h0 in range(0, n_hi, _CHUNK):
        hi = _digit_rows(p, N - k, h0, min(h0 + _CHUNK, n_hi))
        q_hi = _block_form(hi, G[k:, k:], lin[k:], p)
        step = max(1, _CHUNK // len(hi))
        for l0 in range(0, len(lo), step):
            tr = lo_C[l0 : l0 + step] @ hi.T + q_lo[l0 : l0 + step, None] + q_hi
            tally = np.bincount(np.mod(tr, p).astype(np.int64).ravel())
            counts[: len(tally)] += tally
    if counts.sum() != size:
        raise InternalInconsistency(f"tallied {counts.sum()} elements of {size}")
    return counts


def brute_force_sum(f: QuadFunc, m: int, cap: int = DEFAULT_CAP) -> CyclotomicInt:
    """Definitional oracle: enumerate GF(p^{mn}), tally Tr(f(x)) per residue,
    return the exact sum in Z[zeta_p]."""
    return cyc_from_trace_counts(f.p, _trace_counts(f, m, cap))


def brute_force_sum_shifted(f: QuadFunc, b, m: int, cap: int = DEFAULT_CAP) -> CyclotomicInt:
    """Oracle for the affinely shifted sum over GF(p^{mn}) of
    e(f(x) + b*x)."""
    return cyc_from_trace_counts(f.p, _trace_counts(f, m, cap, linear=b))
