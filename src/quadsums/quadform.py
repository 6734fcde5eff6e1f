"""Base-case type and nullity from the Gram matrix, and the brute-force
summation oracle.

Tr_N(f(x)) is a quadratic form on GF(p)^N once GF(p^N) is identified with
coordinate vectors.  For a term c x^(p^a + 1), Tr(x * c x^(p^a)) = x^T H
M_c F^a x, where H[u, w] = Tr(x^(u+w)) is the trace form, M_c is
multiplication by c and F^a is the a-th power of Frobenius (all cached by
the :class:`FieldCtx`).  So the Gram matrix is G = sum_i H M_(c_i) F^(a_i)
and B = (G + G^T)/2: three matrix products per term, reduced mod p after
every sum and product, in the context's exact dtype (int64, or Python ints
for large p; see :mod:`quadsums.fieldcore`), so B is exact for every p.
Its rank and type come from the one elimination of :mod:`quadsums._linalg`
by the pivot-minor rule (``diagonalize``): with P the pivot columns of B,
B is congruent to B[P, P] plus a zero block, so the rank is |P| and the
type legendre(det B[P, P]).  No nullity backend is called here: the
evaluator checks this nullity against the closed-form profile
(:mod:`quadsums.nullity`).

The brute-force oracle enumerates every x in GF(p^N), tallies Tr_N(f(x))
by residue and returns the exact element of Z[zeta_p].  Tr_N(f(x)) = x G x^T
with G[u, v] = Tr(x^u y_v), y_v = sum_i c_i (x^v)^(p^(a_i)).  The trace is
GF(p)-linear, so Tr(x^u y) = sum_w y_w Tr(x^(u+w)): each term adds Hc Y^T,
with Hc[u, w] = Tr(x^(u+w)) a Hankel matrix of conjugate sums, built once
per context and kept read-only, and Y[v] = c x^(v p^a), c times row v of
the context's Frobenius images; a shifted sum's linear vector is Hc b.  All
of it is in the exact dtype, reduced mod p after every product and sum.  The
oracle reads none of the Gram route's ``trace_form`` (Newton's identities),
``mult_mat``, ``frob_mat_power`` or ``gram_matrix``.

The enumeration is blocked: with x = (lo, hi), lo the first k = N // 2
coordinates,

    Q(x) = lo C hi^T + Q(lo) + Q(hi) = [lo C | Q(lo) | 1] [hi^T ; 1 ; Q(hi)],

C = G_lh + G_hl^T, and the linear term of a shifted sum splits the same
way.  Each block of values is one float64 product of the two augmented
operands, and digits are decoded for p^k + p^(N-k) rows only.  This is the
only float64 arithmetic in the package.  lo C, Q(lo) and Q(hi) are reduced
mod p first, so a value is an integer at most

    top = (N - k)(p - 1)^2 + 2(p - 1) < N p^2,

and so is every partial sum; ``enumeration_size`` keeps N p^2 below 2^53,
where float64 stops being exact.  When top + 1 is at most the block's
length (small p, or N large enough), the block's int64 values are tallied
unreduced into top + 1 bins, folded mod p once after the loop; otherwise
(large p, small N) the block is reduced mod p in place before its tally.
An enumeration with p^N past the cap (DEFAULT_CAP = 2*10^7) or N p^2 past
2^53 raises TooLarge (``enumeration_size``, which ``verify`` calls before
it evaluates).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._primepoly import exact_dtype
from .cyclotomic import CyclotomicInt, cyc_from_trace_counts
from .errors import InternalInconsistency, InvalidInput, NotSymmetric, TooLarge
from .fieldcore import FieldCtx, FieldElem, build_field_ctx, embed_element
from .nullity import QuadFunc

DEFAULT_CAP = 20_000_000
_CHUNK = 1 << 15


def legendre(a: int, p: int) -> int:
    """Quadratic character of GF(p): 0 on multiples of p, +1 on nonzero
    squares, -1 otherwise."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def elem_quadratic_character(a: FieldElem) -> int:
    """Quadratic character of GF(p^d): a^((q-1)/2) = Norm(a)^((p-1)/2), and
    Norm(a) = det M_a, so it is legendre(det M_a).  An element c of GF(p)
    needs no determinant: Norm(c) = c^d, so its character is legendre(c)^d,
    -1 only for a nonsquare of GF(p) at odd d."""
    if a.is_zero():
        return 0
    p = a.ctx.p
    if not any(a.coeffs[1:]):
        return legendre(a.coeffs[0], p) ** a.ctx.d
    t = legendre(_linalg.det(a.ctx.mult_mat(a), p), p)
    if t == 0:
        raise InternalInconsistency("nonzero element of norm zero")
    return t


def smallest_nonsquare(ctx: FieldCtx) -> FieldElem:
    """Non-square of GF(p^d) with the smallest integer encoding, found once
    per context.  For even d every element of GF(p) (codes below p) is a
    square, so the scan starts at code p."""
    beta = ctx._cache.get("nonsquare")
    if beta is None:
        for code in range(ctx.p if ctx.d % 2 == 0 else 1, ctx.order):
            x = ctx.from_encoding(code)
            if elem_quadratic_character(x) == -1:
                beta = ctx._cache["nonsquare"] = x
                break
        else:
            raise InternalInconsistency("no nonsquare found; field of odd order > 1 must have one")
    return beta


# -- Gram matrix and its rank and type ------------------------------------------


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
    for c, a in f.terms_in(ctx_big):
        y = ctx_big.mult_mat(c) @ ctx_big.frob_mat_power(a) % p  # z -> c z^(p^a)
        G = (G + H @ y % p) % p
    return (G + G.T) % p * pow(2, -1, p) % p


@dataclass(frozen=True)
class QuadFormDiag:
    """Rank, nullity and type of a symmetric form over GF(p)."""

    p: int
    dim: int
    rank: int
    nullity: int
    type_: int


def diagonalize(B: np.ndarray, p: int) -> QuadFormDiag:
    """Rank and type of the symmetric form B mod p, by the pivot-minor
    rule: with P the pivot columns of ``row_echelon(B)``, the rank is |P|
    and the type is legendre(det B[P, P]) (1 at rank 0).

    Proof: the columns P are a basis of the column space, so by symmetry
    the rows P are a basis of the row space.  Every column is a combination
    of the columns P, so B[P, :] = B[P, P] C for some C, and B[P, P] has
    the rank |P| of B[P, :]: it is nonsingular.  So the span W of the unit
    vectors e_i, i in P, meets the radical only in 0, and as dim W + dim
    radical = N, the form is B[P, P] on W, orthogonal to the radical.  The
    type, the character of the discriminant of the nondegenerate part, is
    then legendre(det B[P, P])."""
    M = np.array(B, dtype=exact_dtype(p, 1)) % p
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("matrix is not square")
    if (M != M.T).any():
        raise NotSymmetric("matrix is not symmetric")
    N = M.shape[0]
    _, P, scale = _linalg.row_echelon(M, p)  # scale = det M when P is everything
    t = legendre(scale if len(P) == N else _linalg.det(M[np.ix_(P, P)], p), p)
    if t == 0:
        raise InternalInconsistency("pivot minor of a symmetric matrix is singular")
    return QuadFormDiag(p=p, dim=N, rank=len(P), nullity=N - len(P), type_=t)


def type_direct(f: QuadFunc, m: int, ctx: FieldCtx | None = None) -> tuple[int, int]:
    """(type, nullity) of Tr_{mn}(f) by Gram-matrix diagonalization.  The
    nullity is the diagonalization's own; the caller checks it against the
    closed-form profile."""
    dg = diagonalize(gram_matrix(f, m, ctx), f.p)
    return dg.type_, dg.nullity


# -- brute-force oracle ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _trace_hankel(ctx: FieldCtx) -> np.ndarray:
    """Hc[u, w] = Tr(x^(u+w)), read-only and built once per context:
    ``basis_traces`` for u + w < N, and the ``trace`` of x^N, ..., x^(2N-2)
    by N - 1 multiplications by x."""
    N = ctx.d
    s = list(ctx.basis_traces())
    x, xk = ctx.gen(), ctx.from_encoding(ctx.p ** (N - 1))
    for _ in range(N - 1):
        xk = xk * x
        s.append(xk.trace())
    Hc = np.array(s, dtype=exact_dtype(ctx.p, N))[np.add.outer(np.arange(N), np.arange(N))]
    Hc.setflags(write=False)
    return Hc


def _bilinear_matrix(f: QuadFunc, ctx_big: FieldCtx, Hc: np.ndarray) -> np.ndarray:
    """G with Tr(f(sum x_u b_u)) = x G x^T on the power basis b_u = x^u: per
    term, Hc Y^T mod p with Y[v] = c x^(v p^a), c times row v of
    ``frob_images(a)`` (see the module docstring)."""
    p, N = ctx_big.p, ctx_big.d
    G = np.zeros((N, N), dtype=Hc.dtype)
    for c, a in f.terms_in(ctx_big):
        Y = np.array([(c * FieldElem(ctx_big, row)).coeffs for row in ctx_big.frob_images(a)], dtype=Hc.dtype)
        G = (G + Hc @ Y.T % p) % p
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


def enumeration_size(p: int, N: int, cap: int) -> int:
    """p^N, the number of elements the oracle enumerates over GF(p^N);
    TooLarge past the cap or where N*p^2 leaves the exact float64 range."""
    size = p**N
    if size > cap:
        raise TooLarge(f"p^N = {size} exceeds cap {cap}")
    if N * p * p >= 2**53:
        raise TooLarge(f"N*p^2 = {N * p * p} is past the exact float64 range of the enumeration")
    return size


def _trace_counts(f: QuadFunc, m: int, cap: int, linear=None) -> np.ndarray:
    N = m * f.n
    p = f.p
    size = enumeration_size(p, N, cap)
    ctx_big = build_field_ctx(p, N)
    Hc = _trace_hankel(ctx_big)
    G = _bilinear_matrix(f, ctx_big, Hc).astype(np.float64)
    lin = np.zeros(N)
    if linear is not None:
        linear = linear if isinstance(linear, FieldElem) else ctx_big.elem(linear)
        linear = embed_element(linear.ctx, ctx_big, linear)
        lin = (Hc @ np.array(linear.coeffs, dtype=Hc.dtype) % p).astype(np.float64)
    # x = (lo, hi): Q(x) = lo C hi^T + Q(lo) + Q(hi) = [lo C | Q(lo) | 1] [hi^T ; 1 ; Q(hi)]
    k = N // 2
    C = np.mod(G[:k, k:] + G[k:, :k].T, p)
    lo = _digit_rows(p, k, 0, p**k)
    lo_aug = np.column_stack((np.mod(lo @ C, p), _block_form(lo, G[:k, :k], lin[:k], p), np.ones(len(lo))))
    top = (N - k) * (p - 1) ** 2 + 2 * (p - 1)  # the largest value of a block
    # tallies of unreduced values; a block is at most _CHUNK long, so only
    # a top below _CHUNK can ever be folded
    raw = np.zeros(top + 1 if top < _CHUNK else 0, dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    n_hi = p ** (N - k)
    for h0 in range(0, n_hi, _CHUNK):
        hi = _digit_rows(p, N - k, h0, min(h0 + _CHUNK, n_hi))
        hi_aug = np.vstack((hi.T, np.ones(len(hi)), _block_form(hi, G[k:, k:], lin[k:], p)))
        step = max(1, _CHUNK // len(hi))
        shape = (min(step, len(lo)), len(hi))  # one float64 and one int64 buffer per hi chunk
        prod, vals = np.empty(shape), np.empty(shape, dtype=np.int64)
        for l0 in range(0, len(lo), step):
            rows = min(step, len(lo) - l0)
            np.matmul(lo_aug[l0 : l0 + rows], hi_aug, out=prod[:rows])
            np.copyto(vals[:rows], prod[:rows], casting="unsafe")
            tr = vals[:rows].ravel()  # a view: vals is C-contiguous
            if top < len(tr):
                raw += np.bincount(tr, minlength=top + 1)
            else:
                counts += np.bincount(np.remainder(tr, p, out=tr), minlength=p)
    counts += np.pad(raw, (0, -len(raw) % p)).reshape(-1, p).sum(axis=0)  # fold mod p
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
