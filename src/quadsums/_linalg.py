"""Gaussian elimination mod p on numpy matrices of residues: the one
elimination over GF(p), behind kernels, solutions and determinants.

Each pivot clears its column by one in-place rank-1 update of the whole
matrix, R <- (R - c r) mod p, with r the pivot row (scaled to pivot 1) and
c the pivot column with its own row's entry set to 0, so the pivot row is
unchanged.  Before the reduction the entries of R - c r lie in
[-(p-1)^2, p-1], so the matrices are int64 while (p-1)^2 < 2^63 and Python
ints (``dtype=object``) beyond that (``_primepoly.exact_dtype(p, 1)``); the
results are exact for every p."""

from __future__ import annotations

import numpy as np

from ._primepoly import exact_dtype
from .errors import InternalInconsistency


def row_echelon(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """(R, pivot columns, scale): R is the reduced row echelon form of A
    mod p, and scale the product of the pivots, negated once per row swap.
    Row additions keep the determinant, so det A = scale * det R."""
    R = np.array(A, dtype=exact_dtype(p, 1)) % p
    rows, cols = R.shape
    pivots: list[int] = []
    scale = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
            scale = -scale
        scale = scale * int(R[r, c]) % p
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        col = R[:, c].copy()
        col[r] = 0
        R -= col[:, None] * R[r]
        R %= p
        pivots.append(c)
        r += 1
    return R, pivots, scale


def det(A: np.ndarray, p: int) -> int:
    """Determinant mod p of a square matrix (1 for the empty one): R is the
    identity when A is nonsingular, else A has fewer pivots than rows."""
    _, pivots, scale = row_echelon(A, p)
    return scale if len(pivots) == len(A) else 0


def kernel_dim(A: np.ndarray, p: int) -> int:
    return A.shape[1] - len(row_echelon(A, p)[1])


def kernel_basis(A: np.ndarray, p: int) -> list[list[int]]:
    """Basis of the kernel of A mod p, one vector per free column f, in
    increasing f: x[f] = 1, the other free entries 0, and x[c] = -R[r, f]
    for the pivot c of row r."""
    R, pivots, _ = row_echelon(A, p)
    basis = []
    for f in sorted(set(range(A.shape[1])) - set(pivots)):
        x = [0] * A.shape[1]
        x[f] = 1
        for r, c in enumerate(pivots):
            x[c] = -int(R[r, f]) % p
        basis.append(x)
    return basis


def krylov(M: np.ndarray, k: int, p: int) -> np.ndarray:
    """The Krylov columns e_0, M e_0, ..., M^k e_0 of the square M mod p,
    in M's dtype, by k matrix-vector products (e_0 is empty when M is)."""
    K = np.zeros((len(M), k + 1), dtype=M.dtype)
    K[:1, 0] = 1
    for i in range(k):
        K[:, i + 1] = M @ K[:, i] % p
    return K


def krylov_mu(K: np.ndarray, p: int) -> list[int]:
    """The minimal polynomial of M on v, monic with ascending coefficients,
    from the Krylov columns v, M v, M^2 v, ... of K: with the first r
    independent, the reduced echelon form's column r holds M^r v on them."""
    R, pivots, _ = row_echelon(K, p)
    r = len(pivots)
    if r == K.shape[1]:
        raise InternalInconsistency(f"the Krylov sequence has no dependency within {r - 1} steps")
    return [-int(c) % p for c in R[:r, r]] + [1]


def solve(A: np.ndarray, b, p: int) -> np.ndarray | None:
    """One solution of A x = b mod p with free variables set to 0,
    or None when the system is inconsistent."""
    rows, cols = A.shape
    aug = np.zeros((rows, cols + 1), dtype=exact_dtype(p, 1))
    aug[:, :cols] = A
    aug[:, cols] = b
    R, pivots, _ = row_echelon(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=R.dtype)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols]
    return x
