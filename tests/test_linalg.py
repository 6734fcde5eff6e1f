"""The one elimination over GF(p): determinants against the Leibniz sum, and
the whole (R, pivots, scale) contract against a pure-Python Gauss-Jordan
elimination."""

import numpy as np
import pytest

from quadsums import _linalg
from tests.linref import P_PAST_INT64, gauss_jordan, leibniz_det


@pytest.mark.parametrize("p", [3, 7, 2**61 - 1])
def test_det_matches_leibniz(p, rng):
    assert _linalg.det(np.zeros((0, 0), dtype=np.int64), p) == 1
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:  # singular: a row repeated with a scale
            A[-1] = [c * rng.randrange(p) % p for c in A[0]]
        M = np.array(A, dtype=object if p > 2**31 else np.int64)
        assert _linalg.det(M, p) == leibniz_det(A, p), (p, A)


def _matrices(rng, p):
    """Random, low-rank, row-repeating and zero matrices up to 30 x 30,
    square in about a third of the draws."""
    for kind in ("random", "low_rank", "repeated", "zero") * 10:
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        if rng.random() < 0.3:
            rows = cols
        if kind == "random":
            yield [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        elif kind == "low_rank":  # C D with C rows x k and D k x cols
            k = rng.randint(0, min(rows, cols) - 1)
            C = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
            D = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
            yield [[sum(C[i][t] * D[t][j] for t in range(k)) % p for j in range(cols)] for i in range(rows)]
        elif kind == "repeated":  # rows that are multiples of earlier ones
            A = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            for i in range(1, rows):
                if rng.random() < 0.5:
                    s, src = rng.randrange(p), rng.randrange(i)
                    A[i] = [s * x % p for x in A[src]]
            yield A
        else:
            yield [[0] * cols for _ in range(rows)]


@pytest.mark.parametrize("p", [3, 5, 7, 2**61 - 1, P_PAST_INT64])
def test_row_echelon_matches_gauss_jordan(p, rng):
    for A in _matrices(rng, p):
        M = np.array(A, dtype=np.int64 if p < 2**63 else object)
        R, pivots, scale = _linalg.row_echelon(M, p)
        R_ref, pivots_ref, scale_ref = gauss_jordan(A, p)
        assert R.tolist() == R_ref and pivots == pivots_ref and scale % p == scale_ref, (p, A)
        if len(A) == len(A[0]):
            assert _linalg.det(M, p) == (scale_ref if len(pivots_ref) == len(A) else 0)


@pytest.mark.parametrize("p", [7, 2**61 - 1])
def test_krylov_columns_are_powers_on_e0(p, rng):
    # column i is M^i e_0, one product at a time in pure Python, in M's
    # dtype; an empty M has no e_0
    dtype = object if p > 2**31 else np.int64
    assert _linalg.krylov(np.zeros((0, 0), dtype=dtype), 0, p).shape == (0, 1)
    for n in range(1, 6):
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        K = _linalg.krylov(np.array(A, dtype=dtype), n, p)
        v = [1] + [0] * (n - 1)
        for i in range(n + 1):
            assert K[:, i].tolist() == v, (A, i)
            v = [sum(a * b for a, b in zip(row, v)) % p for row in A]
        assert K.dtype == dtype
