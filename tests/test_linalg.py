"""The one elimination over GF(p): determinants against the Leibniz sum."""

import itertools

import numpy as np
import pytest

from quadsums import _linalg


def _leibniz_det(A, p):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(A[i][j])
        total += term
    return total % p


@pytest.mark.parametrize("p", [3, 7, 2**61 - 1])
def test_det_matches_leibniz(p, rng):
    assert _linalg.det(np.zeros((0, 0), dtype=np.int64), p) == 1
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:  # singular: a row repeated with a scale
            A[-1] = [c * rng.randrange(p) % p for c in A[0]]
        M = np.array(A, dtype=object if p > 2**31 else np.int64)
        assert _linalg.det(M, p) == _leibniz_det(A, p), (p, A)
