"""Reference linear algebra over GF(p) on lists of Python ints: the
Leibniz determinant and a Gauss-Jordan elimination.

The tests' independent checks of ``_linalg.row_echelon`` and ``det`` and of
the Gram route past int64 use them, and nothing in the package does."""

import itertools

P_PAST_INT64 = 2**63 + 29  # prime, = 5 (mod 8); its residues need Python ints


def leibniz_det(A, p):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(A[i][j])
        total += term
    return total % p


def gauss_jordan(A, p):
    """(R, pivots, scale) of A mod p on lists of Python ints: each column's
    pivot is its first nonzero entry at or below the current row, scaled to
    1 and cleared from every other row; scale is the product of the pivots,
    negated once per row swap."""
    R = [[int(x) % p for x in row] for row in A]
    pivots, scale, r = [], 1, 0
    for c in range(len(R[0]) if R else 0):
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        if i != r:
            R[r], R[i] = R[i], R[r]
            scale = -scale
        scale = scale * R[r][c] % p
        inv = pow(R[r][c], -1, p)
        R[r] = [x * inv % p for x in R[r]]
        for j, row in enumerate(R):
            if j != r and row[c]:
                R[j] = [(x - row[c] * y) % p for x, y in zip(row, R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivots, scale % p
