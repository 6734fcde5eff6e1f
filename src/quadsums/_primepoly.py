"""Dense polynomial arithmetic over GF(p), numpy coefficient arrays.

Coefficient order is ascending (constant term first).  The zero polynomial
is the empty array.  These routines back modulus construction, the
irreducibility test and the exact matrices of fieldcore; the huge
structured gcds go through the linearized fast path there.

``is_irreducible`` is Rabin's test on the Frobenius matrix.  For a monic a
of degree d, z -> z^p is GF(p)-linear on GF(p)[x]/(a); its matrix is
Berlekamp's Q, whose row u holds x^(p*u) mod a (``frobenius_matrix``).
Then x^(p^k) mod a is the row vector x times Q^k, one vector-matrix product
per k.  a is irreducible iff x^(p^d) = x mod a and gcd(x^(p^(d/q)) - x, a)
= 1 for every prime q | d; only candidates that pass the first condition
pay for the gcds.  When p <= d, a root sieve first rejects every
candidate with a root in GF(p), by one Horner evaluation at all of GF(p).

Exactness: ``is_irreducible`` and ``frobenius_matrix`` form no sum of more
than d products of two residues, so they compute in int64 while
d*(p-1)^2 < 2^63 and in Python ints (numpy ``dtype=object``) beyond that
(``exact_dtype``); their decisions and matrices are exact for every p.  The
other helpers keep the dtype of their inputs.
"""

from __future__ import annotations

import numpy as np

from ._numtheory import prime_divisors
from .errors import DivisionByZero


def trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if len(nz) == 0:
        return a[:0]
    return a[: nz[-1] + 1]


def make(coeffs, p: int) -> np.ndarray:
    return trim(np.asarray(list(coeffs), dtype=np.int64) % p)


def deg(a: np.ndarray) -> int:
    return len(a) - 1


def sub(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.result_type(a, b))
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return trim(out)


def mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    return np.convolve(a, b) % p


def divmod_(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    if len(b) == 0:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return a[:0], a.copy()
    rem = a.copy()
    db = deg(b)
    inv_lead = pow(int(b[-1]), -1, p)
    q = np.zeros(len(a) - db, dtype=a.dtype)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db] * inv_lead % p
        if c:
            q[i] = c
            rem[i : i + db + 1] = (rem[i : i + db + 1] - c * b) % p
    return q, trim(rem)


def rem(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return divmod_(a, b, p)[1]


def monic(a: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0 or a[-1] == 1:
        return a
    return a * pow(int(a[-1]), -1, p) % p


def gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    while len(b):
        a, b = b, rem(a, b, p)
    return monic(a, p)


def exact_dtype(p: int, d: int):
    """int64 while a sum of d products of residues mod p fits, else object."""
    return np.int64 if d * (p - 1) ** 2 < 2**63 else object


def _reduction_table(a: np.ndarray, p: int) -> np.ndarray:
    """Rows x^(d+t) mod a for t = 0..d-2, for monic a of degree d >= 2."""
    d = deg(a)
    table = np.zeros((d - 1, d), dtype=a.dtype)
    table[0] = -a[:d] % p
    for t in range(1, d - 1):
        table[t, 1:] = table[t - 1, :-1]
        table[t] = (table[t] + table[t - 1, -1] * table[0]) % p
    return table


def _mulmod(f: np.ndarray, g: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """f*g mod a for length-d coefficient vectors, a given by its table."""
    c = np.convolve(f, g) % p
    d = len(f)
    return (c[:d] + c[d:] @ table) % p


def frobenius_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Berlekamp's Q of a (degree d >= 2, made monic): a d x d array whose
    row u is x^(p*u) mod a, in ``exact_dtype(p, d)``."""
    d = deg(a)
    a = monic(np.array(a, dtype=exact_dtype(p, d)), p)
    table = _reduction_table(a, p)
    x = np.zeros(d, dtype=a.dtype)
    x[1] = 1
    xp = x
    for bit in bin(p)[3:]:  # left to right: square, then multiply by x
        xp = _mulmod(xp, xp, table, p)
        if bit == "1":
            xp = _mulmod(xp, x, table, p)
    # Rows with p*u <= 2d-2 are read off the identity and the table.
    direct = np.concatenate([np.eye(d, dtype=a.dtype), table])[::p][:d]
    Q = np.zeros((d, d), dtype=a.dtype)
    Q[: len(direct)] = direct
    for u in range(len(direct), d):
        Q[u] = _mulmod(Q[u - 1], xp, table, p)
    return Q


def _has_root(a: np.ndarray, p: int) -> bool:
    """Whether a vanishes somewhere on GF(p).  There x^i = x^(i - (p-1)) for
    i >= p, so a is first folded to degree < p; one Horner pass then runs
    at all of GF(p) at once."""
    tail = a[1:]
    tail = np.concatenate([tail, np.zeros(-len(tail) % (p - 1), dtype=a.dtype)])
    folded = np.concatenate([a[:1], tail.reshape(-1, p - 1).sum(axis=0) % p])
    xs = np.arange(p, dtype=a.dtype)
    acc = np.zeros(p, dtype=a.dtype)
    for c in folded[::-1]:
        acc = (acc * xs + c) % p
    return not acc.all()


def is_irreducible(a: np.ndarray, p: int) -> bool:
    """Rabin's test on the Frobenius matrix (see the module docstring)."""
    d = deg(a)
    if d < 1 or a[-1] == 0:
        return False
    if d == 1:
        return True
    if a[0] == 0:  # divisible by x
        return False
    a = monic(np.array(a, dtype=exact_dtype(p, d)), p)
    # The sieve takes p vector steps and the Q test more than 2d.
    if p <= d and _has_root(a, p):
        return False
    Q = frobenius_matrix(a, p)
    kept = dict.fromkeys(d // q for q in prime_divisors(d))
    h = Q[1]  # x^(p^k) mod a, from k = 1
    for k in range(1, d):
        if k in kept:
            kept[k] = h
        h = h @ Q % p
    x = np.array([0, 1], dtype=a.dtype)
    if len(sub(h, x, p)):
        return False
    return all(deg(gcd(sub(hk, x, p), a, p)) == 0 for hk in kept.values())
