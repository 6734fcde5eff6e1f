"""Polynomials over GF(p), coefficients ascending (constant term first).

``rem``, ``gcd_degree`` and ``inverse`` are the one Euclid over GF(p), on
lists of Python-int residues; the zero polynomial is [].  The closed-form
profile (n = 1), the skew-gcd ladder over GF(p) and Rabin's gcd checks use
the first two: at these degrees numpy's per-call cost would dominate.  The
same Euclid also inverts: ``inverse`` carries the cofactors of the
remainders through the same reduction step, and ``FieldElem.inverse`` runs
it against the modulus of GF(p^d), O(d^2) residue operations instead of
the 2 log2(p^d) field multiplications of a^(p^d - 2).  The numpy helpers
back modulus construction, the irreducibility test and the exact matrices
of fieldcore.

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
(``exact_dtype``); their decisions and matrices are exact for every p.
Python ints are exact throughout, so ``rem``, ``gcd_degree`` and
``inverse`` are too.
"""

from __future__ import annotations

import numpy as np

from ._numtheory import prime_divisors
from .errors import DivisionByZero


def monic(a: np.ndarray, p: int) -> np.ndarray:
    if len(a) == 0 or a[-1] == 1:
        return a
    return a * pow(int(a[-1]), -1, p) % p


def trim(a: list) -> list:
    """Drop trailing zeros in place (ints, or field elements)."""
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(a: list[int], b: list[int], p: int, sa: list[int] | None = None,
            sb: list[int] | None = None) -> list[int]:
    """a mod b in place of a, for b trimmed and nonzero.  Given cofactors,
    each step a -= c x^k b also takes sa -= c x^k sb, in place of sa: if
    a = sa * u and b = sb * u modulo some m before, a = sa * u after."""
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            k = i - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            if sa is not None:
                sa.extend([0] * (k + len(sb) - len(sa)))
                for j, v in enumerate(sb):
                    sa[k + j] = (sa[k + j] - c * v) % p
    del a[db:]
    return trim(a)


def rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b for lists of residues, trimmed (the zero polynomial is [])."""
    b = trim(list(b))
    if not b:
        raise DivisionByZero("polynomial division by zero")
    return _reduce(list(a), b, p)


def gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """deg gcd(a, b) for lists of residues, by Euclid; -1 when both vanish."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, _reduce(a, b, p)
    return len(a) - 1


def inverse(a: list[int], m: list[int], p: int) -> list[int]:
    """u with a * u = 1 mod m, deg u < deg m, by the extended Euclid: each
    remainder r of the sequence carries its cofactor s with r = s * a mod m.
    Raises DivisionByZero when gcd(a, m) is not constant (a = 0 included)."""
    r0, r1 = trim(list(m)), rem(a, m, p)
    s0, s1 = [], [1]
    while len(r1) > 1:
        r0 = _reduce(r0, r1, p, s0, s1)
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        raise DivisionByZero("not invertible modulo the polynomial")
    inv = pow(r1[0], -1, p)
    return trim([c * inv % p for c in s1])


def exact_dtype(p: int, d: int):
    """int64 while a sum of d products of residues mod p fits, else object."""
    return np.int64 if d * (p - 1) ** 2 < 2**63 else object


def _reduction_table(a: np.ndarray, p: int) -> np.ndarray:
    """Rows x^(d+t) mod a for t = 0..d-2, for monic a of degree d >= 2."""
    d = len(a) - 1
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
    d = len(a) - 1
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
    d = len(a) - 1
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
    x = np.zeros(d, dtype=a.dtype)
    x[1] = 1
    if ((h - x) % p).any():
        return False
    return all(gcd_degree(a.tolist(), ((hk - x) % p).tolist(), p) == 0 for hk in kept.values())
