"""Reference dense polynomial arithmetic over GF(p) on numpy arrays,
coefficients ascending, the zero polynomial the empty array.

The tests' independent Euclid: the powmod Rabin reference, the
materialized gcd oracle, the checks of ``_primepoly.rem`` and ``gcd`` and
the conjugate-sum reference of ``FieldCtx.basis_traces`` use it, and
nothing in the package does.  Arrays are int64
while (p-1)^2 < 2^63 and Python ints (``dtype=object``) beyond that."""

import numpy as np


def trim(a):
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if len(nz) else a[:0]


def make(coeffs, p):
    dtype = np.int64 if (p - 1) ** 2 < 2**63 else object
    return trim(np.array([int(c) % p for c in coeffs], dtype=dtype))


def deg(a):
    return len(a) - 1


def sub(a, b, p):
    out = np.zeros(max(len(a), len(b)), dtype=np.result_type(a, b))
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return trim(out)


def mul(a, b, p):
    if len(a) == 0 or len(b) == 0:
        return a[:0]
    return np.convolve(a, b) % p


def divmod_(a, b, p):
    if len(b) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return a[:0], a.copy()
    r = a.copy()
    db = deg(b)
    inv_lead = pow(int(b[-1]), -1, p)
    q = np.zeros(len(a) - db, dtype=a.dtype)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db] * inv_lead % p
        if c:
            q[i] = c
            r[i : i + db + 1] = (r[i : i + db + 1] - c * b) % p
    return q, trim(r)


def rem(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    """Monic gcd."""
    while len(b):
        a, b = b, rem(a, b, p)
    return a if len(a) == 0 else a * pow(int(a[-1]), -1, p) % p


def powmod(a, e, m, p):
    """a^e mod m by square and multiply."""
    result, base = make([1], p), rem(a, m, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), m, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), m, p)
    return result


def conjugate_traces(modulus, p):
    """Tr(x^u) for u < d modulo the monic irreducible ``modulus`` of degree
    d >= 2, by the definition: each the sum of the d conjugates (x^u)^(p^j)
    = (x^(p^j))^u, O(d^4) residue products.  ValueError if a conjugate sum
    leaves GF(p)."""
    m = make(modulus, p)
    d = deg(m)
    sums = [[0] * d for _ in range(d)]
    y = make([0, 1], p)
    for _ in range(d):  # y runs over the conjugates x^(p^j) mod m
        cur = make([1], p)
        for row in sums:
            for i, c in enumerate(cur.tolist()):
                row[i] += c
            cur = rem(mul(cur, y, p), m, p)
        y = powmod(y, p, m, p)
    if any(c % p for row in sums for c in row[1:]):
        raise ValueError("a conjugate sum left GF(p)")
    return tuple(row[0] % p for row in sums)
