"""Polynomials over GF(p), coefficients ascending (constant term first).

``rem``, ``gcd`` and ``inverse`` are the one Euclid over GF(p), on lists
of Python-int residues (the zero polynomial is []); ``inverse`` carries
the cofactors of the remainders through the same reduction step.
``mulmod``, the one product modulo m behind every field element, reduces
lazily (each step only its leading coefficient mod p); ``powmod`` squares
through it.  ``_reduce`` stays eager: a gcd step is a one-step remainder.

``factor`` (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14):
a square-free split by gcds with the derivative (a zero derivative means
a polynomial in x^p, whose p-th root has coefficients a_(pk)); distinct
degrees by gcds with x^(p^k) - x; Cantor-Zassenhaus splitting by
gcd(h, t^((p^k - 1)/2) - 1) for the monic t of degree 1, 2, ..., each
degree in the code order of its lower coefficients (a constant takes one
value on every factor, so t and its multiples split alike).  By the
Chinese remainder theorem some t of degree < deg g is a nonzero square
modulo one factor and a nonsquare modulo another, so one pass splits g.
x^(p^k) and t^(p^i) are rows times the Frobenius matrix Q, and
t^((p^k - 1)/2) is the product of the t^(p^i), i < k, to the (p - 1)/2.

``factor_reciprocal`` factors a monic a whose reciprocal x^(deg a)
a(1/x) is +-a, the minimal polynomial of a symplectic map (the proof is
in :mod:`quadsums.nullity`).  Each power of x + 1 and of x - 1, odd ones
included, is found by a(-+1) = 0 and stripped into one row.  The rest r
is palindromic of even degree 2m, r = x^m H(x + 1/x); r not palindromic
raises.  ``half`` takes H, of degree m (Dickson polynomials), and only H
is factored.  ``half_rows`` turns the factors of any H into rows: y -+ 2
gives (x -+ 1)^2, and any other irreducible q | H of degree j gives Q =
x^j q(x + 1/x), irreducible when q(2) q(-2) is a nonsquare mod p (Meyn),
and else a reciprocal pair g g* of degree j each, returned unsplit.
``factorizations(p, k)`` lists every monic a of degree <= k with its
factors, found by products, not by factoring: degree by degree, each
reducible a is g h for g its last irreducible factor (in the order found)
and h with no later factor, one product each, and the a left over are
the irreducibles.  ``order(g, p, k)`` takes the order of x modulo a
square-free g whose roots lie in GF(p^k), from the factored p^k - 1; k =
j for a pair (the roots of g* are the inverses of those of g, so both
have one order); for a self-reciprocal irreducible of degree 2j, from
the factored p^j + 1 (:mod:`quadsums.nullity`).

``power`` is the one square-and-multiply, under any product: ``powmod``,
``matpow`` (X^p in ``frobenius_matrix`` and every Frobenius table of a
field are its powers) and ``CyclotomicInt.__pow__`` call it.  ``order``
keeps its own squares X^(2^i), each shared by every exponent it tests.

``is_irreducible`` is Rabin's test.  z -> z^p on GF(p)[x]/(a), a monic of
degree d, has the matrix Q (``frobenius_matrix``), whose row u is
x^(p*u) mod a, and x^(p^k) mod a is the row of x times Q^k.  a is
irreducible iff x^(p^d) = x mod a and gcd(x^(p^(d/q)) - x, a) = 1 for
every prime q | d, the gcds only paid by candidates that pass the first
condition.  When p <= d, one Horner pass at all of GF(p) first rejects
every candidate with a root there.  Each step runs on a stack of
candidates of one degree at once, a leading axis on every array (numpy's
matmul broadcasts over it); one candidate is a stack of one.

Exactness: no numpy product sums more than d products of two residues,
so they run in int64 while d*(p-1)^2 < 2^63 and in Python ints (numpy
``dtype=object``) beyond that (``exact_dtype``).  Every conversion of
coefficients into an array names that dtype: left to itself, numpy makes
float64 of a sequence holding a residue >= 2^63.  The lists are Python
ints.  Every result is exact for every p.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, prod

import numpy as np

from ._numtheory import digits, factor_power_minus_one, prime_divisors, valuation
from .errors import DivisionByZero, InternalInconsistency


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
    db, inv = len(b) - 1, pow(b[-1], -1, p) if b[-1] != 1 else 1
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


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd(a, b) by Euclid; [] when both vanish."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, _reduce(a, b, p)
    inv = pow(a[-1], -1, p) if a else 1
    return [c * inv % p for c in a]


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b for trimmed lists of residues."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += c * v
    return [c % p for c in out]


def _quotient(a: list[int], b: list[int], p: int) -> list[int]:
    """a // b for b trimmed and nonzero, the reduction's cofactor for -1."""
    q: list[int] = []
    _reduce(list(a), b, p, q, [p - 1])
    return q


def mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    """a * b mod m as exactly deg m residues, for lists of residues and m
    trimmed (any nonzero leading coefficient).  The reduction is lazy: each
    step reduces only the leading coefficient mod p, the rest once at the
    end."""
    d, inv = len(m) - 1, pow(m[-1], -1, p) if m[-1] != 1 else 1
    out = [0] * max(len(a) + len(b) - 1, d)
    for i, c in enumerate(a):
        if c:
            for j, v in enumerate(b):
                out[i + j] += c * v
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] * inv % p
        if c:
            k = i - d
            for j in range(d):
                out[k + j] -= c * m[j]
    return [c % p for c in out[:d]]


def power(a, e: int, mul):
    """a^e for e >= 1 under the product mul, from the top bit of e down."""
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, trimmed, by ``power`` through ``mulmod``."""
    a = rem(a if e else [1], m, p)
    return trim(power(a, e, lambda u, v: mulmod(u, v, m, p)) if e else a)


def _squarefree(a: list[int], p: int) -> list[tuple[list[int], int]]:
    """(w, i) with a = prod w^i for monic a, the w monic, square-free,
    pairwise coprime and of positive degree."""
    c = gcd(a, trim([i * v % p for i, v in enumerate(a)][1:]), p)
    if c == [1]:
        return [(a, 1)] if len(a) > 1 else []
    out, w, i = [], _quotient(a, c, p), 1
    while len(w) > 1:
        y = gcd(w, c, p)
        out += [(_quotient(w, y, p), i)] if len(y) < len(w) else []
        w, c, i = y, _quotient(c, y, p), i + 1
    return out + [(v, j * p) for v, j in _squarefree(c[::p], p)]


def _distinct_degree(w: list[int], Q: np.ndarray, p: int) -> list[tuple[list[int], int]]:
    """(g, k), g the product of the degree-k irreducible factors of the
    square-free w, by gcds with x^(p^k) - x, the row of x times Q^k."""
    out, k, h = [], 0, np.eye(1, len(Q), 1, dtype=Q.dtype)[0]
    x = h
    while len(w) - 1 >= 2 * (k + 1):
        h, k = h @ Q % p, k + 1
        g = gcd(w, ((h - x) % p).tolist(), p)
        if len(g) > 1:
            out, w = out + [(g, k)], _quotient(w, g, p)
    return out + [(w, len(w) - 1)] if len(w) > 1 else out


def _equal_degree(g: list[int], k: int, Q: np.ndarray, p: int) -> list[list[int]]:
    """The degree-k irreducible factors of g, a product of distinct ones;
    Q is the Frobenius matrix of a multiple of g."""
    parts = [g]
    for j in range(1, len(g) - 1):
        for code in range(p**j):
            if all(len(h) == k + 1 for h in parts):
                return parts
            conj = np.zeros(len(Q), dtype=Q.dtype)
            conj[: j + 1] = acc = digits(code, p, j) + [1]
            for _ in range(k - 1):
                conj = conj @ Q % p
                acc = mulmod(acc, conj.tolist(), g, p)
            acc = powmod(acc, (p - 1) // 2, g, p) or [0]
            acc = trim([(acc[0] - 1) % p] + acc[1:])
            split = [(h, gcd(h, acc, p) if len(h) > k + 1 else h) for h in parts]
            parts = [v for h, u in split for v in ([u, _quotient(h, u, p)] if 1 < len(u) < len(h) else [h])]
    if any(len(h) != k + 1 for h in parts):
        raise InternalInconsistency(f"no monic shift of degree below {len(g) - 1} splits {g}")
    return parts


@functools.lru_cache(maxsize=4096)
def factor(a: tuple[int, ...], p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(g, e) for the monic irreducible factors g of the monic a and their
    multiplicities e, a = prod g^e; memoized, as f and its multiples c f
    share the action's mu."""
    out = []
    for w, i in _squarefree(trim(list(a)), p):
        Q = frobenius_matrix(w, p)
        for g, k in _distinct_degree(w, Q, p):
            out += [(tuple(h), i) for h in (_equal_degree(g, k, Q, p) if len(g) > k + 1 else [g])]
    return tuple(out)


def factor_reciprocal(a: tuple[int, ...], p: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(Q, k, e) with a = prod Q^e, for the monic a with a* = +-a, a* =
    x^(deg a) a(1/x): each Q is x + 1 or x - 1 (k = 1, any e), a
    self-reciprocal irreducible of degree 2j (k = 2j), or a reciprocal pair
    g g*, g != g* irreducible of degree j (k = j), from an irreducible
    q | H of degree j, where r = x^m H(x + 1/x) is a without x -+ 1; k is
    the degree of each irreducible in Q.  Only H, of half the degree of r,
    is factored (``factor``, memoized; this function is not, as the rest is
    a few sums); no pair is split.  Raises when r is not palindromic, that
    is when a* != +-a."""
    a, powers = list(a), {1: 0, p - 1: 0}  # of x + 1 and x - 1
    for z, w in ((1, -1), (p - 1, 1)):  # x + z vanishes at w
        while not (sum(a[::2]) + w * sum(a[1::2])) % p:
            a, powers[z] = _quotient(a, [z, 1], p), powers[z] + 1
    if a != a[::-1]:
        raise InternalInconsistency(f"a* != +-a: {a}, a without x -+ 1, is not palindromic")
    return tuple(((z, 1), 1, e) for z, e in powers.items() if e) + half_rows(factor(tuple(half(a, p)), p), p)


def half(a: list[int], p: int) -> list[int]:
    """H with a = x^m H(x + 1/x), for the palindromic a of degree 2m."""
    H, prev, cur = [a[len(a) // 2]] + [0] * (len(a) // 2), [2], [0, 1]  # D_0, D_1
    for c in a[len(a) // 2 + 1 :]:  # x^i + x^(-i) = D_i(x + 1/x), D_(i+1) = y D_i - D_(i-1)
        H[: len(cur)] = [h + c * v for h, v in zip(H, cur)]
        prev, cur = cur, [u - (prev[t] if t < len(prev) else 0) for t, u in enumerate([0] + cur)]
    return [c % p for c in H]


def half_rows(factors, p: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The rows (Q, k, e) of ``factor_reciprocal`` for x^m H(x + 1/x), from
    the factors (q, e) of H (see above)."""
    out = []
    for q, e in factors:
        if len(q) == 2 and q[0] in (2, p - 2):
            out.append(((1 if q[0] == 2 else p - 1, 1), 1, 2 * e))
            continue
        j, Q = len(q) - 1, [0] * (2 * len(q) - 1)  # x^j q(x + 1/x) = sum q_i x^(j-i) (x^2 + 1)^i
        for i, c in enumerate(q):
            for t in range(i + 1):
                Q[j - i + 2 * t] += c * comb(i, t)
        norm = prod(sum(c * z**i for i, c in enumerate(q)) for z in (2, -2)) % p  # Norm(y^2 - 4)
        out.append((tuple(c % p for c in Q), j if pow(norm, (p - 1) // 2, p) == 1 else 2 * j, e))
    return tuple(out)


def factorizations(p: int, k: int) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """{a: ((g, e), ...)}, a = prod g^e, for every monic a of degree <= k."""
    out, last, irr, first = {(1,): ()}, {}, [], [0]  # last[a]: the index in irr of a's last factor
    for d in range(1, k + 1):
        first.append(len(irr))  # first[j]: the index of the first irreducible of degree j
        for h, fac in [item for item in out.items() if len(item[0]) > 1]:
            j = d - len(h) + 1
            for i in range(max(last[h], first[j]), first[j + 1]):
                a = tuple(mul(irr[i], h, p))
                out[a], last[a] = fac[:-1] + ((irr[i], fac[-1][1] + 1),) if i == last[h] else fac + ((irr[i], 1),), i
        for a in (low + (1,) for low in itertools.product(range(p), repeat=d)):
            if a not in out:
                out[a], last[a] = ((a, 1),), len(irr)
                irr.append(a)
    return out


@functools.lru_cache(maxsize=4096)
def order(g: tuple[int, ...], p: int, k: int | None = None) -> tuple[tuple[int, int], ...]:
    """The order of x modulo the monic square-free g != x whose roots all
    lie in GF(p^k), as (q, j) pairs, q^j the least with x^(o/q^(v-j)) = 1:
    a divisor of o = prod q^v, o = p^k - 1 (``factor_power_minus_one``).
    By default g is irreducible and k = deg g, and then o = p^(k/2) + 1
    when g is palindromic of even degree.  x^e is the row of 1 times X^e,
    X the companion matrix of g, a product of the squares X^(2^i) shared
    by every e (half the time of a ``powmod`` for each e).  Raises when
    x^o != 1."""
    fac, group = factor_power_minus_one(p, k or len(g) - 1), f"{p}^{k or len(g) - 1} - 1"
    if k is None and len(g) % 2 and g == g[::-1]:  # a root w has w^(p^j) = 1/w (see :mod:`quadsums.nullity`)
        j = len(g) // 2
        fac, group = tuple((q, v) for q, _ in fac if (v := valuation(p**j + 1, q))), f"{p}^{j} + 1"
    o, squares = prod(q**v for q, v in fac), [_companion(g, p)]
    while len(squares) < o.bit_length():
        squares.append(squares[-1] @ squares[-1] % p)
    one = np.eye(1, len(g) - 1, dtype=squares[0].dtype)[0]

    def is_one(e: int) -> bool:
        row = one
        for i, sq in enumerate(squares):
            if e >> i & 1:
                row = row @ sq % p
        return bool((row == one).all())

    if not is_one(o):
        raise InternalInconsistency(f"x has no order dividing {group} modulo {list(g)}")
    out = []
    for q, v in fac:
        j = v
        while j and is_one(o // q ** (v - j + 1)):
            j -= 1
        out += [(q, j)] if j else []
    return tuple(out)


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


def _companion(a, p: int) -> np.ndarray:
    """The matrix of z -> x z modulo the monic a of degree d >= 1 on
    coordinate rows: row u is x^(u+1) mod a, in ``exact_dtype(p, d)``; for
    a stack of such a (one per row), the stack of their matrices."""
    d = np.shape(a)[-1] - 1
    a = np.asarray(a, dtype=exact_dtype(p, d))
    X = np.zeros(a.shape[:-1] + (d * d,), dtype=a.dtype)
    X[..., 1 :: d + 1] = 1  # the superdiagonal
    X = X.reshape(a.shape[:-1] + (d, d))
    X[..., -1, :] = -a[..., :-1] % p
    return X


def matpow(A: np.ndarray, e: int, p: int) -> np.ndarray:
    """A^e mod p for e >= 1 by ``power``, in A's dtype; for a stack of
    matrices (a leading axis), each one's power."""
    return power(A, e, lambda U, V: U @ V % p)


def frobenius_matrix(a, p: int) -> np.ndarray:
    """Berlekamp's Q of the monic a of degree d >= 1, or of each row of a
    stack: row u is x^(p*u) mod a, in ``exact_dtype(p, d)``.  Rows with
    p*u < d are read off the identity; each other row is the last times
    P = X^p, X the companion matrix (``matpow``)."""
    P = matpow(_companion(a, p), p, p)
    d = P.shape[-1]
    direct = np.eye(d, dtype=P.dtype)[::p]
    Q = np.empty_like(P)
    Q[..., : len(direct), :] = direct
    row = Q[..., len(direct) - 1 : len(direct), :]
    for u in range(len(direct), d):
        row = Q[..., u : u + 1, :] = row @ P % p
    return Q


def _has_root(a: np.ndarray, p: int) -> np.ndarray:
    """Whether each row of the stack a vanishes somewhere on GF(p).  There
    x^i = x^(i - (p-1)) for i >= p, so a is first folded to degree < p; one
    Horner pass then runs at all of GF(p) at once."""
    k, d = a.shape[0], a.shape[1] - 1
    w = -(-d // (p - 1))  # columns of each residue class of exponents
    tail = np.zeros((k, w * (p - 1)), dtype=a.dtype)
    tail[:, :d] = a[:, 1:]
    folded = np.concatenate([a[:, :1], tail.reshape(k, w, p - 1).sum(axis=1) % p], axis=1)
    acc = np.zeros((k, p), dtype=a.dtype)
    for c in folded.T[::-1]:
        acc = (acc * np.arange(p) + c[:, None]) % p
    return (acc == 0).any(axis=1)


def is_irreducible(a, p: int):
    """Rabin's test (see the module docstring): a bool for one candidate a
    (any nonzero leading coefficient), a bool array for a 2-D stack of
    monic candidates of one degree d >= 2, one per row."""
    a = np.array(a, dtype=exact_dtype(p, np.shape(a)[-1] - 1))
    if a.ndim == 2:
        return _rabin(a, p)
    d = len(a) - 1
    if d < 1 or a[-1] == 0:
        return False
    return d == 1 or bool(_rabin(monic(a, p)[None], p)[0])


def _rabin(a: np.ndarray, p: int) -> np.ndarray:
    """Rabin's test on each row of the stack a, monic of degree d >= 2."""
    d = a.shape[1] - 1
    out = a[:, 0] != 0  # else divisible by x
    # The sieve takes p vector steps and the Q test more than 2d.
    if p <= d:
        out[out] = ~_has_root(a[out], p)
    live = np.flatnonzero(out)
    if not len(live):
        return out
    Q = frobenius_matrix(a[live], p)
    kept = dict.fromkeys(d // q for q in prime_divisors(d))
    h = Q[:, 1:2]  # x^(p^k) mod a, from k = 1
    for k in range(1, d):
        if k in kept:
            kept[k] = h[:, 0]
        h = h @ Q % p
    x = np.zeros(d, dtype=a.dtype)
    x[1] = 1
    fixed = ((h[:, 0] - x) % p == 0).all(axis=1)  # bool also on object arrays
    out[live] = fixed
    for j in np.flatnonzero(fixed):
        row = a[live[j]].tolist()
        out[live[j]] = all(gcd(row, ((hk[j] - x) % p).tolist(), p) == [1] for hk in kept.values())
    return out
