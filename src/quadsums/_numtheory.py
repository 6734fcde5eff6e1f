"""Elementary number theory on Python ints: primality, factorization and the
functions derived from it.

``factor`` divides out the primes below ``TRIAL_LIMIT`` and splits what is
left with Brent's variant of Pollard's rho, testing each piece with
Miller-Rabin.  That handles the extension degrees and lift heights this
package factors as well as the group orders p^k - 1 behind the nullity
profile (``factor_power_minus_one``, memoized per (p, k)).  Rho takes
about the square root of the second-largest prime factor in steps, so it
gives up after ``RHO_STEPS`` steps of the map, about half a minute, and
raises ``Unsupported``: that splits off prime factors of up to about 14
digits, and a number with two larger ones is out of reach."""

from __future__ import annotations

import functools
import sys
from math import gcd, inf, isqrt

from .errors import InternalInconsistency, InvalidInput, Unsupported

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, deterministic for
    n < 3.3*10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(q for q in range(2, TRIAL_LIMIT) if all(q % r for r in range(2, isqrt(q) + 1)))


# Cycle lengths r = 1, 2, 4, ..., 2^23 take at most 2^25 - 2 steps: enough
# for the 14-digit prime factor of p^2 - p + 1 at p = 2^61 - 1 (found at
# r = 2^23, after 2.6 * 10^7 steps).
RHO_STEPS = 2**25


def _brent(n: int) -> int:
    """A proper factor of an odd composite n (Brent's cycle finding on
    x -> x^2 + c, products of differences batched 128 at a time; a new c
    when a batch collapses to n).  A cycle length r costs at most 2r steps;
    raises Unsupported before the steps would pass RHO_STEPS."""
    budget = RHO_STEPS
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > budget:
                detail = f"rho split no factor off a {n.bit_length()}-bit number in {RHO_STEPS} steps"
                raise Unsupported("factoring_out_of_reach", detail)
            budget -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalInconsistency(f"no factor of {n} found")  # pragma: no cover - n is composite


def factor(n: int) -> dict[int, int]:
    """Prime factorization {q: exponent} of n >= 1, primes increasing."""
    if n < 1:
        raise InvalidInput(f"cannot factor {n}")
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < TRIAL_LIMIT**2 or is_prime(m):  # no prime below TRIAL_LIMIT is left
            out[m] = out.get(m, 0) + 1
            continue
        # rho would need about sqrt(r) steps to split a power r^k; r > 2^9
        for k in range(2, m.bit_length() // 9 + 1):
            r = _iroot(m, k)
            if r**k == m:
                stack += [r] * k
                break
        else:
            g = _brent(m)
            stack += [g, m // g]
    return dict(sorted(out.items()))


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) by Newton's iteration from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@functools.lru_cache(maxsize=None)
def factor_power_minus_one(p: int, k: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of p^k - 1 (p >= 2, k >= 1) as (q, e) pairs, q
    increasing; memoized.  The primes of p^d - 1 for d | k, d < k, are
    divided out first, so only the cofactor (about Phi_k(p)) goes to
    ``factor``."""
    n = p**k - 1
    out: dict[int, int] = {}
    for d in divisors(k)[:-1]:
        for q, _ in factor_power_minus_one(p, d):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
    for q, e in factor(n).items():
        out[q] = out.get(q, 0) + e
    return tuple(sorted(out.items()))


def digits(code: int, p: int, k: int) -> list[int]:
    """The k base-p digits of code, lowest first: the little-endian
    encoding of coefficient vectors (default moduli, field elements, table
    rows).  Digits past the k-th are dropped."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def within_str_limit(size: int) -> bool:
    """Whether a text of `size` digits stays within the interpreter's
    int-to-string limit (0, or an interpreter without one, lifts it).  Every
    output bound of the package reads the limit here."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or size <= limit


def valuation(x: int, q: int) -> int | float:
    """q-adic order of x; inf for x = 0 (the distinguished marker).
    InvalidInput for q < 2, where no order exists."""
    if q < 2:
        raise InvalidInput(f"valuation needs a base q >= 2, got {q}")
    if x == 0:
        return inf
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def prime_divisors(n: int) -> list[int]:
    return list(factor(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, increasing."""
    out = [1]
    for q, e in factor(n).items():
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for q in factor(n):
        out -= out // q
    return out


def multiplicative_order(base: int, modulus: int) -> int:
    """Order of base in (Z/modulus)^*; requires gcd(base, modulus) = 1."""
    base %= modulus
    if gcd(base, modulus) != 1:
        raise InvalidInput(f"{base} is not a unit mod {modulus}")
    order = euler_phi(modulus)
    for q in prime_divisors(order):
        while order % q == 0 and pow(base, order // q, modulus) == 1:
            order //= q
    return order
