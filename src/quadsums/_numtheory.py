"""Elementary number theory on Python ints: primality, factorization and the
functions derived from it.

``factor`` is trial division, fine for the extension degrees, lift heights
and small group orders this package factors."""

from __future__ import annotations

from math import gcd

from .errors import InvalidInput

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


def factor(n: int) -> dict[int, int]:
    """Prime factorization {q: exponent} of n >= 1, primes increasing."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
