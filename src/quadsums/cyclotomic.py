"""Exact arithmetic in Z[zeta_p] and exact closed-form sum values.

Elements are integer vectors in the power basis 1, zeta, ..., zeta^(p-2),
reduced through 1 + zeta + ... + zeta^(p-1) = 0.  The representation is
canonical, so equality is coordinate equality.  Coordinates are Python
ints; magnitudes like g_p^r grow like p^(r/2) and must stay exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from ._primepoly import power
from .errors import InvalidInput, MixedPrimes


def _reduce_counts(p: int, counts) -> tuple[int, ...]:
    """Fold a length-p vector of zeta-exponent weights into the power basis."""
    top = counts[p - 1]
    return tuple(int(counts[j] - top) for j in range(p - 1))


class CyclotomicInt:
    """Element of Z[zeta_p] in the canonical power basis."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != p - 1:
            raise InvalidInput(f"need {p - 1} coordinates for p={p}")
        self.p = p
        self.coords = coords

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zeta_power(cls, p: int, j: int) -> "CyclotomicInt":
        counts = [0] * p
        counts[j % p] = 1
        return cls(p, _reduce_counts(p, counts))

    def _check(self, other) -> "CyclotomicInt":
        if isinstance(other, int):
            return CyclotomicInt.from_int(self.p, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        if other.p != self.p:
            raise MixedPrimes(f"p={self.p} vs p={other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.p, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInt(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.p, tuple(a * other for a in self.coords))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        counts = [0] * p
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        counts[(i + j) % p] += a * b
        return CyclotomicInt(p, _reduce_counts(p, counts))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidInput("negative powers leave Z[zeta_p]")
        return power(self, e, CyclotomicInt.__mul__) if e else CyclotomicInt.from_int(self.p, 1)

    def conj(self) -> "CyclotomicInt":
        """Complex conjugation, zeta -> zeta^(-1)."""
        p = self.p
        counts = [0] * p
        for j, a in enumerate(self.coords):
            counts[(p - j) % p] += a
        return CyclotomicInt(p, _reduce_counts(p, counts))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def as_int(self) -> int:
        """The value as a rational integer; raises if it is not one."""
        if any(self.coords[1:]):
            raise InvalidInput("not a rational integer")
        return self.coords[0]

    def complex_value(self) -> complex:
        zeta = cmath.exp(2j * cmath.pi / self.p)
        return sum(a * zeta**j for j, a in enumerate(self.coords))

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.p, other)
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.p == other.p and self.coords == other.coords

    def __hash__(self):
        return hash((self.p, self.coords))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, a in enumerate(self.coords):
            if a == 0:
                continue
            parts.append(str(a) if j == 0 else f"{a}*z^{j}" if j > 1 else f"{a}*z")
        return " + ".join(parts) + f"  (z = primitive {self.p}-th root)"

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, {list(self.coords)})"


def cyc_from_trace_counts(p: int, counts) -> CyclotomicInt:
    """sum(counts[i] * zeta^i) reduced to the power basis."""
    counts = list(counts)
    if len(counts) != p:
        raise InvalidInput(f"need {p} counts for p={p}")
    return CyclotomicInt(p, _reduce_counts(p, counts))


def gauss_cyclotomic(p: int) -> CyclotomicInt:
    """The quadratic Gauss sum sum_x zeta^(x^2) over GF(p), exactly."""
    counts = [0] * p
    for x in range(p):
        counts[x * x % p] += 1
    return cyc_from_trace_counts(p, counts)


def expsum_to_cyclotomic(v) -> CyclotomicInt:
    """t * g_p^(N-l) * p^l in Z[zeta_p] for an ExpSumValue-like object.

    g^2 = (-1)^((p-1)/2) * p, so g^r = ((-1)^((p-1)/2) * p)^(r // 2) * g^(r % 2)
    and no product in Z[zeta_p] is formed."""
    r = v.N - v.l
    p_star = v.p if v.p % 4 == 1 else -v.p
    g_odd = gauss_cyclotomic(v.p) if r % 2 else CyclotomicInt.from_int(v.p, 1)
    return g_odd * (v.t * p_star ** (r // 2) * v.p**v.l)


@dataclass(frozen=True)
class ExpSumValue:
    """Exact value of a full-field exponential sum: t * g_p^(N-l) * p^l.

    N is the total extension degree, l the nullity of the associated
    quadratic form, t its type.  `provenance` records the formula steps
    that produced t, for auditability, one entry per step; a step that
    yields a value appends its entry through :meth:`record`.
    """

    p: int
    N: int
    l: int
    t: int
    provenance: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.t not in (-1, 1):
            raise InvalidInput("type must be +1 or -1")
        if not 0 <= self.l <= self.N:
            raise InvalidInput("nullity out of range")

    def record(self, step: str, **detail) -> "ExpSumValue":
        """This value with the entry {step, **detail, N, t, l}, in that key
        order, appended to its provenance: the step that produced it."""
        entry = {"step": step, **detail, "N": self.N, "t": self.t, "l": self.l}
        return ExpSumValue(self.p, self.N, self.l, self.t, self.provenance + (entry,))

    def to_cyclotomic(self) -> CyclotomicInt:
        return expsum_to_cyclotomic(self)

    def exact_str(self) -> str:
        r = self.N - self.l
        parts = []
        if r:
            parts.append(f"g^{r}" if r > 1 else "g")
        if self.l:
            parts.append(f"p^{self.l}" if self.l > 1 else "p")
        body = "*".join(parts) if parts else "1"
        return ("-" if self.t < 0 else "") + body

    def complex_value(self) -> complex:
        """t * i^((p-1)^2/4 * (N-l)) * p^((N+l)/2), as g_p = i^((p-1)^2/4)
        sqrt(p): real or purely imaginary.  The magnitude is inf once it
        leaves the float range, so no valid value raises."""
        try:
            size = self.p ** ((self.N + self.l) / 2)
        except OverflowError:
            size = math.inf
        k = (self.p - 1) ** 2 // 4 * (self.N - self.l) % 4
        v = self.t * (-1) ** (k // 2) * size
        return complex(0.0, v) if k % 2 else complex(v, 0.0)
