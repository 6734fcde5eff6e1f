"""Nullity of the trace quadratic form attached to f(x) = sum a_i x^(p^a_i + 1).

The radical of Tr_m(f) is the kernel, inside GF(p^m), of a separable
p-polynomial built from f's coefficients; its GF(p)-dimension l_m is
log_p deg gcd(that polynomial, x^(p^m) - x).  The profile of all l_m is
finite: there is a least multiple s of the base degree with l_s = 2*alpha
(the splitting exponent), and l_m = l_gcd(m, s) for every other m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from . import _linalg
from ._numtheory import divisors
from .errors import (
    InternalInconsistency,
    InvalidInput,
    NotMultipleOfBase,
    SearchBudgetExceeded,
)
from .fieldcore import (
    FieldCtx,
    FieldElem,
    FrobeniusLadder,
    build_field_ctx,
    embed_element,
)

SEARCH_CEILING_FACTOR = 512


@dataclass(frozen=True)
class QuadFunc:
    """A quadratic function sum a_i x^(p^alpha_i + 1) over GF(p^n).

    Terms are (coefficient, alpha) pairs with strictly increasing alpha and
    no zero coefficients (zero terms are dropped at construction); the top
    coefficient must be nonzero.
    """

    ctx: FieldCtx
    terms: tuple[tuple[FieldElem, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidInput("need at least one term")
        alphas = [a for _, a in self.terms]
        if any(a < 0 for a in alphas) or any(x >= y for x, y in zip(alphas, alphas[1:])):
            raise InvalidInput("exponents must be strictly increasing and >= 0")
        if self.terms[-1][0].is_zero():
            raise InvalidInput("leading coefficient is zero")
        if any(c.is_zero() for c, _ in self.terms):
            raise InvalidInput("interior zero terms must be dropped before construction")
        for c, _ in self.terms:
            if c.ctx.key != self.ctx.key:
                raise InvalidInput("coefficient from a different field")

    @classmethod
    def from_terms(cls, ctx: FieldCtx, pairs) -> "QuadFunc":
        terms = []
        for c, a in pairs:
            c = ctx.elem(c)
            if not c.is_zero():
                terms.append((c, int(a)))
        if not terms:
            raise InvalidInput("all terms vanish")
        return cls(ctx, tuple(terms))

    @classmethod
    def from_dense(cls, p: int, coeffs, n: int = 1, modulus=None) -> "QuadFunc":
        """coeffs[j] is the coefficient of x^(p^j + 1), j = 0..k; the last
        entry must be nonzero."""
        ctx = build_field_ctx(p, n, modulus)
        coeffs = list(coeffs)
        if not coeffs:
            raise InvalidInput("empty coefficient list")
        last = ctx.elem(coeffs[-1])
        if last.is_zero():
            raise InvalidInput("top dense coefficient must be nonzero")
        return cls.from_terms(ctx, [(c, j) for j, c in enumerate(coeffs)])

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def n(self) -> int:
        return self.ctx.d

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.terms)

    @property
    def top_alpha(self) -> int:
        return self.terms[-1][1]

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def dense_coeffs(self) -> list[FieldElem]:
        out = [self.ctx.zero()] * (self.top_alpha + 1)
        for c, a in self.terms:
            out[a] = c
        return out

    def scaled(self, c) -> "QuadFunc":
        c = self.ctx.elem(c)
        return QuadFunc.from_terms(self.ctx, [(c * a, al) for a, al in self.terms])

    def __str__(self):
        def term(c, a):
            e = self.p**a + 1
            cs = str(c) if self.n > 1 else str(c.coeffs[0])
            return f"({cs})*x^{e}" if self.n > 1 else f"{cs}*x^{e}"

        return " + ".join(term(c, a) for c, a in self.terms)


@dataclass(frozen=True)
class LinearizedPoly:
    """A p-polynomial sum c_j z^(p^j); coeffs[j] is the coefficient of
    z^(p^j).  Kept sparse: its dense degree p^(2*alpha) can be huge."""

    ctx: FieldCtx
    coeffs: tuple[FieldElem, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1].is_zero():
            raise InvalidInput("leading p-power coefficient must be nonzero")

    @property
    def p_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return self.ctx.p**self.p_degree

    def is_separable(self) -> bool:
        return not self.coeffs[0].is_zero()

    def __call__(self, x: FieldElem) -> FieldElem:
        acc = x.ctx.zero()
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                cc = c if c.ctx.key == x.ctx.key else embed_element(self.ctx, x.ctx, c)
                acc = acc + cc * x.frobenius(j)
        return acc

    def linear_map_matrix(self, ctx_big: FieldCtx):
        """Matrix over GF(p) of z -> f*(z) acting on ctx_big, coefficients
        embedded; columns act on coordinate vectors."""
        p = ctx_big.p
        M = 0
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cE = c if ctx_big.key == self.ctx.key else embed_element(self.ctx, ctx_big, c)
            M = (M + ctx_big.mult_mat(cE) @ ctx_big.frob_mat_power(j) % p) % p
        return M


def radical_poly(f: QuadFunc) -> LinearizedPoly:
    """The separable p-polynomial whose kernel in GF(p^m) is the radical of
    Tr_m(f); p-power degree is exactly 2*alpha."""
    alpha = f.top_alpha
    coeffs = [f.ctx.zero()] * (2 * alpha + 1)
    for a, ai in f.terms:
        coeffs[alpha + ai] = coeffs[alpha + ai] + a.frobenius(alpha)
        coeffs[alpha - ai] = coeffs[alpha - ai] + a.frobenius(alpha - ai)
    out = LinearizedPoly(f.ctx, tuple(coeffs))
    if not out.is_separable():
        raise InternalInconsistency("radical polynomial must be separable")
    return out


def nullity_at(f: QuadFunc, m: int) -> int:
    """l_m(f) = dim of the radical of Tr_m(f) over GF(p); requires n | m."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    from .fieldcore import linearized_gcd_deg

    return linearized_gcd_deg(f.ctx, list(radical_poly(f).coeffs), m)


def splitting_exponent(f: QuadFunc, ceiling_factor: int = SEARCH_CEILING_FACTOR) -> int:
    """Least multiple s of n with l_s = 2*alpha; GF(p^s) is the splitting
    field of the radical polynomial."""
    return _search(f, ceiling_factor)[0]


def _search(f: QuadFunc, ceiling_factor: int) -> tuple[int, dict[int, int]]:
    target = 2 * f.top_alpha
    lad = FrobeniusLadder(f.ctx, [c for c in radical_poly(f).coeffs])
    found: dict[int, int] = {}
    for i in range(1, ceiling_factor + 1):
        lad.advance(f.n)
        m = i * f.n
        l = lad.kernel_exponent()
        found[m] = l
        if l == target:
            # minimality: no proper divisor (multiple of n) already reached it
            for d in divisors(m):
                if d < m and d % f.n == 0 and found.get(d) == target:
                    raise InternalInconsistency("splitting exponent is not minimal")
            return m, found
    raise SearchBudgetExceeded(
        f"no m <= {ceiling_factor * f.n} reached nullity {target}; raise the ceiling"
    )


@dataclass(frozen=True)
class NullityProfile:
    """l_m for every divisor m of s that is a multiple of n; any other m is
    answered through gcd with s."""

    func: QuadFunc
    s: int
    entries: tuple[tuple[int, int], ...]

    @property
    def entry_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def nullity(self, m: int) -> int:
        if m < 1 or m % self.func.n:
            raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={self.func.n}")
        return self.entry_dict[gcd(m, self.s)]

    def to_json_dict(self) -> dict:
        f = self.func
        if f.n == 1:
            coeffs = [c.coeffs[0] for c in f.dense_coeffs()]
        else:
            coeffs = [list(c.coeffs) for c in f.dense_coeffs()]
        return {
            "p": f.p,
            "n": f.n,
            "coeffs": coeffs,
            "s": self.s,
            "entries": [list(e) for e in self.entries],
        }


@functools.lru_cache(maxsize=512)
def nullity_profile(f: QuadFunc) -> NullityProfile:
    s, found = _search(f, SEARCH_CEILING_FACTOR)
    entries = []
    for d in divisors(s):
        if d % f.n == 0:
            l = found.get(d)
            if l is None:  # pragma: no cover - search always visits divisors
                l = nullity_at(f, d)
            entries.append((d, l))
    prof = NullityProfile(f, s, tuple(entries))
    if prof.entry_dict[s] != 2 * f.top_alpha:
        raise InternalInconsistency(f"profile ends at l_{s} = {prof.entry_dict[s]}, not 2*alpha")
    return prof


def matrix_kernel_nullity(f: QuadFunc, m: int) -> int:
    """Independent nullity backend: kernel dimension of the radical
    polynomial as a GF(p)-linear map on GF(p^m).  Cross-check only; the gcd
    backend is authoritative."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    ctx_big = build_field_ctx(f.p, m)
    M = radical_poly(f).linear_map_matrix(ctx_big)
    return _linalg.kernel_dim(M, f.p)
