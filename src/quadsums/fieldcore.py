"""Exact arithmetic in GF(p) and GF(p^d) for odd primes p.

A :class:`FieldCtx` models one concrete field: the prime, the extension
degree, and a monic irreducible modulus over GF(p) (absent for degree 1).
When no modulus is supplied the deterministic default is used: the monic
irreducible of degree d whose non-leading coefficient tuple has the
smallest integer encoding c0 + c1*p + ... + c_{d-1}*p^(d-1).  Everything
downstream (tables, embeddings, traces) is therefore reproducible run to
run.  The search tests candidates in encoding order with Rabin's test on
the Frobenius matrix Q (:mod:`quadsums._primepoly`), exact for every p,
stacked over blocks of d codes (irreducibles have density about 1/d).
Codes 0..p-1 are the binomials x^d + c; when Thm 3.75 of Lidl and
Niederreiter rules out every irreducible binomial, the search starts at
code p, which leaves the result unchanged.  ``frob_mat_power(1)`` is Q
transposed.

Contexts are immutable and cached; elements are coordinate vectors in the
power basis of the modulus root.  Every table a context keeps, here and in
:mod:`quadsums.quadform`, is built once by ``FieldCtx.table``, which makes
each array it hands out read-only.

Frobenius and trace are GF(p)-linear, so the scalar maps are cached exact
linear maps: a context keeps, in the exact dtype (below), the images of
the power basis under z -> z^(p^j) for each j asked for and Tr(x^u) for
u < d.  ``FieldCtx.powers`` gives the coordinate rows of 1, y, ...,
y^(k-1) by k - 1 products (which run on :mod:`quadsums._primepoly`,
below, so a context keeps no reduction table); the table for j = 1 is the
powers of x ** p, and the table for j its j-th matrix power.  Tr(x^u) is
the definition, the sum of the d conjugates of x^u: row u of the sum of
the first d powers of that table, checked to lie in GF(p).
``FieldElem.frobenius`` is then one O(d^2) product of the coordinate row
and the table, and ``FieldElem.trace`` one O(d) product.  The brute-force
oracle uses these maps alone, and only it reads a trace through the
conjugate sums.

The matrix route is separate and equally exact: ``frob_mat_power`` (Q
transposed, and its powers), ``mult_mat`` (rows a x^u, each the last times
the companion matrix of the modulus), ``p_poly_matrix`` (z -> sum c
z^(p^a), the sum of their products) and ``trace_form`` (the Hankel matrix
of the power sums Tr(x^k), O(d^2) by Newton's identities on the modulus)
back the Gram matrix in :mod:`quadsums.quadform`, the radical's linear map
in :mod:`quadsums.nullity` and, by row 0, the phase of
``lifts.shift_linear``.  Both Frobenius tables come from ``_power_table``:
each table for j is one power, j mod d, of the table for 1 by square and
multiply (``_primepoly.matpow``), and only the tables asked for are kept,
none in between.  Their entries are residues mod p, and every sum and
product is reduced mod p before the next, so no intermediate exceeds a sum
of d products of residues: the matrices are int64 while d*(p-1)^2 < 2^63
and Python ints (numpy ``dtype=object``) beyond that
(``_primepoly.exact_dtype``).  Nothing here is float64; only the oracle's
enumeration is, under its own enforced bound.

Embeddings.  The roots of the modulus g of GF(p^n) in GF(p^N), n | N, all
lie in K = GF(p^n), the kernel of F^n - I for F the Frobenius matrix, the
one subfield of that order (Lidl and Niederreiter, Thm 2.14).  The first
b of K, in code order from p, of degree n has a minimal polynomial mu_b
(``_linalg.krylov_mu``), and L = GF(p)[y]/(mu_b) is a copy of K.
``_split_root`` finds a root of g in L by GF(p) linear algebra alone, as
in Berlekamp's splitting by the fixed algebra (Math. Comp. 24, 1970):

- A = GF(p)[x, y]/(g(x), mu_b(y)) is L[x]/(g), and g has n distinct roots
  rho_k in L, so A is L^n by the Chinese remainder theorem, x going to
  (rho_1, ..., rho_n).  On the coordinate rows of x^i y^j, z -> z^p is
  the Kronecker product of the Frobenius matrices of g and mu_b.  It is a
  ring map, on each factor L the Frobenius of L, so its fixed points are
  B = GF(p)^n: one kernel, which must have dimension n.
- A basis of B separates the n factors: were two factors alike under every
  basis vector, they would be alike under all of B, its idempotents
  included.  So refining the identity e by each basis vector v in turn
  ends at a minimal idempotent.  The Krylov rows e, e v, e v^2, ... give
  the minimal polynomial m of v on eA, whose roots are the values of v on
  the factors of e, all in GF(p) (``_primepoly.factor``); for one root c,
  e m(v) / ((v - c) m'(c)) keeps just the factors of e where v = c.
- For the minimal e, on factor k, eA is L: x e = (1 (x) rho_k) e, and c ->
  (1 (x) c) e is injective on L.  So one solve of x e = sum_j r_j y^j e
  gives r = rho_k, a root of g in L.

x -> b carries that root into GF(p^N) by one product of its coordinate
row with the rows of 1, b, ..., b^(n-1) that gave mu_b; dst builds no
other field and keeps no embedding table for L.  In GF(p^N) the root's
orbit under z -> z^p is all n roots (``_conjugates``).  The sorted root
set, and so the default embedding (the smallest-encoding root), depends
neither on the root found nor on b.  g is checked once, at the smallest
root, on the rows of its powers that the default embedding reads; g has
coefficients in GF(p), so it then vanishes on the whole orbit.

Direct bases.  ``direct_field(base, N)`` builds GF(p^N), N = n p^c over
base = GF(p^n), as an Artin-Schreier tower, with no modulus search and no
root split; it returns base itself at c = 0.  From K_0 = base it adjoins
y_(i+1) with y^p - y - a_i, a_i = x_0^j y_1^(p-1) ... y_i^(p-1), x_0 the
generator of base (1 when n = 1).  K_i[y]/(y^p - y - a) is a field exactly
when Tr_(K_i/GF(p))(a) != 0 (Lidl and Niederreiter, Thm 3.78; De Feo and
Schost, J. Symbolic Comput. 47, 2012).  The conjugates of y over K_(i-1)
are y + t, t in GF(p), and the sum of (y + t)^(p-1) over t is -1, so
Tr(a_i) = (-1)^i Tr_(K_0)(x_0^j): one j < n, the first with
Tr_(K_0)(x_0^j) != 0, serves every level, and one exists since the trace
is a nonzero linear form on the span of the x_0^j.  The generators'
multiplication matrices on the basis x_0^j y_1^(e_1) ... y_c^(e_c) are
Kronecker products.  theta = b + y_1 + ... + y_c, b in base by code from
x_0 (x_0 first), until theta has degree N.  Some b qualifies: the maximal
subfield of degree N/p is K_(c-1), which holds no theta, and a maximal
subfield of degree N/r, r | n prime, r != p, holds theta for at most one
coset of b modulo its intersection with base, of order p^(n/r); at n = 1
the first theta, 1 + y_1 + ... + y_c, qualifies.  The Krylov sequence of
1 under theta gives its minimal polynomial mu, the modulus of the field
built (Rabin's test stays in the constructor), and one solve gives x_0 in
the power basis of theta.  The orbit of x_0 under z -> z^p, checked and
sorted as for a split root (``_conjugates``), fills the
``embedding_roots`` table.  The type and nullity of Tr_N(f) depend on
none of these choices: a change of modulus or of root is a GF(p)-linear
change of coordinates, and two embeddings differ by z -> z^(p^j), which
keeps Tr_N.  So the evaluator's direct step reads these fields (f and its
twist, both with coefficients in base), and every field a user sees keeps
the default modulus.

Products, powers and inverses.  Each is one call into the GF(p)[x]
arithmetic of :mod:`quadsums._primepoly` against the modulus: a product
one ``mulmod`` (O(d^2), reduced lazily), a^e one ``powmod`` after e is
reduced mod p^d - 1, and ``FieldElem.inverse`` the extended Euclid, O(d^2)
residue operations instead of a^(p^d - 2).  For d = 1 they are ``% p``
and ``pow``.

The module also houses the skew-gcd ladder behind ``nullity_at``, the
single-degree nullity that checks the first entry l_n of every closed-form
profile: ``linearized_gcd_deg`` returns log_p deg gcd(L, x^(p^m) - x) for a
p-polynomial L without materialising x^(p^m).  Remainders of p-polynomials
by p-polynomials are again p-polynomials, so x^(p^m) mod L is carried in
the sparse coefficient-per-p-power form, and each of the m rounds of p-th
powering costs O(deg_p L) field operations instead of O(deg L).
"""

from __future__ import annotations

import functools
from math import prod
from typing import Iterable, Sequence

import numpy as np

from . import _linalg
from . import _primepoly as pp
from ._numtheory import digits, is_prime, prime_divisors, valuation
from .errors import (
    DivisionByZero,
    InternalInconsistency,
    InvalidInput,
    ModulusReducible,
    NoRootFound,
    NotOdd,
    NotPrime,
    ZeroPolynomial,
)

def _has_irreducible_binomial(p: int, d: int) -> bool:
    """Some x^d - c over GF(p) is irreducible iff every prime r | d divides
    p - 1, and p = 1 (mod 4) when 4 | d (Lidl and Niederreiter, Thm 3.75)."""
    return all((p - 1) % r == 0 for r in prime_divisors(d)) and (d % 4 != 0 or p % 4 == 1)


def _default_modulus(p: int, d: int) -> tuple[int, ...]:
    # Codes 0..p-1 are the binomials x^d + c; skip them when none is irreducible.
    dtype, end = pp.exact_dtype(p, d), p**d
    size = max(1, min(d, (1 << 15) // d**2))
    for lo in range(0 if _has_irreducible_binomial(p, d) else p, end, size):
        block = np.array([digits(code, p, d) + [1] for code in range(lo, min(lo + size, end))], dtype=dtype)
        hits = np.flatnonzero(pp.is_irreducible(block, p))
        if len(hits):
            return tuple(int(c) for c in block[hits[0]])
    raise ModulusReducible(f"no irreducible of degree {d} over GF({p})")


class FieldCtx:
    """Immutable model of GF(p^d).  Use :func:`build_field_ctx` so that
    contexts are shared; direct construction still validates fully."""

    def __init__(self, p: int, d: int, modulus: tuple[int, ...] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise NotOdd("characteristic 2 is out of scope")
        if not isinstance(d, int) or d < 1:
            raise InvalidInput(f"degree must be >= 1, got {d}")
        if d == 1:
            if modulus is not None:
                raise InvalidInput("prime field takes no modulus")
        else:
            if modulus is None:
                modulus = _default_modulus(p, d)
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != d + 1 or modulus[-1] != 1:
                    raise InvalidInput("modulus must be monic of degree d")
                if not pp.is_irreducible(modulus, p):
                    raise ModulusReducible(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.d = d
        self.modulus = modulus
        self.order = p**d
        self._cache: dict = {}

    @property
    def key(self) -> tuple:
        return (self.p, self.d, self.modulus)

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.d}))" if self.d > 1 else f"FieldCtx(GF({self.p}))"

    def __reduce__(self):
        return (build_field_ctx, (self.p, self.d, self.modulus))

    # -- element constructors ------------------------------------------------

    def elem(self, value) -> "FieldElem":
        """Constant residue from an int, or coordinates from a sequence."""
        if isinstance(value, FieldElem):
            if value.ctx.key != self.key:
                raise InvalidInput("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            coeffs = (int(value) % self.p,) + (0,) * (self.d - 1)
            return FieldElem(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.d:
            raise InvalidInput(f"expected {self.d} coordinates, got {len(coeffs)}")
        return FieldElem(self, coeffs)

    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.d)

    def one(self) -> "FieldElem":
        return self.elem(1)

    def gen(self) -> "FieldElem":
        """Root of the modulus (the power-basis generator); 1 for degree 1."""
        if self.d == 1:
            return self.one()
        return FieldElem(self, (0, 1) + (0,) * (self.d - 2))

    def from_encoding(self, code: int) -> "FieldElem":
        if not 0 <= code < self.order:
            raise InvalidInput("encoding out of range")
        return FieldElem(self, tuple(digits(code, self.p, self.d)))

    def elements(self) -> Iterable["FieldElem"]:
        for code in range(self.order):
            yield self.from_encoding(code)

    def parse_elem(self, text: str) -> "FieldElem":
        return self.elem([int(t) for t in text.split(",")])

    # -- cached tables -----------------------------------------------------------

    def table(self, name: str, key, build=None):
        """The table ``name`` under key, from build() on the first call and
        read-only if an array; with no build, the cached table or None."""
        try:
            return self._cache[name][key]
        except KeyError:
            if build is None:
                return None
            value = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache.setdefault(name, {})[key] = value
            return value

    def powers(self, y: "FieldElem", k: int) -> np.ndarray:
        """Coordinate rows of 1, y, ..., y^(k-1) in the exact dtype, by k - 1
        products (y times the last, cheap for a sparse y)."""
        cur = self.one()
        rows = [cur.coeffs]
        for _ in range(k - 1):
            cur = y * cur
            rows.append(cur.coeffs)
        return np.array(rows, dtype=pp.exact_dtype(self.p, self.d))

    def _power_table(self, name: str, j: int, first) -> np.ndarray:
        """The j-th matrix power, j mod d, of the table first() (the map for
        j = 1), cached under name: ``pp.matpow`` of the cached table for 1
        or of a fresh first(), and no table in between is kept."""
        j %= self.d
        if j == 0:
            return self.table(name, 0, lambda: np.eye(self.d, dtype=pp.exact_dtype(self.p, self.d)))
        F = self.table(name, 1)
        return self.table(name, j, lambda: pp.matpow(first() if F is None else F, j, self.p))

    def frob_images(self, j: int) -> np.ndarray:
        """Images of the power basis 1, x, ..., x^(d-1) under z -> z^(p^j),
        one coordinate row each, so a coordinate row times the table applies
        the map; the table for 1 is the powers of x ** p (``_power_table``)."""
        return self._power_table("frob_images", j, lambda: self.powers(self.gen() ** self.p, self.d))

    def basis_traces(self) -> np.ndarray:
        """Tr(x^u) for u < d by the definition Tr(z) = sum_(j<d) z^(p^j), in
        the exact dtype: with F the table ``frob_images(1)``, row u of S =
        sum_(j<d) F^j is the sum of the d conjugates of x^u, one running
        product per conjugate.  Column 0 of S holds the traces and every
        other column must vanish.  The oracle's definitional trace;
        production reads row 0 of ``trace_form`` instead."""
        def build():
            F = self.frob_images(1)
            S = Fj = np.eye(self.d, dtype=F.dtype)
            for _ in range(self.d - 1):
                Fj = Fj @ F % self.p
                S = S + Fj
            S %= self.p
            if np.any(S[:, 1:]):
                raise InternalInconsistency("trace image escaped the prime field")
            return S[:, 0]

        return self.table("basis_traces", None, build)

    # -- cached exact matrices ------------------------------------------------

    def frob_mat_power(self, j: int) -> np.ndarray:
        """Matrix of z -> z^(p^j), columns = images of the power basis: the
        j-th matrix power (``_power_table``) of Q transposed, Q the
        Frobenius matrix of the modulus."""
        return self._power_table("frob_pows", j, lambda: pp.frobenius_matrix(self.modulus, self.p).T)

    def mult_mat(self, a: "FieldElem") -> np.ndarray:
        """Matrix of z -> a*z, columns = images of the power basis: a x^u is
        a x^(u-1) times the cached companion matrix of the modulus."""
        p, d = self.p, self.d
        rows = np.zeros((d, d), dtype=pp.exact_dtype(p, d))
        rows[0] = a.coeffs
        if d > 1:
            X = self.table("companion", None, lambda: pp._companion(self.modulus, p))
            for u in range(1, d):
                rows[u] = rows[u - 1] @ X % p
        return rows.T

    def p_poly_matrix(self, terms) -> np.ndarray:
        """Matrix of z -> sum c z^(p^a) over the terms (c, a), columns =
        images of the power basis: the sum of mult_mat(c) frob_mat_power(a)."""
        M = np.zeros((self.d, self.d), dtype=pp.exact_dtype(self.p, self.d))
        for c, a in terms:
            M = (M + self.mult_mat(c) @ self.frob_mat_power(a) % self.p) % self.p
        return M

    def trace_form(self) -> np.ndarray:
        """Hankel matrix H[u, w] = Tr(x^(u+w)) of the trace form on the power
        basis.  The power sums s_k = Tr(x^k) of the roots of the modulus
        x^d + c_(d-1) x^(d-1) + ... + c_0 follow from Newton's identities,
        s_k = -(k c_(d-k) + sum_(j=1..min(k-1,d)) c_(d-j) s_(k-j)), with
        c_(d-k) = 0 for k > d (Lidl and Niederreiter, Thm 1.75)."""
        def build():
            p, d, c = self.p, self.d, self.modulus  # c is None only when d = 1
            s = [d % p]
            for k in range(1, 2 * d - 1):
                acc = k * c[d - k] if k <= d else 0
                acc += sum(c[d - j] * s[k - j] for j in range(1, min(k - 1, d) + 1))
                s.append(-acc % p)
            return np.array(s, dtype=pp.exact_dtype(p, d))[np.add.outer(np.arange(d), np.arange(d))]

        return self.table("trace_form", None, build)


@functools.lru_cache(maxsize=None)
def _ctx_cached(p: int, d: int, modulus) -> FieldCtx:
    return FieldCtx(p, d, modulus)


def build_field_ctx(p: int, d: int, modulus=None) -> FieldCtx:
    """Shared, validated context for GF(p^d); see module docstring for the
    default modulus rule.  A given modulus is reduced mod p, once p is
    known to be prime, before the cache lookup."""
    p = int(p)
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
        if is_prime(p):
            modulus = tuple(c % p for c in modulus)
    return _ctx_cached(p, int(d), modulus)


def _rebuild_elem(p, d, modulus, coeffs):
    return FieldElem(build_field_ctx(p, d, modulus), coeffs)


class FieldElem:
    """Element of a FieldCtx; immutable coordinate tuple, constant term first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __reduce__(self):
        return (_rebuild_elem, (self.ctx.p, self.ctx.d, self.ctx.modulus, self.coeffs))

    def _check(self, other: "FieldElem") -> "FieldElem":
        if isinstance(other, (int, np.integer)):
            return self.ctx.elem(int(other))
        if not isinstance(other, FieldElem):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx.key != self.ctx.key:
            raise InvalidInput("operands from different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self.ctx.elem(other) - self

    def __neg__(self):
        p = self.ctx.p
        return FieldElem(self.ctx, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.ctx
        if ctx.d == 1:
            return FieldElem(ctx, (self.coeffs[0] * other.coeffs[0] % ctx.p,))
        return FieldElem(ctx, tuple(pp.mulmod(self.coeffs, other.coeffs, ctx.modulus, ctx.p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if self.is_zero():
            return self.ctx.one() if e == 0 else self.ctx.zero()
        ctx = self.ctx
        e %= ctx.order - 1
        if ctx.d == 1:
            return FieldElem(ctx, (pow(self.coeffs[0], e, ctx.p),))
        u = pp.powmod(self.coeffs, e, ctx.modulus, ctx.p)
        return FieldElem(ctx, tuple(u) + (0,) * (ctx.d - len(u)))

    def inverse(self) -> "FieldElem":
        """By the extended Euclid against the modulus; pow(a, -1, p) for d = 1."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        ctx = self.ctx
        if ctx.d == 1:
            return FieldElem(ctx, (pow(self.coeffs[0], -1, ctx.p),))
        u = pp.inverse(self.coeffs, ctx.modulus, ctx.p)
        return FieldElem(ctx, tuple(u) + (0,) * (ctx.d - len(u)))

    def frobenius(self, j: int) -> "FieldElem":
        """j-fold p-power map x^(p^j): the coordinate row times the cached
        table ``frob_images(j)``, one O(d^2) product."""
        if j < 0:
            raise InvalidInput("frobenius exponent must be >= 0")
        ctx = self.ctx
        j %= ctx.d
        if not j:
            return self
        R = ctx.table("frob_images", j)  # a hit, the common case, in one call
        if R is None:
            R = ctx.frob_images(j)
        return FieldElem(ctx, tuple((np.array(self.coeffs, dtype=R.dtype) @ R % ctx.p).tolist()))

    def trace(self) -> int:
        """Tr down to GF(p): the coordinate row times ``basis_traces``, the
        conjugate sums of the basis, one O(d) product once those are
        cached.  The oracle's definitional trace."""
        t = self.ctx.basis_traces()
        return int(np.array(self.coeffs, dtype=t.dtype) @ t % self.ctx.p)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    @property
    def encoding(self) -> int:
        code = 0
        for c in reversed(self.coeffs):
            code = code * self.ctx.p + c
        return code

    def __eq__(self, other):
        if isinstance(other, (int, np.integer)):
            other = self.ctx.elem(int(other))
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx.key == other.ctx.key and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.key, self.coeffs))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"FieldElem([{self}], GF({self.ctx.p}^{self.ctx.d}))"


# -- embeddings ---------------------------------------------------------------


def _split_root(g: tuple[int, ...], mu: list[int], p: int) -> np.ndarray:
    """Coordinates on 1, y, ..., y^(n-1) of a root of the monic irreducible
    g of degree n in L = GF(p)[y]/(mu), mu irreducible of degree n: the
    split of A = GF(p)[x, y]/(g(x), mu(y)) by GF(p) linear algebra (see the
    module docstring).  An element of A is the n x n matrix Z of its
    coordinates on x^i y^j, so x Z = X^T Z and y Z = Z Y for the companion
    matrices X of g and Y of mu, and the row of Z is Z flattened.
    NoRootFound means a corrupt context."""
    n = len(g) - 1
    dtype = pp.exact_dtype(p, n * n)

    def powers(M):  # M^0, ..., M^(n-1), stacked
        out = [np.eye(n, dtype=dtype)]
        for _ in range(n - 1):
            out.append(out[-1] @ M % p)
        return np.array(out, dtype=dtype)

    X, Y = (np.array(pp._companion(a, p), dtype=dtype) for a in (g, mu))
    Xt, Ys = powers(X.T), powers(Y)
    F = np.kron(pp.frobenius_matrix(g, p), pp.frobenius_matrix(mu, p)).astype(dtype)  # z -> z^p on rows
    fixed = _linalg.kernel_basis((F - np.eye(n * n, dtype=dtype)).T % p, p)
    if len(fixed) != n:
        raise NoRootFound(f"the fixed points of z -> z^p on A have dimension {len(fixed)}, not {n}")
    E = np.eye(n, dtype=dtype)
    for v in fixed:
        W = np.tensordot(np.array(v, dtype=dtype).reshape(n, n), Ys, 1) % p  # v = sum_i x^i W_i(y)
        K = [E]
        for _ in range(n):
            K.append((Xt @ (K[-1] @ W % p)).sum(axis=0) % p)  # v Z = sum_i (X^T)^i Z W_i
        K = np.array(K, dtype=dtype).reshape(n + 1, n * n).T
        m = _linalg.krylov_mu(K, p)
        roots = [-h[0] % p for h, k in pp.factor(tuple(m), p) if len(h) == 2 and k == 1]
        if len(roots) != len(m) - 1:
            raise NoRootFound(f"{m}, the minimal polynomial of a fixed point, has no {len(m) - 1} distinct roots")
        c = roots[0]  # e m(v) / ((v - c) m'(c)): the factors of e where v = c
        q = pp._quotient(m, [-c % p, 1], p)
        E = (K[:, : len(q)] @ np.array(q, dtype=dtype) % p * pow(prod(c - d for d in roots[1:]), -1, p) % p).reshape(n, n)
    r = _linalg.solve((E @ Ys % p).reshape(n, n * n).T, (X.T @ E % p).ravel(), p)  # x e = sum_j r_j y^j e
    if r is None:
        raise NoRootFound("x e is no multiple of e by an element of L")
    return r


def _subfield_elems(ctx: FieldCtx, n: int) -> Iterable[FieldElem]:
    """The elements of K = ker(F^n - I) = GF(p^n) inside ctx by code from
    p, the code's digits the coordinates on K's echelon basis."""
    p = ctx.p
    M = (ctx.frob_mat_power(n) - np.eye(ctx.d, dtype=np.int64)) % p
    basis = _linalg.kernel_basis(M, p)
    if len(basis) != n:
        raise NoRootFound(f"the fixed field of z -> z^(p^{n}) has dimension {len(basis)}; corrupt context")
    for code in range(p, p**n):
        c = [0] * ctx.d
        for digit, vec in zip(digits(code, p, n), basis):
            if digit:
                c = [a + digit * v for a, v in zip(c, vec)]
        yield ctx.elem(c)


def embedding_roots(src: FieldCtx, dst: FieldCtx) -> tuple[FieldElem, ...]:
    """All roots of src.modulus inside dst, sorted by integer encoding and
    cached on dst per src.key: one root from ``_split_root`` in the copy
    GF(p)[y]/(mu_b) of the subfield, the rest its orbit (see the module
    docstring)."""
    _require_subfield(src, dst)
    if src.d == 1:
        raise InvalidInput("prime field embeds without a root choice")

    def build():
        p, n = src.p, src.d
        for b in _subfield_elems(dst, n):
            B = dst.powers(b, n + 1)
            mu = _linalg.krylov_mu(B.T, p)
            if len(mu) == n + 1:  # b lies in no proper subfield
                break
        else:
            raise NoRootFound("no element generates the fixed field; corrupt context")
        r = _split_root(src.modulus, mu, p)
        return _conjugates(src, dst, dst.elem(np.array(r, dtype=B.dtype) @ B[:-1] % p))  # x -> b

    return dst.table("roots", src.key, build)


def _conjugates(src: FieldCtx, dst: FieldCtx, r: FieldElem) -> tuple[FieldElem, ...]:
    """The orbit of a root r of src.modulus in dst under z -> z^p, sorted by
    encoding: all n = src.d roots.  NoRootFound unless the orbit closes
    after n distinct elements and src.modulus vanishes at the smallest, on
    the rows of its powers, kept as the default embedding's table: then
    every element of the orbit is a root, and no other is."""
    orbit = [r]
    for _ in range(src.d - 1):
        orbit.append(orbit[-1].frobenius(1))
    roots = tuple(sorted(orbit, key=lambda e: e.encoding))
    closed = orbit[-1].frobenius(1) == r and len(set(roots)) == src.d
    R = _root_powers(src, dst, roots[0]) if closed else None
    if R is None:
        raise NoRootFound(f"the orbit of {r} is not the {src.d} roots of {src.modulus}; corrupt context")
    dst.table("embed", src.key, lambda: R)
    return roots


def _require_subfield(src: FieldCtx, dst: FieldCtx):
    if src.p != dst.p:
        raise InvalidInput("different characteristics")
    if dst.d % src.d:
        raise InvalidInput(f"GF({src.p}^{src.d}) is not a subfield of GF({dst.p}^{dst.d})")


def embed_element(src: FieldCtx, dst: FieldCtx, x: FieldElem) -> FieldElem:
    """Image of x under the default embedding, which sends the src
    generator to the smallest-encoding root of src.modulus in dst: x's row
    times the matrix of that root's powers, which ``embedding_roots``
    checks and caches on dst per src."""
    _require_subfield(src, dst)
    if x.ctx.key != src.key:
        raise InvalidInput("element does not belong to src")
    if src.key == dst.key:
        return FieldElem(dst, x.coeffs)
    if src.d == 1:
        return dst.elem(x.coeffs[0])
    embedding_roots(src, dst)
    R = dst.table("embed", src.key)
    out = np.array(x.coeffs, dtype=R.dtype) @ R % dst.p
    return FieldElem(dst, tuple(int(c) for c in out))


def _root_powers(src: FieldCtx, dst: FieldCtx, root: FieldElem) -> np.ndarray | None:
    """Rows of root^u for u < n = src.d, cut from those for u <= n, which
    give src.modulus at root: None unless it vanishes there."""
    R = dst.powers(root, src.d + 1)
    if ((np.array(src.modulus[:-1], dtype=R.dtype) @ R[:-1] % dst.p + R[-1]) % dst.p).any():
        return None
    return R[:-1]


# -- direct bases on Artin-Schreier towers -------------------------------------


def direct_field(base: FieldCtx, N: int) -> FieldCtx:
    """GF(p^N) for N = n p^c over base = GF(p^n): base itself at c = 0, else
    the top of the Artin-Schreier tower over base with the roots of
    base.modulus cached for ``embedding_roots`` (see the module docstring).
    Cached per (base, N); InvalidInput unless N / n is a power of p."""
    n, p = base.d, base.p
    c = valuation(N // n, p) if N > n and N % n == 0 else 0
    if N != n * p**c:
        raise InvalidInput(f"{N} is not {n} times a positive power of {p}")
    return _direct_cached(base, c) if c else base


@functools.lru_cache(maxsize=None)
def _direct_cached(base: FieldCtx, c: int) -> FieldCtx:
    n, p = base.d, base.p
    N = n * p**c
    dtype = pp.exact_dtype(p, N)
    # K_(i+1) = K_i[y]/(y^p - y - a_i) on coordinate blocks v_0..v_(p-1) of
    # K_i, v_e the coefficient of y^e: y v = (a_i v_(p-1), v_0 + v_(p-1),
    # v_1, ..., v_(p-2)), and y^(p-1) v = (a_i v_1, v_1 + a_i v_2, ...,
    # v_(p-2) + a_i v_(p-1), v_(p-1) + v_0) gives a_(i+1) = a_i y^(p-1).
    shift, up, wrap = np.eye(p, k=-1, dtype=dtype), np.eye(p, k=1, dtype=dtype), np.eye(p, dtype=dtype)
    shift[1, p - 1] = 1
    wrap[0, 0], wrap[p - 1, 0] = 0, 1
    last = np.zeros((p, p), dtype=dtype)
    last[0, p - 1] = 1
    j = next(u for u in range(n) if base.trace_form()[0, u])
    A = np.array(base.mult_mat(base.gen() ** j), dtype=dtype)  # a_0 = x_0^j
    Y = np.zeros((n, n), dtype=dtype)  # y_1 + ... + y_i on K_i
    for _ in range(c):
        Y = np.kron(np.eye(p, dtype=dtype), Y) + np.kron(shift, np.eye(len(A), dtype=dtype)) + np.kron(last, A)
        A = (np.kron(wrap, A) + np.kron(up, A @ A % p)) % p
    lift = np.eye(p**c, dtype=dtype)
    for code in range(base.gen().encoding, base.order):  # theta = b + y_1 + ... + y_c
        T = (np.kron(lift, base.mult_mat(base.from_encoding(code))) + Y) % p
        K = _linalg.krylov(T, N, p)
        mu = _linalg.krylov_mu(K, p)
        if len(mu) == N + 1:
            break
    else:
        raise InternalInconsistency(f"no theta generates the tower of degree {N} over GF({p}^{n})")
    dst = build_field_ctx(p, N, mu)
    if n > 1:
        x0 = _linalg.solve(K[:, :N], np.eye(1, N, 1, dtype=dtype)[0], p)
        if x0 is None:
            raise InternalInconsistency("the powers of theta span no basis")
        r = dst.elem(x0.tolist())
        dst.table("roots", base.key, lambda: _conjugates(base, dst, r))
    return dst


# -- the iterated-Frobenius gcd kernel -----------------------------------------
#
# A p-polynomial sum(c_j * z^(p^j)) is carried as the list [c_0, c_1, ...].
# Right division of p-polynomials (composition order) keeps every remainder
# additive and reproduces the dense remainder sequence exactly, so the gcd
# degree below is by construction the degree of the monic commutative gcd.
# Over GF(p), where c^p = c, right division is ordinary division of the
# coefficient lists, so that branch runs on the Euclid of _primepoly.


class FrobeniusLadder:
    """Incrementally tracks x^(p^m) mod f for a p-polynomial f, exposing the
    gcd degree with x^(p^m) - x at each height m."""

    def __init__(self, ctx: FieldCtx, coeffs: Sequence):
        self.ctx = ctx
        self._ints = ctx.d == 1
        if self._ints:
            f = [(c if isinstance(c, int) else c.coeffs[0]) % ctx.p for c in coeffs]
        else:
            f = [ctx.elem(c) if not isinstance(c, FieldElem) else c for c in coeffs]
        f = pp.trim(list(f))
        if not f:
            raise ZeroPolynomial("zero p-polynomial")
        self.f = f
        self.h: list = [1 if self._ints else ctx.one()]
        self.height = 0

    # one step: h <- h^p mod f, in additive form h^p = sum c_j^p z^(p^(j+1))
    def step(self):
        p = self.ctx.p
        if self._ints:
            self.h = pp.rem([0] + self.h, self.f, p)  # c^p = c in GF(p)
        else:
            h = [self.ctx.zero()] + [c.frobenius(1) for c in self.h]
            self.h = _rrem_elem(self.ctx, h, self.f)
        self.height += 1

    def kernel_exponent(self) -> int:
        """Skew degree of gcd(f, x^(p^height) - x); the commutative gcd degree
        is p to this power."""
        if self._ints:
            g = list(self.h) or [0]
            g[0] = (g[0] - 1) % self.ctx.p
            return len(pp.gcd(self.f, g, self.ctx.p)) - 1
        g = list(self.h) or [self.ctx.zero()]
        g[0] = g[0] - self.ctx.one()
        a, b = self.f, pp.trim(g)
        while b:
            a, b = b, _rrem_elem(self.ctx, a, b)
        return len(a) - 1


def _rrem_elem(ctx: FieldCtx, a: list, b: list) -> list:
    db = len(b) - 1
    binv = b[-1].inverse()
    a = list(a)
    while len(a) - 1 >= db:
        if a[-1].is_zero():
            a.pop()
            continue
        i = len(a) - 1 - db
        q = a[-1] * binv.frobenius(i)
        for j in range(db + 1):
            a[i + j] = a[i + j] - q * b[j].frobenius(i)
        if not a[-1].is_zero():
            raise InternalInconsistency("skew remainder step left a nonzero leading coefficient")
        a.pop()
    return pp.trim(a)


def linearized_gcd_deg(ctx: FieldCtx, coeffs: Sequence, m: int) -> int:
    """log_p of deg gcd(sum c_j z^(p^j), x^(p^m) - x)."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    ladder = FrobeniusLadder(ctx, coeffs)
    for _ in range(m):
        ladder.step()
    return ladder.kernel_exponent()
