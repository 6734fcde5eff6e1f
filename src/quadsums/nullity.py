"""Nullity of the trace quadratic form attached to f(x) = sum a_i x^(p^a_i + 1).

The radical of Tr_m(f) is the kernel, inside GF(p^m), of the separable
p-polynomial L = sum c_j z^(p^j) of p-degree 2*alpha built from f's
coefficients (``radical_poly``); its GF(p)-dimension is l_m.  L has
coefficients in GF(p^n), so z -> z^(p^n) maps its 2*alpha-dimensional
root space V to itself, as a GF(p)-linear map A.  The roots in GF(p^(kn))
are those fixed by A^k, so

    l_(kn) = dim ker(A^k - I),    s = n * ord(A),

where s, the splitting exponent, is the least multiple of n with
l_s = 2*alpha, and l_m = l_gcd(m, s) for every other multiple m of n.  This
is the effective way to compute the nullity for all m: ``NullityProfile``
answers l_m with one power, A^(gcd(m, s)/n), memoized per exponent, and
lists the pairs (m, l_m) over the divisors of s, which are tens of
thousands when p - 1 is smooth, only when they are read.  Powers square
from the top bit of the exponent down and take no product with I.

One action for every n.  With R = GF(p^n)[T; sigma] (T a = a^p T,
composition of p-polynomials), left multiplication by the central T^n on
R/RL is GF(p^n)-linear and similar to A over GF(p^n); over GF(p) it is a
2*alpha*n square matrix M, n copies of A.  So M and A share their minimal
polynomial mu over GF(p), of degree at most 2*alpha (mu(T^n) is the bound
of L: Giesbrecht, J. Symbolic Comput. 26, 1998).  The profile runs on the
companion matrix C of mu at every n: C^k = I exactly when mu divides
x^k - 1, exactly when A^k = I, so ord(A) = ord(C).  Column 0 of y(C) is
y mod mu.  When deg mu = 2*alpha, A is cyclic, so similar to C, and
dim ker y(A) = deg gcd(mu, y) (Lidl and Niederreiter, Finite Fields,
Thm 3.62).  Otherwise (A = -I, say) it is dim ker y(M) / n, with
y(M) = sum y_j M^j from the stored powers of M.

Reading mu.  For n = 1, mu = ell/lead(ell) for ell(x) = sum c_j x^j, the
conventional associate of L, and M, its companion matrix, is never built.
For n > 1, mu is the annihilator of the element 1 of R/RL: a central z
with z 1 in RL lies in RL, a left ideal, so z r = r z lies in RL for
every r and z annihilates the whole module; mu lies in GF(p)[x] because
T^n is central.  So mu is read off the first linear dependency of the
Krylov columns e_0, M e_0, ... (e_0 the coordinates of 1) by one row
echelon form, and checked by mu(M) = 0.  M's column 0 is T^n mod L, one
right remainder; each next column is T times the last, reduced by one
left multiple of L (RL is a left ideal, so T (T^(n+i) mod L) is
T^(n+i+1) mod L).

The order: every eigenvalue of degree k over GF(p) lies in GF(p^k)^*.  The
degrees come from dim ker(A^(p^k) - A), the count of Jordan blocks whose
eigenvalue lies in GF(p^k) (a distinct-degree split; for cyclic A, gcds
of mu with x^(p^k) - x).  The semisimple part's order divides
lcm(p^k - 1) over those degrees and is found prime by prime from the
factored p^k - 1; the unipotent part adds a factor p^t, found by at most
log_p(2*alpha) + 1 power checks.  Powers and order checks run on C, of
size deg mu.  ``nullity_profile`` checks l_n against the independent
skew-gcd ladder (``nullity_at``) and l_s against 2*alpha.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import _linalg
from . import _primepoly as pp
from ._numtheory import factor_power_minus_one
from .errors import InternalInconsistency, InvalidInput, NotMultipleOfBase
from .fieldcore import (
    FieldCtx,
    FieldElem,
    _rrem_elem,
    build_field_ctx,
    embed_element,
    linearized_gcd_deg,
)


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

    def terms_in(self, ctx: FieldCtx) -> list[tuple[FieldElem, int]]:
        """The terms with each coefficient embedded in ctx, a field that
        contains GF(p^n) (the default embedding; ctx may be GF(p^n))."""
        return [(embed_element(self.ctx, ctx, c), a) for c, a in self.terms]

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
                acc = acc + embed_element(self.ctx, x.ctx, c) * x.frobenius(j)
        return acc

    def linear_map_matrix(self, ctx_big: FieldCtx):
        """Matrix over GF(p) of z -> f*(z) acting on ctx_big, coefficients
        embedded; columns act on coordinate vectors."""
        p = ctx_big.p
        M = 0
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cE = embed_element(self.ctx, ctx_big, c)
            M = (M + ctx_big.mult_mat(cE) @ ctx_big.frob_mat_power(j) % p) % p
        return M


def radical_poly(f: QuadFunc) -> LinearizedPoly:
    """The separable p-polynomial whose kernel in GF(p^m) is the radical of
    Tr_m(f); p-power degree is exactly 2*alpha.  Built once per f and
    memoized like ``nullity_profile``, which reads it twice: in the action
    and in the l_n ladder check."""
    out = _radical_poly(f)
    if not out.is_separable():
        raise InternalInconsistency("radical polynomial must be separable")
    return out


@functools.lru_cache(maxsize=512)
def _radical_poly(f: QuadFunc) -> LinearizedPoly:
    alpha = f.top_alpha
    coeffs = [f.ctx.zero()] * (2 * alpha + 1)
    for a, ai in f.terms:
        coeffs[alpha + ai] = coeffs[alpha + ai] + a.frobenius(alpha)
        coeffs[alpha - ai] = coeffs[alpha - ai] + a.frobenius(alpha - ai)
    return LinearizedPoly(f.ctx, tuple(coeffs))


def nullity_at(f: QuadFunc, m: int) -> int:
    """l_m(f) = dim of the radical of Tr_m(f) over GF(p); requires n | m."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    return linearized_gcd_deg(f.ctx, list(radical_poly(f).coeffs), m)


def splitting_exponent(f: QuadFunc) -> int:
    """Least multiple s of n with l_s = 2*alpha; GF(p^s) is the splitting
    field of the radical polynomial."""
    return NullityProfile(f).s


def _block_matrix(f: QuadFunc) -> np.ndarray:
    """M for n > 1, block (j, i) the mult_mat of the T^j coefficient of
    r_i = T^(n+i) mod L, on the 2*alpha x n coordinate array of r_i: T
    shifts the rows up, each times F^T (F the Frobenius matrix), and q L,
    q = lead(T r_i)/lead(L), is q times the stack of L X_k^T, with X the
    stack of mult_mat(x^k), k < n.  The blocks are one tensordot with X."""
    ctx, n, p = f.ctx, f.n, f.p
    L = radical_poly(f).coeffs
    dim = len(L) - 1
    dtype = pp.exact_dtype(p, dim * n)
    X = np.array([ctx.mult_mat(ctx.from_encoding(p**k)) for k in range(n)], dtype=dtype)
    F = np.array(ctx.frob_mat_power(1).T, dtype=dtype)
    low = np.array([c.coeffs for c in L[:-1]], dtype=dtype).reshape(dim, n)
    qL = (low @ X.transpose(0, 2, 1) % p).reshape(n, dim * n)
    lead_inv = np.array(ctx.mult_mat(L[-1].inverse()).T, dtype=dtype)
    r = np.zeros((dim, n), dtype=dtype)
    rem = _rrem_elem(ctx, [ctx.zero()] * n + [ctx.one()], list(L))
    if rem:
        r[: len(rem)] = [c.coeffs for c in rem]
    cols = np.zeros((dim, dim, n), dtype=dtype)
    for i in range(dim):
        cols[i] = r
        s = r @ F % p
        q = s[-1] @ lead_inv % p
        r[0], r[1:] = 0, s[:-1]
        r = (r - (q @ qL).reshape(dim, n)) % p
    blocks = np.tensordot(cols, X, axes=([2], [0])) % p  # blocks[i, j] is block (j, i)
    return blocks.transpose(1, 2, 0, 3).reshape(dim * n, dim * n)


def _krylov_mu(K: np.ndarray, p: int) -> list[int]:
    """The minimal polynomial of M, monic with ascending coefficients, from
    K, whose column j is M^j e_0, j <= 2*alpha: with the first r columns
    independent, the reduced echelon form's column r holds the
    coordinates of M^r e_0 on them."""
    R, pivots, _ = _linalg.row_echelon(K, p)
    r = len(pivots)
    if r == K.shape[1]:
        raise InternalInconsistency(f"the Krylov sequence of 1 has no dependency within {r - 1} steps")
    return [-int(c) % p for c in R[:r, r]] + [1]


class _Action:
    """The action A of z -> z^(p^n) on the root space, of dimension ``dim``
    = 2*alpha, as the module docstring says: ``gen`` is the companion
    matrix C of its minimal polynomial ``mu`` (ascending, monic), of size
    deg mu, and ``one`` the identity of that size.  When deg mu < dim,
    ``powers`` holds M^0, ..., M^(deg mu - 1) for the kernels, else None.
    ``gen`` and ``one`` are read-only, as ``_power`` may return either."""

    def __init__(self, f: QuadFunc):
        p, n = f.p, f.n
        L = radical_poly(f).coeffs
        self.p, self.n, self.dim = p, n, len(L) - 1
        self.powers = None
        if n == 1:
            inv = pow(L[-1].coeffs[0], -1, p)
            self.mu = [c.coeffs[0] * inv % p for c in L]
        else:
            M = _block_matrix(f)
            powers = [np.eye(len(M), dtype=M.dtype), M]
            while len(powers) <= self.dim:
                powers.append(powers[-1] @ M % p)
            powers = np.array(powers[: self.dim + 1], dtype=M.dtype)
            self.mu = _krylov_mu(powers[:, :, :1].reshape(self.dim + 1, len(M)).T, p)
            r = len(self.mu) - 1
            if (np.tensordot(np.array(self.mu, dtype=M.dtype), powers[: r + 1], 1) % p).any():
                raise InternalInconsistency(f"mu = {self.mu} does not annihilate the action")
            if r < self.dim:
                self.powers = powers[:r]
        size = len(self.mu) - 1
        dtype = pp.exact_dtype(p, size)
        self.one = np.eye(size, dtype=dtype)
        self.gen = np.eye(size, k=-1, dtype=dtype)
        if size:
            self.gen[:, -1] = [-c % p for c in self.mu[:-1]]
        self.gen.setflags(write=False)
        self.one.setflags(write=False)

    def nullity(self, a, b) -> int:
        """dim ker(a - b) on the root space, for a - b = y(C), whose column 0
        is y mod mu: deg gcd(mu, y) when A is cyclic, else the kernel of
        y(M), a GF(p^n)-space, divided by n."""
        y = (a[:, :1] - b[:, :1]).ravel() % self.p
        if self.powers is None:
            return pp.gcd_degree(self.mu, y.tolist(), self.p)
        ym = np.tensordot(np.array(y, dtype=self.powers.dtype), self.powers, 1) % self.p
        k = _linalg.kernel_dim(ym, self.p)
        if k % self.n:
            raise InternalInconsistency(f"kernel of dimension {k} is not a GF(p^{self.n})-space")
        return k // self.n


def _power(act, a, e: int):
    """a^e, squaring from the top bit of e down: no product with ``one``,
    which is returned only for e = 0 (and a itself for e = 1)."""
    if not e:
        return act.one
    out = a
    for bit in bin(e)[3:]:
        out = out @ out % act.p
        if bit == "1":
            out = out @ a % act.p
    return out


def _is_one(act, a) -> bool:
    return bool((a == act.one).all())


def _eigen_degrees(act) -> tuple[dict[int, int], bool]:
    """{k: c_k} for the degrees k over GF(p) of the eigenvalues of the
    action A, with c_k > 0 the number of their Jordan blocks (conjugates
    counted); and whether A is semisimple.

    dim ker(A^(p^k) - A) = sum over j | k of c_j: A is invertible, and
    A^(p^k - 1) - I has a one-dimensional kernel on each Jordan block of an
    eigenvalue in GF(p^k), as p^k - 1 is prime to p.  The walk stops once
    the dimensions left could not hold an eigenvalue of higher degree."""
    counts: dict[int, int] = {}
    y, k = act.gen, 0
    while act.dim - sum(counts.values()) > k:
        k += 1
        y = _power(act, y, act.p)
        c = act.nullity(y, act.gen) - sum(v for j, v in counts.items() if k % j == 0)
        if c:
            counts[k] = c
    return counts, sum(counts.values()) == act.dim


def _order(act) -> dict[int, int]:
    """Factored multiplicative order of the action A.  With S its
    semisimple part, ord(A) = ord(S) * p^t.  Every eigenvalue of degree k
    lies in GF(p^k)^*, so ord(S) divides E = lcm(p^k - 1); B = A^(p^T), with
    p^T at least the largest Jordan block, has the order of S.  Then t is
    the least exponent with A^(ord(S) p^t) = I, at most T."""
    p = act.p
    degrees, semisimple = _eigen_degrees(act)
    E: dict[int, int] = {}
    for k in degrees:
        for q, v in factor_power_minus_one(p, k):
            E[q] = max(E.get(q, 0), v)
    T = 0
    while not semisimple and p**T < act.dim:
        T += 1
    B = _power(act, act.gen, p**T)
    order = {q: v for q, v in _order_dividing(act, B, sorted(E.items())) if v}
    if semisimple:  # T = 0: B is A
        return order
    z, t = _power(act, act.gen, _expand(order.items())), 0
    while not _is_one(act, z):
        if t == T:
            raise InternalInconsistency("unipotent part outlasts the largest Jordan block")
        z, t = _power(act, z, p), t + 1
    if t:
        order[p] = t  # p^k - 1 is prime to p
    return order


def _order_dividing(act, z, fac: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Factored order of z, whose order divides prod q^v over fac.  The
    primes are split in halves and each half's order taken of z raised to
    the other half's part, so the exponents over one level of the recursion
    add up to about log2 of the product."""
    if len(fac) > 1:
        lo, hi = fac[: len(fac) // 2], fac[len(fac) // 2 :]
        return _order_dividing(act, _power(act, z, _expand(hi)), lo) + _order_dividing(
            act, _power(act, z, _expand(lo)), hi
        )
    out = []
    for q, v in fac:
        j = 0
        while j < v and not _is_one(act, z):
            z, j = _power(act, z, q), j + 1
        out.append((q, j))
    if not _is_one(act, z):
        raise InternalInconsistency(f"eigenvalue orders do not divide {_expand(fac)}")
    return out


def _expand(fac) -> int:
    return prod(q**v for q, v in fac)


class NullityProfile:
    """l_m of f for every m, from the action A and its factored order
    ``order``, with s = n * ord(A).  ``nullity(m)`` is
    dim ker(A^(gcd(m, s)/n) - I), one power of A, memoized per exponent;
    ``entries``, the pairs (m, l_m) for every divisor m of s with n | m, is
    built when first read."""

    def __init__(self, f: QuadFunc):
        self.func = f
        self._act = _Action(f)
        self.order = _order(self._act)
        self.s = f.n * _expand(self.order.items())
        self._memo: dict[int, int] = {}

    def nullity(self, m: int) -> int:
        n = self.func.n
        if m < 1 or m % n:
            raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={n}")
        k = gcd(m, self.s) // n
        if k not in self._memo:
            act = self._act
            self._memo[k] = act.nullity(_power(act, act.gen, k), act.one)
        return self._memo[k]

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """Powers of A along the divisor lattice of ord(A), prime by prime."""
        act = self._act
        powers = [(1, act.gen)]
        for q, v in self.order.items():
            walk = []
            for k, y in powers:
                for i in range(v + 1):
                    walk.append((k * q**i, y))
                    if i < v:
                        y = _power(act, y, q)
            powers = walk
        return tuple(sorted((self.func.n * k, act.nullity(y, act.one)) for k, y in powers))

    @property
    def entry_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def pair_count(self) -> int:
        """len(entries), the number of divisors of ord(A), read off ``order``."""
        return prod(v + 1 for v in self.order.values())

    def to_json_dict(self) -> dict:
        """The profile as JSON, with entries None, never walked, when
        pair_count pairs of up to len(" (s,2*alpha)") characters would pass
        the int-to-string limit (sys.get_int_max_str_digits(); 0 lifts it)."""
        f = self.func
        if f.n == 1:
            coeffs = [c.coeffs[0] for c in f.dense_coeffs()]
        else:
            coeffs = [list(c.coeffs) for c in f.dense_coeffs()]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        listed = not limit or self.pair_count * len(f" ({self.s},{2 * f.top_alpha})") <= limit
        return {
            "p": f.p,
            "n": f.n,
            "coeffs": coeffs,
            "s": self.s,
            "entries": [list(e) for e in self.entries] if listed else None,
        }


@functools.lru_cache(maxsize=512)
def nullity_profile(f: QuadFunc) -> NullityProfile:
    prof = NullityProfile(f)
    l_n, ladder = prof.nullity(f.n), nullity_at(f, f.n)
    if l_n != ladder:
        raise InternalInconsistency(f"closed form gives l_{f.n} = {l_n}, the ladder {ladder}")
    l_s = prof.nullity(prof.s)
    if l_s != 2 * f.top_alpha:
        raise InternalInconsistency(f"profile ends at l_{prof.s} = {l_s}, not 2*alpha")
    return prof


def matrix_kernel_nullity(f: QuadFunc, m: int) -> int:
    """Independent nullity backend: kernel dimension of the radical
    polynomial as a GF(p)-linear map on GF(p^m).  Cross-check only; the
    closed-form profile is authoritative."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    ctx_big = build_field_ctx(f.p, m)
    M = radical_poly(f).linear_map_matrix(ctx_big)
    return _linalg.kernel_dim(M, f.p)
