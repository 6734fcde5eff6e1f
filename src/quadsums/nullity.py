"""Nullity of the trace quadratic form attached to f(x) = sum a_i x^(p^a_i + 1).

The radical of Tr_m(f) is the kernel, inside GF(p^m), of the separable
p-polynomial L = sum c_j z^(p^j) of p-degree 2*alpha (``radical_poly``);
its GF(p)-dimension is l_m.  z -> z^(p^n) acts on the 2*alpha-dimensional
root space V as a GF(p)-linear map A, the roots in GF(p^(kn)) are those
fixed by A^k, so l_(kn) = dim ker(A^k - I) and s = n * ord(A).

A's minimal polynomial mu has degree at most 2*alpha (mu(T^n) is the
bound of L in R = GF(p^n)[T; sigma]: Giesbrecht, J. Symbolic Comput. 26,
1998).  For n = 1 it is ell(x) = sum c_j x^j made monic (``monic_ell``).
For n > 1, left multiplication by the central T^n on R/RL is a 2*alpha*n
square matrix M over GF(p), n copies of A, on the coordinates of the T^j
coefficients of a remainder, block j.  M = S^n (``_primepoly.matpow``),
S left multiplication by T (``_step_matrix``): T c T^i = c^p T^(i+1), so
block (i + 1, i) of S is the Frobenius matrix F, and c^p T^(2*alpha) =
-sum_j c^p (L_j / lead L) T^j mod L fills block column 2*alpha - 1.  mu
annihilates the element 1 (a central z with z 1 in RL has z r = r z in RL
for every r), so it is the first linear dependency of the Krylov columns
e_0, M e_0, ..., M^(2*alpha) e_0 (``_linalg.krylov``).

mu(M) = 0 is checked by mu(M) e_0 = 0 and by every n x n block of M
commuting with G = mult_mat(x), which the true M passes, as T^n x = x T^n.
That suffices.  The blocks commute with G iff M commutes with D = diag(G,
..., G), left multiplication by x, and then Z = mu(M) commutes with D, and
with S, as M is a power of S.  So Z e_0 = 0 gives Z S^i D^k e_0 = 0.  The
D^k e_0 = x^k, k < n, span block 0, and S^i, i < 2*alpha, maps block 0 to
block i by F^i alone (the subdiagonal), which is invertible: the S^i D^k
e_0 span the space, and Z = 0.  No power of M is kept (``_Action``).

The profile from mu = prod Q^e (``_primepoly.factor_reciprocal``, below;
the product checked); no factor is x, and ord(g) divides p^(deg g) - 1
(``_primepoly.order``).  With k = k' p^v, p not dividing k', l_(kn) is
the sum over the irreducible g | mu with ord(g) | k' of kappa_g(v) = dim
ker g(A)^min(p^v, e), and s = n * lcm of ord(g) p^t, p^t the least power
>= e (Lidl and Niederreiter, Finite Fields, Thm 3.8, 3.9).  Proof, for A
cyclic or not: V is the sum of the A-stable V_g = ker g(A)^e, which hold
every ker g(A)^j.  x^k - 1 is (x^k' - 1)^(p^v), and x^k' - 1 the product
of the distinct irreducibles h with ord(h) | k'.  If ord(g) does not
divide k', A^k - I is invertible on V_g.  Else x^k' - 1 = g u with u(A)
invertible on V_g, and there ker(A^k - I) = ker g(A)^(p^v) = ker
g(A)^min(p^v, e).  ord(A) is the least k with mu | x^k - 1, the lcm of
ord(g^e) = ord(g) p^t.  When deg mu = 2*alpha, A is cyclic and dim ker
Q(A)^j = j deg Q (Thm 3.62); otherwise (A = -I, say) it is dim ker B^j /
n, B = Q(M) by Horner, each B^j from the last; kappa_g(v) is that, j =
min(p^v, e), over the number of irreducibles in Q (one, or two for a
pair, below).  ``nullity``, ``entries`` (one pair per divisor of s,
listed only when read, in one walk over the divisors) and ``pair_count``
are integer arithmetic.  Each ``NullityProfile`` checks l_n against the
skew-gcd ladder (``nullity_at``) and l_s against 2*alpha.

A is symplectic (van der Geer and van der Vlugt, Compositio Math. 84,
1992).  On the algebraic closure, where z -> z^p is a bijection, let
E(z) = sum_i a_i z^(p^alpha_i) + (a_i z)^(p^-alpha_i), so that L is
E(z)^(p^alpha) and V = ker L = ker E.  The polar form of f is B(x, y) =
f(x + y) - f(x) - f(y) = sum_i a_i (x^(p^alpha_i) y + x y^(p^alpha_i)).
With wp(w) = w^p - w, u - u^(p^-k) = wp(sum_(t<k) u^(p^(t-k))), so B(x,
y) = y E(x) + wp(c(x, y)), c(x, y) = sum_i sum_(t<alpha_i) (a_i x
y^(p^alpha_i))^(p^(t-alpha_i)).  On V, B(x, y) = wp(c(x, y)), and as B is
symmetric also wp(c(y, x)): the pairing <x, y> = c(x, y) - c(y, x) has
wp(<x, y>) = 0, so it is GF(p)-valued.  c is additive in each argument
and GF(p)-linear, so <,> is GF(p)-bilinear, and <x, x> = 0: it is
alternating.  The a_i lie in GF(p^n), so z -> z^(p^n) takes c(x, y) to
c(Ax, Ay), and <Ax, Ay> = <x, y>^(p^n) = <x, y>.  <,> is nondegenerate:
for x != 0 in V (so alpha >= 1), <x, y> = <x, y>^(p^alpha) is a
p-polynomial in y of degree at most p^(2*alpha - 1) (c(x, y) has the
powers y^(p^t), 0 <= t < alpha, and c(y, x) the y^(p^(t - alpha_i)), t <
alpha_i), whose coefficient at y^(p^(2*alpha - 1)) is (a x)^(p^(alpha -
1)) != 0, a the coefficient of the top term (t = alpha - 1 there alone);
it cannot vanish on all p^(2*alpha) points of V.  So A preserves <,>:
with J the invertible alternating matrix of <,>, A^T J A = J, and A^(-1)
= J^(-1) A^T J is similar to A^T, so to A.

Hence mu* = +-mu, mu* = x^(deg mu) mu(1/x): the minimal polynomial of
A^(-1) is mu*/mu(0), so mu* = mu(0) mu, and mu(0)^2 = 1 (the top and
constant coefficients).  Nothing bounds the power of x -+ 1 in mu (A = -I
has mu = x + 1; A = I has mu = x - 1, with mu* = -mu).  The rest r of mu
without x -+ 1 has r* = +-r and r(+-1) != 0.  r* = -r would give r(1) =
-r(1), and an odd degree r(-1) = -r(-1), so r is palindromic of even
degree 2k.  ``_primepoly.factor_reciprocal`` strips every power of x -+ 1
(one row each, Q = x -+ 1) and raises unless r is palindromic.

Half of mu.  r = x^k H(x + 1/x) with H monic of degree k: x^i + x^(-i) =
D_i(x + 1/x) for the Dickson polynomials D_0 = 2, D_1 = y, D_(i+1) = y
D_i - D_(i-1) (Lidl and Niederreiter, ch. 7), so H = c_k + sum_(i>=1)
c_(k+i) D_i.  Only H is factored.  An irreducible q | H of degree j gives
Q = x^j q(x + 1/x), the product of x^2 - b x + 1 over the roots b of q.
No b is +-2, as r(1) = H(2) and r(-1) = (-1)^k H(-2) do not vanish, so
the roots w, 1/w of x^2 - b x + 1 are distinct and Q is square-free.  w
lies in GF(p^j), which holds b, iff b^2 - 4 is a square there, iff
legendre(Norm(b^2 - 4), p) = 1; Norm(b - c) = (-1)^j q(c), so Norm(b^2 -
4) = q(2) q(-2) (Meyn, AAECC 1, 1990).  GF(p)(w) holds b, so for a
nonsquare w has degree 2j and Q is irreducible; then 1/w = w^(p^i), 0 < i
< 2j (1/w != w), so w^(p^(2i)) = (1/w)^(p^i) = w, 2j | 2i and i = j:
w^(p^j + 1) = 1, and ``_primepoly.order`` searches ord Q among the
divisors of p^j + 1, not of p^(2j) - 1.  For a square w has degree j and
Q = g g*, g the minimal polynomial of w and g* that of 1/w, g != g* as Q
is square-free.  The roots of g* are the inverses of those of g, so ord
g* = ord g, and all lie in GF(p^j): the order of x modulo Q is ord g
(``_primepoly.order`` with k = j).  g and g* share the degree j, the
multiplicity e, the order and the kernels: g*(A) is a unit times
A^j g(A^(-1)), and g(A^(-1))^i = J^(-1) (g(A)^i)^T J has the rank of
g(A)^i; g and g* are coprime, so ker Q(A)^i is the direct sum of ker
g(A)^i and ker g*(A)^i, each half of it (``NullityProfile`` raises when
it is odd).  One row of Q, counted twice, stands for both, and a pair is
split only to list ``factors``.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import _linalg
from . import _primepoly as pp
from ._numtheory import valuation
from .errors import InternalInconsistency, InvalidInput, NotMultipleOfBase
from .fieldcore import (
    FieldCtx,
    FieldElem,
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
        term = "({})*x^{}" if self.n > 1 else "{}*x^{}"
        return " + ".join(term.format(c if self.n > 1 else c.coeffs[0], self.p**a + 1) for c, a in self.terms)


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
        embedded; columns act on coordinate vectors (``p_poly_matrix``)."""
        terms = [(embed_element(self.ctx, ctx_big, c), j) for j, c in enumerate(self.coeffs) if not c.is_zero()]
        return ctx_big.p_poly_matrix(terms)


@functools.lru_cache(maxsize=512)
def radical_poly(f: QuadFunc) -> LinearizedPoly:
    """The separable p-polynomial whose kernel in GF(p^m) is the radical of
    Tr_m(f); p-power degree is exactly 2*alpha.  Built and checked once per
    f and memoized: the action (or ``_step_matrix``) and the ladder read it."""
    alpha = f.top_alpha
    coeffs = [f.ctx.zero()] * (2 * alpha + 1)
    for a, ai in f.terms:
        coeffs[alpha + ai] = coeffs[alpha + ai] + a.frobenius(alpha)
        coeffs[alpha - ai] = coeffs[alpha - ai] + a.frobenius(alpha - ai)
    out = LinearizedPoly(f.ctx, tuple(coeffs))
    if not out.is_separable():
        raise InternalInconsistency("radical polynomial must be separable")
    return out


def monic_ell(f: QuadFunc) -> list[int]:
    """For f over GF(p), ell(x) = sum c_j x^j made monic, as ascending
    residues: the minimal polynomial mu of the action at n = 1."""
    return pp.gcd([c.coeffs[0] for c in radical_poly(f).coeffs], [], f.p)


def nullity_at(f: QuadFunc, m: int) -> int:
    """l_m(f) = dim of the radical of Tr_m(f) over GF(p); requires n | m."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    return linearized_gcd_deg(f.ctx, list(radical_poly(f).coeffs), m)


def splitting_exponent(f: QuadFunc) -> int:
    """Least multiple s of n with l_s = 2*alpha; GF(p^s) is the splitting
    field of the radical polynomial."""
    return nullity_profile(f).s


def _step_matrix(f: QuadFunc) -> np.ndarray:
    """S for n > 1, left multiplication by T on R/RL in the coordinates of
    M (block j the T^j coefficient): T c T^i = c^p T^(i+1) puts F, the
    Frobenius matrix, in block (i + 1, i), and T^(2*alpha) = -sum_j (L_j /
    lead L) T^j mod L puts mult_mat(-L_j / lead L) F in block (j, 2*alpha
    - 1)."""
    ctx, p, n, L = f.ctx, f.p, f.n, radical_poly(f).coeffs
    dim, F = len(L) - 1, ctx.frob_mat_power(1)
    S = np.zeros((dim, n, dim, n), dtype=pp.exact_dtype(p, dim * n))
    S[range(1, dim), :, range(dim - 1)] = F  # every block (i + 1, i)
    for j, c in enumerate(L[:-1]):
        S[j, :, dim - 1] = ctx.mult_mat(-c / L[-1]) @ F % p
    return S.reshape(dim * n, dim * n)


class _Action:
    """The action A on the root space, of dimension ``dim`` = 2*alpha: its
    minimal polynomial ``mu`` (ascending, monic), whether it is ``cyclic``
    (deg mu = dim) and ``M`` = S^n, no power of it kept (None at n = 1,
    where mu is ``monic_ell``).  mu comes from M's 2*alpha + 1 Krylov
    columns; InternalInconsistency unless every n x n block of M commutes
    with G = mult_mat(x) and mu(M) e_0 = 0, which give mu(M) = 0 (above)."""

    def __init__(self, f: QuadFunc):
        p, n = f.p, f.n
        self.p, self.n, self.dim, self.M = p, n, 2 * f.top_alpha, None
        if n == 1:
            self.mu = monic_ell(f)
        else:
            M = pp.matpow(_step_matrix(f), n, p)
            G, blocks = f.ctx.mult_mat(f.ctx.gen()), M.reshape(self.dim, n, self.dim, n).transpose(0, 2, 1, 3)
            if ((blocks @ G - G @ blocks) % p).any():
                raise InternalInconsistency("a block of M does not commute with mult_mat(x)")
            K = _linalg.krylov(M, self.dim, p)
            self.mu, self.M = _linalg.krylov_mu(K, p), M
            if (K[:, : len(self.mu)] @ np.array(self.mu, dtype=M.dtype) % p).any():
                raise InternalInconsistency(f"mu = {self.mu} does not annihilate the action")
        self.cyclic = len(self.mu) - 1 == self.dim

    def kernels(self, Q: list[int], js: list[int]) -> list[int]:
        """dim ker Q(A)^j for each j of js, ascending from 1: j deg Q for a
        cyclic A, else dim ker B^j / n, B = Q(M) by Horner and B^j from
        the last B^i, as (B^i)^(j/i) or B^i B^(j - i)."""
        if self.cyclic:
            return [(len(Q) - 1) * j for j in js]
        p, I = self.p, np.eye(len(self.M), dtype=self.M.dtype)
        B = Q[-1] * I
        for c in Q[-2::-1]:
            B = (B @ self.M % p + c * I) % p
        P, i, out = B, 1, []
        for j in js:
            P = pp.matpow(P, j // i, p) if j % i == 0 else P @ pp.matpow(B, j - i, p) % p
            k, i = _linalg.kernel_dim(P, p), j
            if k % self.n:
                raise InternalInconsistency(f"kernel of dimension {k} is not a GF(p^{self.n})-space")
            out.append(k // self.n)
        return out


class NullityProfile:
    """l_m for every m from mu = prod Q^e, each Q one irreducible g or a
    reciprocal pair g g* (see above): the rows hold (Q, count, e, ord g,
    kernels), count the irreducibles in Q and kernels[v] = dim ker
    g(A)^min(p^v, e) until p^v >= e; ``factors`` lists (g, e, ord g,
    kernels) for each g, and ``order`` is ord(A) = s/n, factored.  Given
    rows replace ``factor_reciprocal``'s, under the same product check; l_n
    and l_s are checked against the ladder and 2*alpha however it is built."""

    def __init__(self, f: QuadFunc, rows=None):
        self.func, p, act = f, f.p, _Action(f)
        rows = pp.factor_reciprocal(tuple(act.mu), p) if rows is None else rows
        if functools.reduce(lambda a, g: pp.mul(a, g, p), [Q for Q, _, e in rows for _ in range(e)], [1]) != act.mu:
            raise InternalInconsistency(f"the factors {rows} do not multiply to mu = {act.mu}")
        self._rows, order = [], {}
        for Q, k, e in rows:
            t, count = next(t for t in range(e) if p**t >= e), (len(Q) - 1) // k
            dims = act.kernels(Q, [min(p**v, e) for v in range(t + 1)])
            if any(d % count for d in dims):
                raise InternalInconsistency(f"ker Q(A)^j for the pair Q = {Q} has odd dimension: {dims}")
            kernels = tuple(d // count for d in dims)
            fac = pp.order(Q, p, k if count > 1 else None)  # Q irreducible: the default
            for q, v in fac + ((p, t),):
                order[q] = max(order.get(q, 0), v)
            self._rows.append((Q, count, e, prod(q**v for q, v in fac), kernels))
        self.order = {q: v for q, v in sorted(order.items()) if v}
        self.s = f.n * prod(q**v for q, v in self.order.items())
        l_n, ladder = self.nullity(f.n), nullity_at(f, f.n)
        if l_n != ladder:
            raise InternalInconsistency(f"closed form gives l_{f.n} = {l_n}, the ladder {ladder}")
        l_s = self.nullity(self.s)
        if l_s != 2 * f.top_alpha:
            raise InternalInconsistency(f"profile ends at l_{self.s} = {l_s}, not 2*alpha")

    @functools.cached_property
    def factors(self) -> list[tuple[tuple[int, ...], int, int, tuple[int, ...]]]:
        """(g, e, ord g, kernels) for the irreducible g | mu, sorted by
        degree, then by coefficients from the top; each reciprocal pair is
        split here (``_primepoly.factor``), only when read."""
        p = self.func.p
        out = [(g, e, o, ker) for Q, count, e, o, ker in self._rows
               for g in ([Q] if count == 1 else [g for g, _ in pp.factor(Q, p)])]
        return sorted(out, key=lambda row: (len(row[0]), row[0][::-1]))

    def nullity(self, m: int) -> int:
        """With k = gcd(m/n, s/n) = k' p^v, p not dividing k', the sum of
        kernels[v] over the irreducible factors whose order divides k'."""
        n, p = self.func.n, self.func.p
        if m < 1 or m % n:
            raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={n}")
        k = gcd(m // n, self.s // n)
        v = valuation(k, p)
        return self._sum(k // p**v, v)

    def _sum(self, k: int, v: int) -> int:
        """l_(k p^v n) for k | s/n prime to p, p^v | s/n."""
        return sum(count * ker[min(v, len(ker) - 1)] for _, count, _, o, ker in self._rows if k % o == 0)

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """(m, l_m) for each m = n d, d | s/n: one walk over the divisors
        d = k p^v, k prime to p, each row summed by ``_sum``."""
        n, p, divisors = self.func.n, self.func.p, [(1, 0)]
        for q, e in self.order.items():
            divisors = [(k, i) if q == p else (k * q**i, v) for k, v in divisors for i in range(e + 1)]
        return tuple(sorted((n * k * p**v, self._sum(k, v)) for k, v in divisors))

    @property
    def entry_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def pair_count(self) -> int:
        """len(entries), the number of divisors of ord(A), read off ``order``."""
        return prod(v + 1 for v in self.order.values())

    def to_json_dict(self) -> dict:
        """The profile as JSON with the rows (deg g, ord g, e), and entries
        None, never listed, when pair_count pairs of len(" (s,2*alpha)")
        would pass sys.get_int_max_str_digits() (0 lifts the limit)."""
        f = self.func
        coeffs = [c.coeffs[0] if f.n == 1 else list(c.coeffs) for c in f.dense_coeffs()]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        listed = not limit or self.pair_count * len(f" ({self.s},{2 * f.top_alpha})") <= limit
        factors = [[len(g) - 1, o, e] for g, e, o, _ in self.factors]
        entries = [list(e) for e in self.entries] if listed else None
        return {"p": f.p, "n": f.n, "coeffs": coeffs, "s": self.s, "factors": factors, "entries": entries}


@functools.lru_cache(maxsize=512)
def nullity_profile(f: QuadFunc) -> NullityProfile:
    """The checked profile of f, memoized."""
    return NullityProfile(f)


def matrix_kernel_nullity(f: QuadFunc, m: int) -> int:
    """Independent nullity backend: kernel dimension of the radical
    polynomial as a GF(p)-linear map on GF(p^m).  Cross-check only; the
    closed-form profile is authoritative."""
    if m < 1 or m % f.n:
        raise NotMultipleOfBase(f"m={m} is not a positive multiple of n={f.n}")
    ctx_big = build_field_ctx(f.p, m)
    M = radical_poly(f).linear_map_matrix(ctx_big)
    return _linalg.kernel_dim(M, f.p)
