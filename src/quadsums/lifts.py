"""Relative and explicit type formulas.

Given the value at a base degree and nullities from the profile, these
operations transport it up the extension tower: odd-prime-power steps,
two-power steps (via the nonsquare twist of f), p-power steps (a step N
-> pN keeps the type when l_pN = l_N or l_pN = p l_N,
``p_step_keeps_type``, the one rule the planner and ``lift_p`` read),
the balanced explicit form (all alpha_i of equal 2-adic order, exceeded
by that of N), the monomial closed form, and the linear-shift reduction.
Each lift maps an ExpSumValue to an ExpSumValue and appends its own
provenance entry, as ``monomial_eval`` records its case.

Nullities are inputs here, never recomputed: a violated congruence or
hypothesis raises an ``InternalInconsistency`` (``ParityViolation``,
``ConditionViolated``, ``NotApplicable``, ``DivisibilityViolated``)
instead of being repaired, since it can only mean an upstream bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf

from .cyclotomic import CyclotomicInt, ExpSumValue
from .errors import (
    ConditionViolated,
    DivisibilityViolated,
    InternalInconsistency,
    InvalidInput,
    NotApplicable,
    ParityViolation,
    ZeroCoefficient,
)
from ._numtheory import is_prime, multiplicative_order, valuation
from .fieldcore import FieldElem, build_field_ctx, embed_element
from .nullity import QuadFunc, radical_poly
from . import _linalg
from .quadform import elem_quadratic_character, legendre, smallest_nonsquare


def shared_two_order(exponents) -> int | None:
    """The 2-adic order all the exponents share, or None when two differ
    or one is 0 (nu_2(0) = inf): the balanced condition."""
    vals = {valuation(a, 2) for a in exponents}
    return next(iter(vals)) if len(vals) == 1 and vals != {inf} else None


def gcd_plus_plus(p: int, exponents) -> int:
    """gcd(p^a1 + 1, ..., p^ak + 1), by the 2-adic case split: it exceeds 2
    exactly when all nu_2(a_i) agree and are finite, and then equals
    p^gcd(a_i) + 1; otherwise it is 2."""
    exps = list(exponents)
    if not exps or any(a < 0 for a in exps):
        raise InvalidInput("need nonnegative exponents")
    result = 2 if shared_two_order(exps) is None else p ** gcd(*exps) + 1
    if max(exps) <= 64:  # cheap regime: confirm the case split against direct gcd
        direct = 0
        for a in exps:
            direct = gcd(direct, p**a + 1)
        if direct != result:
            raise InternalInconsistency("gcd case split disagrees with direct gcd")
    return result


def gcd_plus_minus(p: int, a: int, b: int) -> int:
    """gcd(p^a + 1, p^b - 1): p^gcd(a,b) + 1 when nu_2(b) > nu_2(a), else 2."""
    if a < 0 or b < 0:
        raise InvalidInput("need nonnegative exponents")
    if valuation(b, 2) > valuation(a, 2):
        result = p ** gcd(a, b) + 1
    else:
        result = 2
    if max(a, b) <= 64:
        if gcd(p**a + 1, p**b - 1) != result:
            raise InternalInconsistency("gcd case split disagrees with direct gcd")
    return result


def lift_odd_prime(v: ExpSumValue, q: int, s: int, l_target: int) -> ExpSumValue:
    """Value at q^s * N from the value at N, q an odd prime != p.

    The nullity increment must be even and divisible by the order of p mod
    q; violations mean the supplied nullities are wrong and raise.
    """
    p = v.p
    if not is_prime(q) or q == 2 or q == p:
        raise InvalidInput(f"q={q} must be an odd prime different from p={p}")
    if s < 0:
        raise InvalidInput("s must be >= 0")
    if s == 0:
        if l_target != v.l:
            raise ParityViolation("s=0 step cannot change the nullity")
        return v
    dl = l_target - v.l
    if dl < 0 or dl % 2:
        raise ParityViolation(f"nullity increment {dl} must be even and nonnegative")
    o = multiplicative_order(p, q)
    if dl % o:
        raise ParityViolation(f"order of p mod {q} is {o}, which must divide {dl}")
    sign = (-1) ** (((p - 1) * dl // 4 + dl // o) % 2)
    t_new = v.t * legendre(q, p) ** ((s * v.l) % 2) * sign
    return ExpSumValue(p, q**s * v.N, l_target, t_new, v.provenance).record("odd_prime_lift", q=q, power=s)


def twist(f: QuadFunc, beta: FieldElem | None = None) -> QuadFunc:
    """Companion function for the two-power lift over beta's field:
    coefficients scaled by beta^((p^alpha_i + 1)/2) for a nonsquare beta,
    by default the smallest-encoding nonsquare of f's own field; a given
    beta is checked to be a nonsquare, and its field must contain f's.  The
    twist has f's exponents, and its type and nullity do not depend on
    beta: beta delta^2 gives f~(delta x).

    Nullity of the twist: for N with beta a nonsquare of GF(p^N),
    l_N(f~) = l_2N(f) - l_N(f).  Proof: take gamma in GF(p^2N) with
    gamma^2 = beta.  Then gamma^(p^alpha + 1) = beta^((p^alpha + 1)/2), so
    f~(x) = f(gamma x).
    As beta is a nonsquare, sigma: z -> z^(p^N) sends gamma to -gamma, and
    GF(p^2N) = GF(p^N) + gamma GF(p^N), the +1 and -1 eigenspaces of sigma.
    The polar form of Tr_2N(f) takes z in GF(p^N) and w = gamma y to
    Tr_2N(u) with u = sum a_i (z^(p^alpha_i) w + z w^(p^alpha_i)); the a_i lie
    in GF(p^N), so sigma(u) = -u and Tr_2N(u) = Tr_N(u + sigma(u)) = 0.  The
    two summands are orthogonal, so sigma splits the radical over GF(p^2N)
    into its parts in GF(p^N) and in gamma GF(p^N).  On GF(p^N), Tr_2N(f)
    is 2 Tr_N(f); on gamma GF(p^N), x -> gamma x carries 2 Tr_N(f~) to it.
    Scaling by 2 keeps the radical, so l_2N(f) = l_N(f) + l_N(f~).  A
    nonsquare of GF(p^n) stays one in GF(p^(n p^c)), its norm down being
    beta^(p^c), so the default twist serves every N = n p^c; the evaluator
    reads it there as it reads f."""
    if beta is None:
        beta = smallest_nonsquare(f.ctx)
    elif beta.ctx.p != f.p or beta.ctx.d % f.n:
        raise InvalidInput("the twist's field must contain the coefficient field")
    elif elem_quadratic_character(beta) != -1:
        raise InvalidInput("beta must be a nonsquare")
    return QuadFunc.from_terms(beta.ctx, [(c * beta ** ((f.p**a + 1) // 2), a) for c, a in f.terms_in(beta.ctx)])


def lift_two(v: ExpSumValue, v_tilde: ExpSumValue, s: int, l_target: int) -> ExpSumValue:
    """Value at 2^s * N from the values of f and its twist at N (s >= 1).

    l_target is the nullity of f at 2^s * N; the parity constraint of the
    lift (l + l~ + l_target even) is verified and must hold.  The result
    extends v's provenance; the twist enters it as twist_t and twist_l.
    """
    if s < 1:
        raise InvalidInput("two-power lift needs s >= 1")
    if v.N != v_tilde.N or v.p != v_tilde.p:
        raise InvalidInput("values must sit at the same base")
    p = v.p
    l, lt = v.l, v_tilde.l
    if (l + lt + l_target) % 2:
        raise InternalInconsistency(
            f"parity violation: l={l}, l~={lt}, l_target={l_target} must have even sum"
        )
    t = v.t * v_tilde.t
    if (l - lt) % 2:
        t *= (-1) ** (((p * p - 1) // 8 * s) % 2)
    lifted = ExpSumValue(p, 2**s * v.N, l_target, t, v.provenance)
    return lifted.record("two_power_lift", height=s, twist_t=v_tilde.t, twist_l=lt)


def p_step_keeps_type(p: int, l_N: int, l_pN: int) -> bool:
    """Whether the step N -> pN is proved to keep the type, read off the
    nullities at both ends: l_pN = l_N or l_pN = p l_N (proof in
    ``lift_p``).  A step with l_N < l_pN < p l_N may change it."""
    return l_pN in (l_N, p * l_N)


def lift_p(v: ExpSumValue, steps: int, nullity) -> ExpSumValue:
    """Value at p^steps * N from the value v at N, for a function whose
    nullity at each degree is nullity(N): f's profile, or N -> l_2N - l_N
    for the twist f~ (see ``twist``).  Each step N -> pN keeps the type and
    takes l = l_pN; it raises ConditionViolated unless l_pN = l_N or
    l_pN = p l_N (``p_step_keeps_type``), with l_N = v.l at the first.

    Proof.  Let Q = Tr_pN(f) on V = GF(p^pN), B its polar form, R its
    radical (dimension l_pN), W = GF(p^N) with Q_N = Tr_N(f) and radical
    R_N, p = 2h + 1, and g^2 = eta(-1) p with eta(-1) = (-1)^h.  For a
    totally isotropic I, S(Q) = p^(dim I) S(Q on I^perp / I): Q(x + i) =
    Q(x) + B(x, i), and the sum of zeta^B(x, i) over i in I is |I| on
    I^perp and 0 off it.

    sigma: z -> z^(p^N) fixes f's coefficients, so it is an isometry of Q
    of order p, and R is sigma-stable.  u = sigma - 1 has u^p = sigma^p - 1
    = 0 and u^(p-1) = 1 + sigma + ... + sigma^(p-1) = Tr_(pN/N), as (x -
    1)^(p-1) = (x^p - 1)/(x - 1) mod p.  By the normal basis theorem V is a
    free GF(p)[u]/(u^p)-module of rank N, so K_i = ker u^i = u^(p-i) V has
    dimension iN, and K_1 = W.  B(ux, y) = B(x, u'y) with u' = sigma^-1 - 1
    = -sigma^-1 u.  For w in W, B(x, w) = B_N(Tr_(pN/N) x, w), since the
    trace passes through a_i (x^(p^alpha_i) w + x w^(p^alpha_i)) when a_i
    and w lie in W.  So W is totally isotropic (Tr_(pN/N) is p = 0 on W),
    and R meets W in R_N, as Tr_(pN/N) maps V onto W.  R is thus a
    GF(p)[u]/(u^p)-module with socle R_N: a sum of l_N cyclic modules
    GF(p)[u]/(u^d), 1 <= d <= p.  Hence l_N <= l_pN <= p l_N; l_pN = l_N
    iff R = R_N, and l_pN = p l_N iff R is free.

    y is orthogonal to K_i = u^(p-i) V iff u'^(p-i) y, so u^(p-i) y, lies
    in R.  So K_h^perp = {x : u^(h+1) x in R} contains K_h, which is
    totally isotropic (p is odd, so Q(x) = B(x, x)/2), and S(Q) = p^(hN)
    S(M), M = K_h^perp / K_h.  On K_(h+1) = u^h V, x = u^h y and x' = u^h
    y' give B(x, x') = B(y, u'^h u^h y') = (-1)^h B(y, sigma^-h Tr y') =
    (-1)^h B_N(u^h x, u^h x'), and u^h maps K_(h+1) onto W with kernel
    K_h: the middle piece K_(h+1) / K_h is W with (-1)^h Q_N, a unit
    multiple of Tr_N(f).  Both cases split M into hyperbolic pieces and
    that middle piece modulo R_N.
    - R = R_N, inside K_h: M is nondegenerate (its radical is (K_h + R) /
      K_h = 0), of dimension (h + 1) N + l_N - hN = N + l_N.  The preimage
      J of R_N in the middle piece has dimension l_N and lies in the
      middle piece's radical, so J is totally isotropic in M, and J^perp,
      of dimension N, is the middle piece.  So S(M) = p^(l_N) S(W/R_N,
      (-1)^h Q_N).
    - R free: u^(h+1) R is the part of R in K_h, so K_h^perp = K_(h+1) +
      R.  M has radical (K_h + R) / K_h, of dimension p l_N - h l_N, and
      modulo it M is K_(h+1) / (K_h + u^h R), which u^h carries onto
      W/R_N, as u^h u^h R = u^(p-1) R = R_N.  So S(M) = p^((h+1) l_N)
      S(W/R_N, (-1)^h Q_N).
    With S(Q_N) = p^(l_N) S(W/R_N, Q_N) = t g^(N - l_N) p^(l_N), and the
    scaling by (-1)^h a factor eta(-1)^(h (N - l_N)), the first case gives
    S(Q) = t eta(-1)^(h l_N) g^(pN - l_N) p^(l_N), the second S(Q) = t
    g^(p (N - l_N)) p^(p l_N).  In the first, l_N is even.  With N = kn,
    l_N = dim ker X and l_pN = dim ker X^p for X = A^k - I on the root
    space U of the radical polynomial (:mod:`quadsums.nullity`), so ker X
    = ker X^j for every j.  A preserves the nondegenerate alternating
    pairing proved there, so X has adjoint -A^-k X, and ker X^j is
    orthogonal to im X^j.  For j = dim U, U = ker X^j + im X^j, so ker X
    is nondegenerate, of even dimension.  So the type is t in both cases.
    Where l_N < l_pN < p l_N the type can change, and the planner
    diagonalizes above such a step."""
    if steps < 0:
        raise InvalidInput("steps must be >= 0")
    if steps == 0:
        return v
    p, N, l = v.p, v.N, v.l
    for _ in range(steps):
        l_pN = nullity(p * N)
        if not p_step_keeps_type(p, l, l_pN):
            raise ConditionViolated(f"p-power step {N} -> {p * N} takes l = {l} to {l_pN}, neither l nor {p}*l")
        N, l = p * N, l_pN
    return ExpSumValue(p, N, l, v.t, v.provenance).record("p_power_lift", count=steps)


def lift_p_value(value: ExpSumValue) -> CyclotomicInt:
    """Exact value of the sum at p*N implied by the p-power lift when
    l_pN = p l_N (l_N = 0 included): p^((p-3)/2 * (N+l)) * |S|^2 *
    conj(S), in Z[zeta_p]."""
    S = value.to_cyclotomic()
    scale = value.p ** ((value.p - 3) // 2 * (value.N + value.l))
    return S * S.conj() * S.conj() * scale


def type_balanced(f: QuadFunc, N: int, l_N: int) -> int:
    """Explicit type at degree N when all nu_2(alpha_i) are equal (= nu,
    finite, ``shared_two_order``) and nu_2(N) > nu."""
    nu = shared_two_order(f.alphas)
    if nu is None:
        raise NotApplicable("exponents do not share a finite 2-adic order")
    if valuation(N, 2) <= nu:
        raise NotApplicable(f"need nu_2(N) > {nu}")
    if l_N % 2 ** (nu + 1):
        raise DivisibilityViolated(f"2^{nu + 1} must divide the nullity {l_N}")
    p = f.p
    expo = ((p - 1) ** 2 // 4 * 2**nu + 1) * ((N - l_N) // 2 ** (nu + 1))
    return (-1) ** (expo % 2)


def monomial_eval(a: FieldElem, alpha: int, N: int) -> ExpSumValue:
    """Closed form for the sum of e(a x^(p^alpha + 1)) over GF(p^N); a must
    be a nonzero element of a subfield GF(p^d), d | N.  GF(p^N) is never
    built: the closed form needs only eta_N(a) and whether z = a^e is +-1,
    e = (p^alpha - 1) (p^N - 1)/(p^g2 - 1) with g2 = gcd(2 alpha, N).

    eta_N(a) = eta_d(a)^(N/d), as (p^N - 1)/(p^d - 1) = sum_(j < N/d) p^(dj)
    is N/d mod 2.  Exponents of a count modulo p^d - 1, where p^i is
    p^(i mod d).  With k = N/g2, (p^N - 1)/(p^g2 - 1) = sum_(j < k) p^(g2 j)
    is k mod 2, and the residues g2 j mod d repeat with period
    r = d/gcd(g2, d), which divides k as lcm(g2, d) divides N.  So
    z = a^((p^(alpha mod d) - 1) (k/r) sum_(j < r) p^(g2 j mod d))."""
    if a.is_zero():
        raise ZeroCoefficient("monomial coefficient must be nonzero")
    if alpha < 0:
        raise InvalidInput("alpha must be >= 0")
    ctx = a.ctx
    if N < 1 or N % ctx.d:
        raise InvalidInput(f"coefficient must live in a subfield of GF(p^{N})")
    p, d = ctx.p, ctx.d
    v_n, v_a = valuation(N, 2), valuation(alpha, 2)

    if v_n <= v_a:
        eta = elem_quadratic_character(a) ** (N // d % 2)
        t = eta * (-1) ** ((N - 1) % 2)
        return ExpSumValue(p, N, 0, t).record("monomial_closed_form", case="i")

    g2 = gcd(2 * alpha, N)
    k, r = N // g2, d // gcd(g2, d)
    z = a ** ((p ** (alpha % d) - 1) * (k // r) * sum(p ** (g2 * j % d) for j in range(r)))
    cond_val = -ctx.one() if k % 2 else ctx.one()
    l = g2 if z == cond_val else 0
    if v_n == v_a + 1:
        case = "ii"
        sigma, l_val = (1, g2) if z == -ctx.one() else (-1, 0)
    else:
        case = "iii"
        sigma, l_val = (-1, g2) if z == ctx.one() else (1, 0)
    if l_val != l:
        raise InternalInconsistency("case split and nullity criterion disagree")
    t = sigma * (-1) ** (((p - 1) ** 2 // 4 * (N - l) // 2) % 2)
    return ExpSumValue(p, N, l, t).record("monomial_closed_form", case=case)


@dataclass(frozen=True)
class ShiftedSum:
    """Value of the affinely shifted sum: 0 when `zero`, else
    zeta^(-phase) times the base full-field sum."""

    zero: bool
    phase: int
    base: ExpSumValue

    def to_cyclotomic(self) -> CyclotomicInt:
        if self.zero:
            return CyclotomicInt.zero(self.base.p)
        return CyclotomicInt.zeta_power(self.base.p, -self.phase) * self.base.to_cyclotomic()


def shift_linear(f: QuadFunc, b: FieldElem, N: int, value: ExpSumValue) -> ShiftedSum:
    """Reduce the sum of e(f(x) + b*x) over GF(p^N) to the unshifted value:
    zero when the radical equation has no solution, else a phase shift by
    Tr(f(x0)) for any solution x0 (the trace is constant on the solution
    coset).  NotMultipleOfBase unless N is a positive multiple of n."""
    f.relative_degree(N)
    ctx_big = build_field_ctx(f.p, N) if b.ctx.d != N else b.ctx
    b = embed_element(b.ctx, ctx_big, b)
    L = radical_poly(f)
    M = L.linear_map_matrix(ctx_big)
    rhs_elem = b.frobenius(f.top_alpha)
    sol = _linalg.solve(M, rhs_elem.coeffs, f.p)
    if sol is None:
        return ShiftedSum(zero=True, phase=0, base=value)
    x0 = ctx_big.elem([int(c) for c in sol])
    fx0 = ctx_big.zero()
    for c, a in f.terms_in(ctx_big):
        fx0 = fx0 + c * x0 ** (f.p**a + 1)
    # Tr(x^u) is row 0 of the trace form, from Newton's identities
    phase = sum(c * int(t) for c, t in zip(fx0.coeffs, ctx_big.trace_form()[0])) % f.p
    return ShiftedSum(zero=False, phase=phase, base=value)
