"""Relative and explicit type formulas.

Given the value at a base degree and nullities from the profile, these
operations transport it up the extension tower: odd-prime-power steps,
two-power steps (via the nonsquare twist of f), p-power steps (at most
``p_power_bound(f, N)`` = min nu_p(alpha_i) - nu_p(N) of them from degree
N; the planner and ``lift_p`` both read that one bound), the balanced
explicit form (all alpha_i of equal 2-adic order, exceeded by that of N),
the monomial closed form, and the linear-shift reduction.  Each lift maps
an ExpSumValue to an ExpSumValue and appends its own provenance entry, as
``monomial_eval`` records its case.

Nullities are inputs here, never recomputed: violated congruences raise
instead of being repaired, since they can only mean an upstream bug.
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


def gcd_plus_plus(p: int, exponents) -> int:
    """gcd(p^a1 + 1, ..., p^ak + 1), by the 2-adic case split: it exceeds 2
    exactly when all nu_2(a_i) agree and are finite, and then equals
    p^gcd(a_i) + 1; otherwise it is 2."""
    exps = list(exponents)
    if not exps or any(a < 0 for a in exps):
        raise InvalidInput("need nonnegative exponents")
    vals = {valuation(a, 2) for a in exps}
    if len(vals) == 1 and vals != {inf}:
        result = p ** gcd(*exps) + 1
    else:
        result = 2
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


def p_power_bound(f: QuadFunc, N: int) -> int | float:
    """The most p-power steps ``lift_p`` takes from degree N:
    min nu_p(alpha_i) - nu_p(N), where alpha_i = 0 contributes nu_p = inf.
    The evaluator's planner chooses the p-power lift by the same bound."""
    return min(valuation(a, f.p) for a in f.alphas) - valuation(N, f.p)


def lift_p(v: ExpSumValue, f: QuadFunc, steps: int) -> ExpSumValue:
    """Value at p^steps * N: the nullity multiplies by p^steps and the type
    is unchanged, valid while steps <= p_power_bound(f, N); past it
    ConditionViolated."""
    if steps < 0:
        raise InvalidInput("steps must be >= 0")
    if steps == 0:
        return v
    p = v.p
    bound = p_power_bound(f, v.N)
    if steps > bound:
        raise ConditionViolated(
            f"p-power lift needs steps <= {bound} at N={v.N} for exponents {f.alphas}"
        )
    return ExpSumValue(p, p**steps * v.N, p**steps * v.l, v.t, v.provenance).record("p_power_lift", count=steps)


def lift_p_value(value: ExpSumValue) -> CyclotomicInt:
    """Exact value of the sum at p*N implied by the p-power lift:
    p^((p-3)/2 * (N+l)) * |S|^2 * conj(S), in Z[zeta_p]."""
    S = value.to_cyclotomic()
    scale = value.p ** ((value.p - 3) // 2 * (value.N + value.l))
    return S * S.conj() * S.conj() * scale


def type_balanced(f: QuadFunc, N: int, l_N: int) -> int:
    """Explicit type at degree N when all nu_2(alpha_i) are equal (= nu,
    finite) and nu_2(N) > nu."""
    alphas = f.alphas
    vals = {valuation(a, 2) for a in alphas}
    if len(vals) != 1 or vals == {inf}:
        raise NotApplicable("exponents do not share a finite 2-adic order")
    nu = vals.pop()
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
    coset)."""
    if N % f.n:
        raise InvalidInput("N must be a multiple of the base degree")
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
