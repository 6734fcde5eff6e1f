"""Full evaluation pipeline: plan a route, execute it, optionally verify.

The planner is deterministic: monomials use the closed form; functions
whose exponents share a 2-adic order below that of the target degree use
the balanced explicit formula; everything else starts from a direct
diagonalization at a small base and composes lift steps (p-power, then one
two-power stage, then odd primes in increasing order).  Odd primes are
ordered purely so provenance is reproducible; results are order
independent.  With p^c the p-part of m, the base is n p^c*, c* the least
c' <= c from which every p-power step up to n p^c keeps the type by the
profile's nullities (``lifts.p_step_keeps_type``), for f and, when a
two-power stage follows, for f~.

One loop runs the plan's steps; each step yields an ExpSumValue that
records its own provenance entry.  The direct step diagonalizes at its
base n p^c on ``fieldcore.direct_field(f.ctx, n p^c)``, the one field a
route builds: f's own field at c = 0, so a user-supplied modulus builds no
default GF(p^n), and above it an Artin-Schreier tower over f's field, so
no modulus search and no root split runs.  The type and nullity depend on
no modulus or embedding root (see :mod:`quadsums.fieldcore`).  The
two-power step diagonalizes f's twist f~ on that same field and carries
it to its N through the plan's p-power steps, which keep its type too, by
the planner's choice of base.
Every nullity comes from the one closed-form profile of f, which the
planner reads too.  The diagonalizations at the direct base are checked
against it: l_base(f) = profile.nullity(base), and l_N(f~) = l_2N(f) -
l_N(f) for the twist at N = base (proved in :func:`quadsums.lifts.twist`),
the nullity function its p-power steps read; the value the route reaches
must have (N, l) = (N, profile.nullity(N)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count

from ._numtheory import factor as _factor
from .cyclotomic import CyclotomicInt, ExpSumValue
from .errors import InternalInconsistency, InvalidInput, Unsupported
from .fieldcore import direct_field
from .lifts import (
    lift_odd_prime,
    lift_p,
    lift_two,
    monomial_eval,
    p_step_keeps_type,
    shared_two_order,
    twist,
    type_balanced,
    valuation,
)
from .nullity import NullityProfile, QuadFunc, nullity_profile
from .quadform import DEFAULT_CAP, brute_force_sum, enumeration_size, type_direct

DIRECT_LIMIT = 256
CROSS_CHECK_LIMIT = 64


@dataclass(frozen=True)
class EvalPlan:
    """Ordered strategy: base degree plus lift steps reaching N = m*n."""

    func: QuadFunc
    m: int
    N: int
    steps: tuple[tuple, ...]


def plan(f: QuadFunc, m: int, profile: NullityProfile | None = None) -> EvalPlan:
    """Deterministic evaluation strategy for S(f, m*n).  A composition
    route reads f's profile, built here only when none is given."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    N = m * f.n
    if f.is_monomial:
        return EvalPlan(f, m, N, (("monomial",),))
    nu = shared_two_order(f.alphas)
    if nu is not None and valuation(N, 2) > nu:
        return EvalPlan(f, m, N, (("balanced",),))
    return _composition_plan(f, m, nullity_profile(f) if profile is None else profile)


def _twist_nullity(profile: NullityProfile):
    """N -> l_N(f~) = l_2N(f) - l_N(f) (proved in :func:`quadsums.lifts.twist`)."""
    return lambda N: profile.nullity(2 * N) - profile.nullity(N)


def _composition_plan(f: QuadFunc, m: int, profile: NullityProfile) -> EvalPlan:
    p = f.p
    fac = _factor(m)
    a = fac.pop(2, 0)
    c = fac.pop(p, 0)
    nullities = (profile.nullity, _twist_nullity(profile)) if a else (profile.nullity,)
    # l_(n p^j) and l_(2 n p^j) stop changing once p^j >= 2 alpha, which
    # bounds the power e of every factor of mu, so only the steps below can fail
    top = min(c, next(j for j in count() if p**j >= 2 * f.top_alpha))
    c_star = max((j + 1 for j in range(top) if not all(
        p_step_keeps_type(p, l(f.n * p**j), l(f.n * p ** (j + 1))) for l in nullities)), default=0)
    base = f.n * p**c_star
    if base > DIRECT_LIMIT:
        raise Unsupported(
            "p_power_base_too_large",
            f"the p-power step from degree {base // p} to {base} can change the type, and direct work "
            f"at degree {base} exceeds {DIRECT_LIMIT}",
        )
    steps: list[tuple] = [("direct", base)]
    if c > c_star:
        steps.append(("p_power_lift", c - c_star))
    if a:
        steps.append(("two_power_lift", a))
    for q in sorted(fac):
        steps.append(("odd_prime_lift", q, fac[q]))
    return EvalPlan(f, m, f.n * m, tuple(steps))


def _run(f: QuadFunc, pln: EvalPlan, profile: NullityProfile) -> ExpSumValue:
    """The value the plan's steps reach, each step recording itself in its
    provenance.  The balanced step is cross-checked against the composed
    route while N <= CROSS_CHECK_LIMIT and that route is supported."""
    p = f.p
    v: ExpSumValue | None = None
    for step in pln.steps:
        kind = step[0]
        if kind == "monomial":
            v = monomial_eval(*f.terms[0], pln.N)
        elif kind == "balanced":
            l = profile.nullity(pln.N)
            v = ExpSumValue(p, pln.N, l, type_balanced(f, pln.N, l)).record("balanced_explicit_form")
            try:
                alt = _composition_plan(f, pln.m, profile) if pln.N <= CROSS_CHECK_LIMIT else None
            except Unsupported:
                alt = None
            if alt is not None:
                composed = _run(f, alt, profile)
                if (composed.t, composed.l) != (v.t, v.l):
                    raise InternalInconsistency("balanced and composed routes disagree")
                v = replace(v, provenance=v.provenance + ({"step": "composition_cross_check", "t": composed.t},))
        elif kind == "direct":
            base = step[1]
            ctx = direct_field(f.ctx, base)
            t, l = type_direct(f, base // f.n, ctx=ctx)
            l_profile = profile.nullity(base)
            if l != l_profile:
                raise InternalInconsistency(f"diagonalization nullity {l} != profile nullity {l_profile} at N={base}")
            v = ExpSumValue(p, base, l, t).record("direct_diagonalization")
        elif kind == "p_power_lift":
            v = lift_p(v, step[1], profile.nullity)
        elif kind == "two_power_lift":
            tt, lt = type_direct(twist(f), base // f.n, ctx=ctx)
            twisted = _twist_nullity(profile)
            if lt != twisted(base):
                raise InternalInconsistency(
                    f"twist diagonalization nullity {lt} != l_2N - l_N = {twisted(base)} at N={base}"
                )
            vt = lift_p(ExpSumValue(p, base, lt, tt), valuation(v.N // base, p), twisted)
            v = lift_two(v, vt, step[1], profile.nullity(2 ** step[1] * v.N))
        else:
            q, e = step[1], step[2]
            v = lift_odd_prime(v, q, e, profile.nullity(q**e * v.N))
    return v


def evaluate(f: QuadFunc, m: int) -> ExpSumValue:
    """Exact S(f, m*n) as t * g_p^(N-l) * p^l with full provenance, from
    the one profile of f, which the plan reads too."""
    profile = nullity_profile(f)
    pln = plan(f, m, profile)
    v = _run(f, pln, profile)
    l = profile.nullity(pln.N)
    if (v.N, v.l) != (pln.N, l):
        raise InternalInconsistency(f"route reached (N, l) = ({v.N}, {v.l}), profile gives ({pln.N}, {l})")
    return v


@dataclass(frozen=True)
class VerifyReport:
    equal: bool
    value: ExpSumValue
    closed_form: CyclotomicInt
    brute: CyclotomicInt

    def __str__(self):
        if self.equal:
            return f"exact-equal: {self.value.exact_str()} = [{', '.join(map(str, self.closed_form.coords))}]"
        return (
            "MISMATCH\n"
            f"  closed form {self.value.exact_str()}: {list(self.closed_form.coords)}\n"
            f"  brute force: {list(self.brute.coords)}"
        )


def verify(f: QuadFunc, m: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Compare the closed form with the enumeration oracle, exactly.  An
    input past the enumeration's budget raises TooLarge before evaluation."""
    enumeration_size(f.p, m * f.n, cap)
    value = evaluate(f, m)
    closed = value.to_cyclotomic()
    brute = brute_force_sum(f, m, cap)
    return VerifyReport(equal=closed == brute, value=value, closed_form=closed, brute=brute)
