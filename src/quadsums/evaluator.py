"""Full evaluation pipeline: plan a route, execute it, optionally verify.

The planner is deterministic: monomials use the closed form; functions
whose exponents share a 2-adic order below that of the target degree use
the balanced explicit formula; everything else starts from a direct
diagonalization at a small base and composes lift steps (p-power, then one
two-power stage, then odd primes in increasing order).  Odd primes are
ordered purely so provenance is reproducible; results are order
independent.

One loop runs the plan's steps; each step yields an ExpSumValue that
records its own provenance entry.  The direct step diagonalizes at its
base n p^c on ``fieldcore.direct_field(f.ctx, n p^c)``, the one field a
route builds: f's own field at c = 0, so a user-supplied modulus builds no
default GF(p^n), and above it an Artin-Schreier tower over f's field, so
no modulus search and no root split runs.  The type and nullity depend on
no modulus or embedding root (see :mod:`quadsums.fieldcore`).  The
two-power step diagonalizes f's twist f~ on that same field and carries
it to its N through the plan's p-power steps: f~ has f's exponents, so
``lift_p`` applies to it within the same bound.
Every nullity comes from the one closed-form profile of f.  The
diagonalization at the direct base and the twist's lifted nullity are
checked against it: l_base(f) = profile.nullity(base), and
l_N(f~) = l_2N(f) - l_N(f) for the twist at N (proved in
:func:`quadsums.lifts.twist`); the value the route reaches must have
(N, l) = (N, profile.nullity(N)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

from ._numtheory import factor as _factor
from .cyclotomic import CyclotomicInt, ExpSumValue
from .errors import InternalInconsistency, InvalidInput, Unsupported
from .fieldcore import direct_field
from .lifts import (
    lift_odd_prime,
    lift_p,
    lift_two,
    monomial_eval,
    p_power_bound,
    twist,
    type_balanced,
    valuation,
)
from .nullity import QuadFunc, nullity_profile
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


def plan(f: QuadFunc, m: int) -> EvalPlan:
    """Deterministic evaluation strategy for S(f, m*n)."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    N = m * f.n
    if f.is_monomial:
        return EvalPlan(f, m, N, (("monomial",),))
    vals = {valuation(a, 2) for a in f.alphas}
    if len(vals) == 1 and vals != {inf} and valuation(N, 2) > next(iter(vals)):
        return EvalPlan(f, m, N, (("balanced",),))
    return _composition_plan(f, m)


def _composition_plan(f: QuadFunc, m: int) -> EvalPlan:
    p = f.p
    fac = _factor(m)
    a = fac.pop(2, 0)
    c = fac.pop(p, 0)
    steps: list[tuple] = []
    base = f.n
    if c and p_power_bound(f, f.n) >= c:
        steps.append(("direct", base))
        steps.append(("p_power_lift", c))
    else:
        base = f.n * p**c
        if base > DIRECT_LIMIT:
            raise Unsupported(
                "p_power_base_too_large",
                f"no p-power lift applies and direct work at degree {base} exceeds {DIRECT_LIMIT}",
            )
        steps.append(("direct", base))
    if a:
        steps.append(("two_power_lift", a))
    for q in sorted(fac):
        steps.append(("odd_prime_lift", q, fac[q]))
    return EvalPlan(f, m, f.n * m, tuple(steps))


def _run(f: QuadFunc, pln: EvalPlan, profile) -> ExpSumValue:
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
                alt = _composition_plan(f, pln.m) if pln.N <= CROSS_CHECK_LIMIT else None
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
            v = lift_p(v, f, step[1])
        elif kind == "two_power_lift":
            ft = twist(f)
            tt, lt = type_direct(ft, base // f.n, ctx=ctx)
            vt = lift_p(ExpSumValue(p, base, lt, tt), ft, valuation(v.N // base, p))
            lt_profile = profile.nullity(2 * v.N) - profile.nullity(v.N)
            if vt.l != lt_profile:
                raise InternalInconsistency(
                    f"twist diagonalization nullity {vt.l} != l_2N - l_N = {lt_profile} at N={v.N}"
                )
            v = lift_two(v, vt, step[1], profile.nullity(2 ** step[1] * v.N))
        else:
            q, e = step[1], step[2]
            v = lift_odd_prime(v, q, e, profile.nullity(q**e * v.N))
    return v


def evaluate(f: QuadFunc, m: int) -> ExpSumValue:
    """Exact S(f, m*n) as t * g_p^(N-l) * p^l with full provenance."""
    pln = plan(f, m)
    profile = nullity_profile(f)
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
