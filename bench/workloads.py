"""Seeded inputs, the timed operation and the exact answer gate of each
workload.

Inputs are plain tuples of integers: the library sees them only inside a
timed operation, where they become a ``QuadFunc`` exactly as a caller's
coefficients would.  Every workload draws its inputs from
``random.Random(f"{workload}:{seed}:{pass_index}")``, so the same seed and
pass give the same inputs.  The number of inputs of each kind, and the set
of field degrees the operations build, are fixed per pass; the seed chooses
coefficients, exponents, odd cofactors and order.  No function is repeated
within a pass, because ``nullity_profile`` is an ``lru_cache`` and a repeat
would time a cache hit instead of the computation.

Each workload is a closed loop of one caller: the next operation starts
when the previous one returns.
"""

from __future__ import annotations

import random

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
M_LIMIT = 100_000  # largest extension multiplier in the tower workload
BRUTE_CAP = 200_000  # tower answers are enumerated when p^N is at most this
# Tower nullities are re-derived by matrix kernel when N <= 64 and p^N is at
# most KERNEL_CHECK_ORDER: building a larger field for the check alone takes
# seconds (GF(5^50): 13 s), more than the timed pass.
KERNEL_CHECK_LIMIT = 64
KERNEL_CHECK_ORDER = 10**20
PROFILE_CHECK_LIMIT = 8  # profile rows are re-derived by matrix kernel for m <= this
FALLBACK_MULTIPLES = 8  # l_m for m = n..8n when the profile search gives up

# (p, n) -> alphas that the tower's light ops rotate through.  Over GF(5^2),
# GF(7^2), GF(5^3) and GF(7^3) an alpha = 3 profile alone takes 0.3-1.3 s,
# which would let a single input dominate a pass.  GF(3) has only four
# functions with alpha = 1 and a_0 != 0, too few for a pass.
TOWER_ALPHAS = {
    (3, 1): (3,), (5, 1): (2, 3), (7, 1): (1, 2, 3),
    (3, 2): (1, 2, 3), (5, 2): (1, 2), (7, 2): (1, 2),
    (3, 3): (1, 2, 3), (5, 3): (1, 2), (7, 3): (1, 2),
}

# Direct bases n * p^c that the tower builds cold in every pass, as
# (p, n, base degree).  Their default-modulus searches cost 0.01-0.7 s each
# and none dominates: GF(3^27) and GF(5^25) are the costliest.  GF(7^49)
# (7 s) and GF(3^81) (27 s) would dominate and are left out.  Over GF(7^3)
# the first op also finds the embedding of GF(7^3) into GF(7^21) (~1 s).
TOWER_BASES = (
    (3, 1, 27), (3, 3, 9), (5, 1, 25), (7, 3, 21), (5, 3, 15),
    (7, 2, 14), (3, 2, 18), (5, 2, 10), (7, 1, 7), (3, 1, 9),
)
TOWER_BASE_REPEATS = 2  # ops per base: one cold construction, then one warm
TOWER_LIGHT = 150
TOWER_BALANCED = 10
TOWER_MONOMIAL = 10
TOWER_P_POWER = 5

PROFILE_MIX = (  # (p, n, alpha, count)
    (3, 1, 6, 120),
    (5, 1, 4, 120),
    (3, 2, 1, 10), (3, 2, 2, 10), (3, 2, 3, 10),
    (5, 2, 1, 5), (5, 2, 2, 5), (5, 2, 3, 5),
)
PROFILE_FIXED = (
    (3, 1, (1, 0, 1, 2, 0, 1, 0, 2, 1)),  # GF(3), alpha = 8
    (1000003, 1, (1, 3)),  # x^2 + 3x^(p+1)
)
PROFILE_TABLES = (("table1", 3, 4), ("table2", 5, 3))

# (p, n, m, count): verify over GF(p^(m n)), from 3^8 to 3^12, 5^5 to 5^8
# and 7^4 to 7^6.  Median costs on a 2.0 GHz Xeon vCPU form four groups:
# 30 ops under 30 ms (7^4, 5^5, 7^5), 44 ops of 45-90 ms (5^6, 7^6, 3^8,
# GF(9)^4, 5^7), 21 ops of 130-145 ms (3^9, 3^10, 5^8) and 5 ops of
# 290-490 ms (3^11, 3^12).  The median falls near the middle of the second
# group and the 90th percentile near the middle of the third, rather than
# on the edge between two groups.
ORACLE_MIX = (
    (5, 1, 5, 10), (7, 1, 4, 10), (5, 1, 6, 10), (7, 1, 5, 10),
    (3, 1, 8, 12), (5, 1, 7, 8), (7, 1, 6, 8),
    (3, 1, 9, 8), (3, 1, 10, 11), (3, 2, 4, 6), (5, 1, 8, 2), (3, 1, 11, 3), (3, 1, 12, 2),
)


# -- input generation -------------------------------------------------------------


def _coeff(rng: random.Random, p: int, n: int, nonzero: bool = False):
    while True:
        if n == 1:
            c = rng.randrange(p)
            if c or not nonzero:
                return c
        else:
            c = tuple(rng.randrange(p) for _ in range(n))
            if any(c) or not nonzero:
                return c


def _zero(n: int):
    """Zero coefficient in the form _coeff draws it, so that equal
    functions have equal coefficient tuples."""
    return 0 if n == 1 else (0,) * n


def _dense(rng: random.Random, p: int, n: int, top: int) -> tuple:
    """Coefficients a_0..a_top with a_0 and a_top nonzero.  A nonzero a_0
    gives exponents of mixed 2-adic order, so the balanced formula never
    applies and the tower takes its composition route."""
    middle = [_coeff(rng, p, n) for _ in range(top - 1)]
    return (_coeff(rng, p, n, True), *middle, _coeff(rng, p, n, True))


def _cofactor(rng: random.Random, p: int, limit: int) -> int:
    """Product of one to three odd prime powers, prime to p, at most limit."""
    m = 1
    for _ in range(rng.randint(1, 3)):
        q = rng.choice([q for q in ODD_PRIMES if q != p])
        e = rng.randint(1, 2)
        if m * q**e <= limit:
            m *= q**e
    return m


def _fresh(rng, seen: set, make):
    """Draw make(rng) until its function (all but the multiplier) is new."""
    for _ in range(1000):
        item = make(rng)
        key = item[:4]
        if key not in seen:
            seen.add(key)
            return item
    raise RuntimeError(f"no new function after 1000 draws, last {item}")


def tower_inputs(rng: random.Random) -> list[tuple]:
    """("eval", p, n, coeffs, m) tuples in a seeded order."""
    seen: set = set()
    ops = []
    for p, n, base in TOWER_BASES:
        for _ in range(TOWER_BASE_REPEATS):
            # Two-power lift and an odd cofactor on top of the direct base.
            # alpha = 2 throughout: the ladder over GF(p^base) for the
            # twist grows with alpha and would spread these ops' cost.
            def make(r, p=p, n=n, base=base):
                top = 2
                m = base // n * 2 * _cofactor(r, p, 40)
                return ("eval", p, n, _dense(r, p, n, top), m)

            ops.append(_fresh(rng, seen, make))
    fields = sorted(TOWER_ALPHAS)
    for i in range(TOWER_LIGHT):
        # Fields and alphas in fixed rotation: the profile's cost grows
        # steeply with alpha, so its counts must not depend on the seed.
        p, n = fields[i % len(fields)]
        alphas = TOWER_ALPHAS[p, n]
        top = alphas[(i // len(fields)) % len(alphas)]

        def make(r, p=p, n=n, top=top):
            m = 2 ** r.randint(0, 3) * _cofactor(r, p, M_LIMIT // 8)
            return ("eval", p, n, _dense(r, p, n, top), m)

        ops.append(_fresh(rng, seen, make))
    odd_fields = [pn for pn in fields if 3 in TOWER_ALPHAS[pn]]
    for i in range(TOWER_BALANCED):
        p, n = odd_fields[i % len(odd_fields)]

        # alphas {1, 3} share 2-adic order 0 and N is even: balanced route.
        def make(r, p=p, n=n):
            m = 2 ** r.randint(1, 3) * _cofactor(r, p, 13)
            z = _zero(n)
            coeffs = (z, _coeff(r, p, n, True), z, _coeff(r, p, n, True))
            return ("eval", p, n, coeffs, m)

        ops.append(_fresh(rng, seen, make))
    for i in range(TOWER_MONOMIAL):
        p, n = fields[(3 * i) % len(fields)]
        m = 1 + i % 4  # GF(p^(mn)) with mn <= 12 is built for the closed form

        def make(r, p=p, n=n, m=m):
            alpha = r.randint(0, 3)
            coeffs = (_zero(n),) * alpha + (_coeff(r, p, n, True),)
            return ("eval", p, n, coeffs, m)

        ops.append(_fresh(rng, seen, make))
    for _ in range(TOWER_P_POWER):
        # alphas {0, 3} over GF(3^2) and 3 | m: the p-power lift applies.
        # (GF(3) has only four such functions, which light ops may draw.)
        def make(r):
            coeffs = (_coeff(r, 3, 2, True), (0, 0), (0, 0), _coeff(r, 3, 2, True))
            return ("eval", 3, 2, coeffs, 3 * 2 ** r.randint(0, 2) * _cofactor(r, 3, 50))

        ops.append(_fresh(rng, seen, make))
    rng.shuffle(ops)
    return ops


def profiles_inputs(rng: random.Random) -> list[tuple]:
    """("profile", p, n, coeffs) and ("table", name, p, alpha_max) tuples."""
    seen: set = set()
    ops = []
    for p, n, top, count in PROFILE_MIX:
        for _ in range(count):
            def make(r, p=p, n=n, top=top):
                coeffs = tuple(_coeff(r, p, n) for _ in range(top)) + (_coeff(r, p, n, True),)
                return ("profile", p, n, coeffs)

            ops.append(_fresh(rng, seen, make))
    ops += [("profile", p, n, coeffs) for p, n, coeffs in PROFILE_FIXED]
    ops += [("table", name, p, alpha_max) for name, p, alpha_max in PROFILE_TABLES]
    rng.shuffle(ops)
    return ops


def oracle_inputs(rng: random.Random) -> list[tuple]:
    """("verify", p, n, coeffs, m) tuples."""
    seen: set = set()
    ops = []
    for p, n, m, count in ORACLE_MIX:
        for _ in range(count):
            # alpha = 3 throughout: the oracle's scalar set-up grows with the
            # number of terms, and a range of alphas would spread op costs
            # within a size group.  GF(3) needs alpha = 3 to have enough
            # distinct functions.
            def make(r, p=p, n=n, m=m):
                coeffs = tuple(_coeff(r, p, n) for _ in range(3)) + (_coeff(r, p, n, True),)
                return ("verify", p, n, coeffs, m)

            ops.append(_fresh(rng, seen, make))
    rng.shuffle(ops)
    return ops


INPUTS = {"tower": tower_inputs, "profiles": profiles_inputs, "oracle": oracle_inputs}


def make_inputs(workload: str, seed: int, pass_index: int) -> list[tuple]:
    return INPUTS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))


# -- timed operations ---------------------------------------------------------------


def run_op(q, op: tuple):
    """Execute one input through the public API of the package ``q`` and
    return a JSON-able answer.  The caller times this call."""
    kind = op[0]
    if kind == "eval":
        _, p, n, coeffs, m = op
        v = q.evaluate(q.QuadFunc.from_dense(p, coeffs, n), m)
        return [v.p, v.N, v.l, v.t, [s["step"] for s in v.provenance]]
    if kind == "profile":
        _, p, n, coeffs = op
        f = q.QuadFunc.from_dense(p, coeffs, n)
        try:
            prof = q.nullity_profile(f)
        except q.errors.SearchBudgetExceeded:
            # What a caller does today when the search gives up: ask for
            # the nullities it needs one degree at a time.
            pairs = [[k * n, q.nullity_at(f, k * n)] for k in range(1, FALLBACK_MULTIPLES + 1)]
            return ["fallback", pairs]
        return ["profile", prof.s, [list(e) for e in prof.entries]]
    if kind == "table":
        _, name, p, alpha_max = op
        rows = q.generate_table(p, alpha_max, jobs=1)
        report = q.diff_reference(rows, q.reference_path(name))
        return ["table", name, report.generated_rows, list(report.diffs)]
    if kind == "verify":
        _, p, n, coeffs, m = op
        r = q.verify(q.QuadFunc.from_dense(p, coeffs, n), m)
        return ["verify", r.equal, r.value.l, r.value.t, list(r.closed_form.coords)]
    raise ValueError(f"unknown op kind {kind!r}")


# -- exact answer gate (untimed) ------------------------------------------------------


def gate(q, op: tuple, answer) -> tuple[int, list[str]]:
    """Re-derive an answer by an independent route.  Returns the number of
    comparisons made and a description of each mismatch."""
    kind = op[0]
    bad: list[str] = []
    checks = 0
    if kind == "eval":
        _, p, n, coeffs, m = op
        f = q.QuadFunc.from_dense(p, coeffs, n)
        _, N, l, t, _ = answer
        if N != m * n:
            bad.append(f"{op}: N={N}")
        if p**N <= BRUTE_CAP:
            checks += 1
            value = q.ExpSumValue(p, N, l, t)
            if value.to_cyclotomic() != q.brute_force_sum(f, m, BRUTE_CAP):
                bad.append(f"{op}: closed form differs from enumeration")
        if N <= KERNEL_CHECK_LIMIT and p**N <= KERNEL_CHECK_ORDER:
            checks += 1
            if q.matrix_kernel_nullity(f, N) != l:
                bad.append(f"{op}: l={l} differs from the matrix kernel")
    elif kind == "profile":
        _, p, n, coeffs = op
        f = q.QuadFunc.from_dense(p, coeffs, n)
        if answer[0] == "profile":
            _, s, entries = answer
            pairs = dict(map(tuple, entries))
            checks += 1
            if pairs.get(s) != 2 * f.top_alpha:
                bad.append(f"{op}: l_s = {pairs.get(s)} at s={s}, want {2 * f.top_alpha}")
        else:
            pairs = dict(map(tuple, answer[1]))
        for mm, l in sorted(pairs.items()):
            if mm <= PROFILE_CHECK_LIMIT * n and p**mm <= 10**12:
                checks += 1
                if q.matrix_kernel_nullity(f, mm) != l:
                    bad.append(f"{op}: l_{mm} = {l} differs from the matrix kernel")
    elif kind == "table":
        checks += 1
        if answer[3] or answer[2] == 0:
            bad.append(f"{op[1]}: {len(answer[3])} diffs over {answer[2]} rows")
    elif kind == "verify":
        checks += 1
        if answer[1] is not True:
            bad.append(f"{op}: verify reported a mismatch")
    return checks, bad
