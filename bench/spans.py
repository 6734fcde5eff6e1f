"""Per-layer spans recorded from outside the package.

``install`` replaces each public function or method named in ``TARGETS``
with a timing wrapper.  Modules import public names by value (``evaluator``
binds ``build_field_ctx``, ``nullity_profile`` and ``type_direct``), so
replacing the attribute on the defining module is not enough: every
``quadsums.*`` module namespace is scanned for the original object and each
binding is replaced, and ``install`` fails if any binding is left.

A span holds its name, start, end and the span open when it started.  Spans
stay in memory, in flat arrays, until ``summary`` reduces them to per-name
totals.  A span's self time is its duration minus the durations of its
direct children; calls within one thread nest, so children never overlap.
Wrappers record nothing while ``Tracer.active`` is false, so set-up and the
answer gate stay out of the numbers.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (defining module, attribute path).  Layers as in bench/README.md.  A span
# is named "<module>.<path>" with the module's leading underscore dropped,
# since metric names start with a letter.
TARGETS = (
    ("fieldcore", "build_field_ctx"),
    ("_primepoly", "is_irreducible"),
    ("fieldcore", "FieldElem.frobenius"),
    ("fieldcore", "FieldElem.trace"),
    ("fieldcore", "embed_element"),
    ("fieldcore", "FrobeniusLadder.step"),
    ("fieldcore", "linearized_gcd_deg"),
    ("nullity", "nullity_profile"),
    ("nullity", "nullity_at"),
    ("quadform", "gram_matrix"),
    ("quadform", "diagonalize"),
    ("quadform", "smallest_nonsquare"),
    ("quadform", "type_direct"),
    ("quadform", "brute_force_sum"),
    ("lifts", "twist"),
    ("lifts", "lift_two"),
    ("lifts", "lift_odd_prime"),
    ("lifts", "lift_p"),
    ("lifts", "type_balanced"),
    ("lifts", "monomial_eval"),
    ("cyclotomic", "ExpSumValue.to_cyclotomic"),
    ("evaluator", "plan"),
    ("evaluator", "evaluate"),
    ("evaluator", "verify"),
    ("tabulate", "generate_table"),
    ("tabulate", "diff_reference"),
)
# Names whose inclusive time is reported as well as self time.
TOTALS = ("fieldcore.build_field_ctx", "primepoly.is_irreducible", "tabulate.generate_table")
ROUTE_STEPS = ("monomial", "balanced", "direct", "p_power_lift", "two_power_lift", "odd_prime_lift")


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack: list[int] = []
        self._open_by_name: list[int] = []
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self._open_by_name.append(0)
        return self.name_id[name]

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper; hook(args, kwargs, result) adds counts on return."""
        nid = self.intern(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.nested.append(1 if self._open_by_name[nid] else 0)
            self.end.append(0)
            self._stack.append(i)
            self._open_by_name[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.count(f"{name}.failed")
                self.count(f"{name}.failed.{type(exc).__name__}")
                raise
            finally:
                self.end[i] = clock()
                self._open_by_name[nid] -= 1
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-name calls, self_s and (for TOTALS) total_s, plus counts."""
        k = len(self.names)
        calls = [0] * k
        self_ns = [0] * k
        total_ns = [0] * k
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_ns = [0] * len(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child_ns[par] += dur[i]
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child_ns[i]
            if not self.nested[i]:
                total_ns[nid] += dur[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            if name in TOTALS:
                out[f"{name}.total_s"] = total_ns[nid] / 1e9
        out.update(self.counts)
        return out


def span_name(mod_name: str, path: str) -> str:
    return f"{mod_name.lstrip('_')}.{path}"


def _resolve(module, path: str):
    owner, attr = module, path
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
    return owner, attr


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every target in the imported ``quadsums`` package; return the
    originals by span name."""
    modules = {n: m for n, m in sys.modules.items() if n == "quadsums" or n.startswith("quadsums.")}
    originals: dict[str, object] = {}
    hooks = _hooks(tracer)
    for mod_name, path in TARGETS:
        module = modules[f"quadsums.{mod_name}"]
        owner, attr = _resolve(module, path)
        name = span_name(mod_name, path)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original, hooks.get(name))
        originals[name] = original
        setattr(owner, attr, wrapper)
        if owner is module:
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
    leftover = [
        f"{mn}.{key}"
        for mn, m in modules.items()
        for key, value in vars(m).items()
        if any(value is o for o in originals.values())
    ]
    if leftover:
        raise RuntimeError(f"unwrapped bindings remain: {leftover}")
    return originals


def _hooks(tracer: Tracer) -> dict:
    def gram_matrix(args, kwargs, result):
        tracer.count("quadform.gram_matrix.entries", int(result.shape[0]) ** 2)

    def brute_force_sum(args, kwargs, result):
        f, m = args[0], args[1]
        tracer.count("quadform.brute_force_sum.elements", f.p ** (m * f.n))

    def plan(args, kwargs, result):
        for step in result.steps:
            tracer.count(f"evaluator.route.{step[0]}.count")

    return {
        "quadform.gram_matrix": gram_matrix,
        "quadform.brute_force_sum": brute_force_sum,
        "evaluator.plan": plan,
    }
