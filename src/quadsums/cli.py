"""Command-line surface.

Subcommands: eval, profile, table, verify, shift, monomial.  Exit codes,
with the QuadsumsError subclasses that give each:

  0  success
  1  invalid input: InvalidInput and its subclasses NotPrime, NotOdd,
     ModulusReducible, ZeroPolynomial, MixedPrimes, NotSymmetric,
     NotMultipleOfBase, ZeroCoefficient, MalformedReference; also
     DivisionByZero, any other ValueError, and an OSError (a table --diff
     or --out path that cannot be read or written)
  2  unsupported, a limit rather than an input error: Unsupported,
     TooLarge, SearchBudgetExceeded
  3  internal inconsistency, always a bug: InternalInconsistency,
     NoRootFound, ParityViolation, ConditionViolated, NotApplicable,
     DivisibilityViolated; also a verify mismatch, or a table that differs
     from its reference

Coefficients are dense by default (--coeffs a0,a1,...,ak meaning exponents
0..k); --alphas switches to sparse input where the i-th coefficient pairs
with the i-th exponent and zero coefficients are rejected.  Over extension
bases (n > 1) each coefficient is a comma-separated residue vector and
terms are separated by semicolons.  Every subcommand but table takes
--format text or json, and profile also takes csv; table takes csv (its
default) or json.

Exact cyclotomic coordinates are printed only while their decimal digits,
C = p - 1 coordinates of at most K digits each, stay within the
interpreter's int-to-string limit (``sys.get_int_max_str_digits()``; 0
lifts it).  Past it, text output reads ``cyclotomic coords = omitted (~K
digits) in each of C coordinates`` and JSON writes null for them, as for a
non-finite ``value_complex``; verify's report line and its JSON
coordinates follow the same rule.  K is estimated from |S| = p^((N+l)/2)
before any coordinate is computed, so a huge m or p answers at once.
profile bounds its pairs alike (``NullityProfile.to_json_dict``): text reads
``pairs = omitted (C pairs)`` and the factored order, JSON null, csv none.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import errors
from .cyclotomic import ExpSumValue
from .evaluator import evaluate, verify
from .fieldcore import FieldCtx, build_field_ctx
from .lifts import monomial_eval, shift_linear
from .nullity import QuadFunc, nullity_profile
from .quadform import DEFAULT_CAP
from .tabulate import diff_reference, generate_table, reference_path, rows_to_csv, rows_to_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSUPPORTED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise errors.InvalidInput(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="quadsums", description="Exact exponential sums of quadratic functions over GF(p^n)")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--n", type=int, default=1, help="base extension degree")
        sp.add_argument("--modulus", help="base modulus, comma-separated residues, constant first")
        sp.add_argument("--coeffs", required=True, help="coefficients (dense unless --alphas)")
        sp.add_argument("--alphas", help="sparse exponent list a1,a2,...")

    sp = sub.add_parser("eval", help="exact value of the full-field sum")
    common(sp)
    sp.add_argument("--m", type=int, required=True, help="extension multiplier")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("profile", help="splitting exponent and nullity table")
    common(sp)
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")

    sp = sub.add_parser("table", help="regenerate a nullity table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha-max", type=int, required=True)
    sp.add_argument("--diff", help="reference CSV to compare against (or 'table1'/'table2')")
    sp.add_argument("--out", help="write CSV/JSON here instead of stdout")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("verify", help="closed form vs brute-force enumeration")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("shift", help="reduce the linearly shifted sum to the unshifted one")
    common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--b", required=True, help="shift coefficient in GF(p^(m*n))")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("monomial", help="closed form for a single-term function")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True, help="total extension degree")
    sp.add_argument("--modulus", help="modulus for GF(p^N)")
    sp.add_argument("--a", required=True, help="coefficient in GF(p^N)")
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    return top


def _parse_func(args) -> QuadFunc:
    modulus = _parse_modulus(args)
    ctx = build_field_ctx(args.p, args.n, modulus)
    if args.n > 1:
        coeffs = [ctx.parse_elem(s) for s in args.coeffs.split(";")]
    else:
        coeffs = [ctx.elem(int(t)) for t in args.coeffs.split(",")]
    if args.alphas:
        exps = [int(t) for t in args.alphas.split(",")]
        if len(exps) != len(coeffs):
            raise errors.InvalidInput(f"{len(coeffs)} coefficients but {len(exps)} exponents")
        if any(c.is_zero() for c in coeffs):
            raise errors.InvalidInput("sparse terms must have nonzero coefficients")
        return QuadFunc.from_terms(ctx, list(zip(coeffs, exps)))
    return QuadFunc.from_dense(args.p, coeffs, args.n, modulus)


def _parse_modulus(args):
    return None if args.modulus is None else tuple(int(t) for t in args.modulus.split(","))


def _parse_elem_flexible(ctx, text: str):
    """A single residue means a prime-field constant; otherwise a full
    coordinate vector is required."""
    tokens = text.split(",")
    if len(tokens) == 1:
        return ctx.elem(int(tokens[0]))
    return ctx.parse_elem(text)


def _value_fields(v: ExpSumValue) -> dict:
    """The JSON fields of a value that every subcommand writes alike."""
    return {
        "l": v.l,
        "t": v.t,
        "value_exact": v.exact_str(),
        "value_cyclotomic": _coords(v, v.to_cyclotomic),
        "value_complex": _complex_json(v),
    }


def _value_json(f: QuadFunc, m: int, v: ExpSumValue) -> dict:
    return {"p": v.p, "n": f.n, "m": m, "N": v.N, **_value_fields(v), "provenance": list(v.provenance)}


def _dump(obj, out):
    json.dump(obj, out, indent=2)
    out.write("\n")


def _coord_digits(v: ExpSumValue) -> int:
    """Upper bound on the decimal digits of a coordinate of v, whose
    coordinates are at most 2 p^((N+l)/2) in size."""
    return int(math.log10(2) + (v.N + v.l) / 2 * math.log10(v.p)) + 1


def _coords(v: ExpSumValue, cyclotomic):
    """cyclotomic().coords as a list, for a value of the size of v; None
    when they would pass the int-to-string limit (see the module docstring)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (v.p - 1) * _coord_digits(v) > limit:
        return None
    return list(cyclotomic().coords)


def _coords_line(v: ExpSumValue, coords) -> str:
    if coords is None:
        coords = f"omitted (~{_coord_digits(v)} digits) in each of {v.p - 1} coordinates"
    return f"cyclotomic coords = {coords}\n"


def _complex_json(v: ExpSumValue):
    """[re, im], or None (JSON null) once the value overflows a float."""
    z = v.complex_value()
    return [z.real, z.imag] if cmath.isfinite(z) else None


def _print_value(f: QuadFunc, m: int, v: ExpSumValue, fmt: str, out):
    if fmt == "json":
        _dump(_value_json(f, m, v), out)
        return
    z = v.complex_value()
    out.write(f"p={v.p} n={f.n} m={m} N={v.N}  modulus={_mod_str(f)}\n")
    out.write(f"t={v.t:+d}  l={v.l}\n")
    out.write(f"value = {v.exact_str()}\n")
    out.write(_coords_line(v, _coords(v, v.to_cyclotomic)))
    out.write(f"complex ~ {z.real:.6f} {z.imag:+.6f}i\n")
    out.write("provenance:\n")
    for step in v.provenance:
        out.write(f"  - {step}\n")


def _mod_str(f: QuadFunc) -> str:
    return "none" if f.n == 1 else ",".join(map(str, f.ctx.modulus))


def _cmd_eval(args, out) -> int:
    f = _parse_func(args)
    v = evaluate(f, args.m)
    _print_value(f, args.m, v, args.format, out)
    return EXIT_OK


def _cmd_profile(args, out) -> int:
    f = _parse_func(args)
    prof = nullity_profile(f)
    doc = prof.to_json_dict()
    pairs = None if doc["entries"] is None else " ".join(f"({m},{l})" for m, l in doc["entries"])
    if args.format == "json":
        _dump(doc, out)
    elif args.format == "csv":
        coeffs = " ".join(str(c.coeffs[0]) if f.n == 1 else str(c) for c in f.dense_coeffs())
        out.write(f"{coeffs};{prof.s};{pairs or ''}\n")
    else:
        out.write(f"s = {prof.s}\nfactors: {' '.join(f'({d},{o},{e})' for d, o, e in doc['factors'])}\n")
        if pairs is None:
            order = " * ".join(f"{q}^{v}" if v > 1 else str(q) for q, v in sorted(prof.order.items()))
            out.write(f"pairs = omitted ({prof.pair_count} pairs)\norder = {order}\n")
        else:
            out.write(f"pairs: {pairs}\n")
    return EXIT_OK


def _cmd_table(args, out) -> int:
    rows = generate_table(args.p, args.alpha_max, jobs=args.jobs)
    payload = rows_to_csv(rows) if args.format != "json" else json.dumps(rows_to_json(rows), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    elif not args.diff:
        out.write(payload)
    if args.diff:
        path = reference_path(args.diff) if args.diff in ("table1", "table2") else args.diff
        rep = diff_reference(rows, path)
        out.write(str(rep) + "\n")
        if not rep.clean:
            return EXIT_INTERNAL
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    f = _parse_func(args)
    rep = verify(f, args.m, cap=args.cap)
    v = rep.value
    closed = _coords(v, lambda: rep.closed_form)
    if args.format == "json":
        _dump(
            {
                "equal": rep.equal,
                "closed_form": closed,
                "brute_force": _coords(v, lambda: rep.brute),
                "value": _value_json(f, args.m, v),
            },
            out,
        )
    elif closed is None:
        out.write(f"{'exact-equal' if rep.equal else 'MISMATCH'}: {v.exact_str()}\n")
        out.write(_coords_line(v, None))
    else:
        out.write(str(rep) + "\n")
    return EXIT_OK if rep.equal else EXIT_INTERNAL


def _cmd_shift(args, out) -> int:
    f = _parse_func(args)
    N = args.m * f.n
    ctx_big = build_field_ctx(f.p, N)
    b = _parse_elem_flexible(ctx_big, args.b)
    value = evaluate(f, args.m)
    sh = shift_linear(f, b, N, value)
    if args.format == "json":
        _dump(
            {
                "zero": sh.zero,
                "phase": None if sh.zero else sh.phase,
                "base": _value_json(f, args.m, value),
                "cyclotomic": _coords(value, sh.to_cyclotomic),
            },
            out,
        )
    elif sh.zero:
        out.write("0 (the shifted sum vanishes)\n")
    else:
        out.write(f"zeta^(-{sh.phase}) * ({value.exact_str()})\n")
        out.write(_coords_line(value, _coords(value, sh.to_cyclotomic)))
    return EXIT_OK


def _cmd_monomial(args, out) -> int:
    # A residue lies in GF(p), which monomial_eval takes as it is: GF(p^N)
    # is built only for a coordinate vector or to check a given modulus.
    if "," not in args.a and args.modulus is None:
        a = FieldCtx(args.p, 1).elem(int(args.a))
    else:
        a = _parse_elem_flexible(build_field_ctx(args.p, args.N, _parse_modulus(args)), args.a)
    v = monomial_eval(a, args.alpha, args.N)
    case = v.provenance[0]["case"]
    if args.format == "json":
        _dump({"p": v.p, "N": v.N, "alpha": args.alpha, "a": args.a, "case": case, **_value_fields(v)}, out)
    else:
        out.write(f"value = {v.exact_str()}  (case {case})\n")
        coords = _coords(v, v.to_cyclotomic)
        if coords is not None and not any(coords[1:]):
            out.write(f"integer value = {coords[0]}\n")
        out.write(_coords_line(v, coords))
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "profile": _cmd_profile,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "shift": _cmd_shift,
    "monomial": _cmd_monomial,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (errors.Unsupported, errors.TooLarge, errors.SearchBudgetExceeded) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (errors.InternalInconsistency, errors.NoRootFound, errors.ParityViolation,
            errors.ConditionViolated, errors.NotApplicable, errors.DivisibilityViolated) as exc:
        print(f"internal inconsistency (bug): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (errors.QuadsumsError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
