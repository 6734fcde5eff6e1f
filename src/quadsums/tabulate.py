"""Enumeration of quadratic functions and regeneration of the bundled
nullity tables.

Rows follow the reference layout: the coefficient list (a_0..a_k, a_k = 1,
exponents 0..k dense), the splitting exponent s, and the pairs (m, l_m) for
every divisor m of s.  Scaling f by a nonzero prime-field constant does not
change any l_m, so monic top coefficients lose no generality.  Row order is
fixed by the enumeration (k ascending, then the little-endian integer
encoding of a_0..a_{k-1}), so regenerated output is byte-comparable with
the shipped CSVs.

No row factors anything.  At n = 1 and alpha >= 1, mu = ell = x^alpha H(x +
1/x) with H = sum a_i D_i (:mod:`quadsums.nullity`, D_0 = 2), triangular in
the a_i: f -> H maps the p^alpha monic f of top exponent alpha one to one
onto the monic H of degree alpha.  ``_primepoly.factorizations`` lists each
H with its factors, ``half_rows`` makes mu's rows of them, and each row's
``NullityProfile`` is built from those rows and checked as any other; no
table row enters the ``nullity_profile`` memo.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Iterator

from . import _primepoly as pp
from ._numtheory import digits
from .errors import InvalidInput, MalformedReference
from .nullity import NullityProfile, QuadFunc, monic_ell


@dataclass(frozen=True)
class TableRow:
    """One line of a table, and of ``profile --format csv``: the dense
    coefficients (residues, or field elements printed as residue vectors
    at n > 1), s and the pairs (m, l_m)."""

    coeffs: tuple
    s: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def pair_text(self) -> str:
        return " ".join(f"({m},{l})" for m, l in self.pairs)

    def csv_line(self) -> str:
        return f"{' '.join(map(str, self.coeffs))};{self.s};{self.pair_text}"


def enumerate_functions(p: int, alpha_max: int) -> Iterator[tuple[tuple[int, ...], QuadFunc]]:
    """Yield (dense coefficient tuple, QuadFunc) for every monic f with
    exponent bound alpha_max, in reference row order."""
    if alpha_max < 0:
        raise InvalidInput("alpha_max must be >= 0")
    for k in range(alpha_max + 1):
        for code in range(p**k):
            coeffs = tuple(digits(code, p, k)) + (1,)
            yield coeffs, QuadFunc.from_dense(p, coeffs)


def _row_for(item: tuple[tuple[int, ...], QuadFunc, tuple]) -> TableRow:
    coeffs, f, rows = item
    prof = NullityProfile(f, rows)
    return TableRow(coeffs=coeffs, s=prof.s, pairs=prof.entries)


def generate_table(p: int, alpha_max: int, jobs: int = 1) -> list[TableRow]:
    """All rows for base GF(p); embarrassingly parallel, output order fixed
    by the enumeration regardless of jobs (functions reach the workers by
    pickling, through ``FieldCtx`` and ``FieldElem.__reduce__``), mu's
    rows read off f's H (above)."""
    funcs = list(enumerate_functions(p, alpha_max))  # a bad p or alpha_max raises here, before any work
    factors = pp.factorizations(p, alpha_max)
    # lazy, so each f's radical polynomial is still memoized when its profile reads it
    work = ((coeffs, f, pp.half_rows(factors[tuple(pp.half(monic_ell(f), p))], p)) for coeffs, f in funcs)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing; only jobs > 1 pays

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_row_for, work, chunksize=8))
    return [_row_for(w) for w in work]


def rows_to_csv(rows: list[TableRow]) -> str:
    return "\n".join(r.csv_line() for r in rows) + "\n"


def rows_to_json(rows: list[TableRow]) -> list[dict]:
    return [{"coeffs": list(r.coeffs), "s": r.s, "pairs": [list(p) for p in r.pairs]} for r in rows]


def parse_reference(path) -> list[TableRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(";")
            if len(parts) != 3:
                raise MalformedReference(f"{path}:{lineno}: expected 3 fields")
            try:
                coeffs = tuple(int(t) for t in parts[0].split())
                s = int(parts[1])
                pairs = []
                for tok in parts[2].split():
                    if not (tok.startswith("(") and tok.endswith(")")):
                        raise ValueError(tok)
                    a, b = tok[1:-1].split(",")
                    pairs.append((int(a), int(b)))
            except ValueError as exc:
                raise MalformedReference(f"{path}:{lineno}: {exc}") from exc
            rows.append(TableRow(coeffs=coeffs, s=s, pairs=tuple(pairs)))
    return rows


@dataclass(frozen=True)
class DiffReport:
    generated_rows: int
    reference_rows: int
    diffs: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.diffs and self.generated_rows == self.reference_rows

    def __str__(self):
        if self.clean:
            return f"OK: {self.generated_rows} rows, 0 diffs"
        lines = [f"{len(self.diffs)} diffs ({self.generated_rows} generated vs {self.reference_rows} reference rows)"]
        lines += list(self.diffs[:50])
        return "\n".join(lines)


def diff_reference(rows: list[TableRow], reference_path) -> DiffReport:
    """Row-by-row comparison against a reference CSV."""
    ref = parse_reference(reference_path)
    diffs: list[str] = []
    for i, (g, r) in enumerate(zip(rows, ref)):
        if g.coeffs != r.coeffs:
            diffs.append(f"row {i}: coeffs {g.coeffs} != {r.coeffs}")
            continue
        if g.s != r.s:
            diffs.append(f"row {i} ({' '.join(map(str, g.coeffs))}): s {g.s} != {r.s}")
        if g.pairs != r.pairs:
            gp, rp = dict(g.pairs), dict(r.pairs)
            for m in sorted(set(gp) | set(rp)):
                if gp.get(m) != rp.get(m):
                    diffs.append(
                        f"row {i} ({' '.join(map(str, g.coeffs))}): l_{m} {gp.get(m)} != {rp.get(m)}"
                    )
    if len(rows) != len(ref):
        diffs.append(f"row count: {len(rows)} generated vs {len(ref)} reference")
    return DiffReport(generated_rows=len(rows), reference_rows=len(ref), diffs=tuple(diffs))


def reference_path(name: str):
    """Filesystem path of a bundled reference table ('table1' or 'table2')."""
    res = importlib.resources.files("quadsums") / "reference" / f"{name}.csv"
    return res
