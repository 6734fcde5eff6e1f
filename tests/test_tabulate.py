import pytest

from quadsums import QuadFunc, nullity_profile
from quadsums import _primepoly as pp
from quadsums import nullity, tabulate
from quadsums.errors import InternalInconsistency, MalformedReference, NotOdd, NotPrime
from quadsums.tabulate import (
    TableRow,
    diff_reference,
    enumerate_functions,
    generate_table,
    parse_reference,
    reference_path,
    rows_to_csv,
)


def test_enumeration_examples():
    first_four = [c for c, _ in enumerate_functions(3, 1)]
    assert first_four == [(1,), (0, 1), (1, 1), (2, 1)]
    assert [c for c, _ in enumerate_functions(5, 0)] == [(1,)]
    assert sum(1 for _ in enumerate_functions(3, 4)) == 121
    assert sum(1 for _ in enumerate_functions(5, 3)) == 156


def test_row_order_matches_reference_bytes():
    ref = parse_reference(reference_path("table1"))
    ours = [c for c, _ in enumerate_functions(3, 4)]
    assert [r.coeffs for r in ref] == ours


def test_single_row_examples():
    prof = nullity_profile(QuadFunc.from_dense(3, [1, 1, 0, 1]))
    assert prof.s == 30
    assert prof.entries == ((1, 1), (2, 1), (3, 2), (5, 1), (6, 2), (10, 5), (15, 2), (30, 6))
    prof5 = nullity_profile(QuadFunc.from_dense(5, [4, 1]))
    assert prof5.s == 5 and prof5.entries == ((1, 1), (5, 2))
    prof1 = nullity_profile(QuadFunc.from_dense(3, [1]))
    assert prof1.s == 1 and prof1.entries == ((1, 0),)


def test_generated_rows_satisfy_structural_invariants():
    rows = generate_table(3, 2)
    for row in rows:
        alpha = len(row.coeffs) - 1
        assert row.pairs[-1] == (row.s, 2 * alpha)
        ms = [m for m, _ in row.pairs]
        assert ms == sorted(ms)
        assert all(row.s % m == 0 for m in ms)
        assert len(ms) == sum(1 for d in range(1, row.s + 1) if row.s % d == 0)


def test_scaling_invariance():
    for coeffs in [(1, 1), (2, 1), (1, 2, 1), (0, 2, 1)]:
        f = QuadFunc.from_dense(3, list(coeffs))
        base = nullity_profile(f)
        for c in (1, 2):
            scaled = nullity_profile(f.scaled(c))
            assert scaled.s == base.s and scaled.entries == base.entries


def test_diff_detects_single_perturbation(tmp_path):
    rows = generate_table(3, 1)
    ref = tmp_path / "ref.csv"
    lines = rows_to_csv(rows).splitlines()
    # perturb one l value in the last row
    bad = lines[-1].replace("(3,2)", "(3,1)")
    assert bad != lines[-1]
    ref.write_text("\n".join(lines[:-1] + [bad]) + "\n")
    rep = diff_reference(rows, ref)
    assert not rep.clean
    assert len(rep.diffs) == 1
    assert "l_3" in rep.diffs[0]


def test_diff_clean_roundtrip(tmp_path):
    rows = generate_table(5, 1)
    ref = tmp_path / "ref.csv"
    ref.write_text(rows_to_csv(rows))
    assert diff_reference(rows, ref).clean


def test_malformed_reference(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1;2\n")
    with pytest.raises(MalformedReference):
        parse_reference(bad)
    bad.write_text("1;x;(1,0)\n")
    with pytest.raises(MalformedReference):
        parse_reference(bad)


def test_csv_line_format():
    row = TableRow(coeffs=(0, 1), s=4, pairs=((1, 0), (2, 0), (4, 2)))
    assert row.csv_line() == "0 1;4;(1,0) (2,0) (4,2)"


def test_parallel_generation_matches_serial():
    serial = generate_table(3, 2)
    parallel = generate_table(3, 2, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("p,alpha_max", [(3, 5), (5, 4), (7, 3)])
def test_table_rows_from_factorizations_match_factoring(p, alpha_max, monkeypatch):
    # each row's profile, built from the factors of f's H, equals the one
    # that factors mu itself, down to the irreducible factors
    seen = []
    monkeypatch.setattr(tabulate, "NullityProfile", lambda f, rows: seen.append(nullity.NullityProfile(f, rows)) or seen[-1])
    rows = generate_table(p, alpha_max)
    assert len(rows) == len(seen) == (p ** (alpha_max + 1) - 1) // (p - 1)
    for row, prof in zip(rows, seen):
        want = nullity_profile.__wrapped__(prof.func)
        assert (row.s, row.pairs) == (prof.s, prof.entries) == (want.s, want.entries), row.coeffs
        assert prof.factors == want.factors, row.coeffs


def test_table_rows_stay_out_of_the_profile_memo():
    # each row builds its NullityProfile directly: the memo of
    # nullity_profile neither grows nor misses
    before = nullity_profile.cache_info()
    generate_table(3, 4)
    after = nullity_profile.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_a_wrong_factorization_fails_the_table(monkeypatch):
    # H = y^2 + 1 and H = y^2 over GF(3) trade factors: the rows of one no
    # longer multiply to the mu of its f
    real = pp.factorizations

    def swapped(p, k):
        out = real(p, k)
        out[(1, 0, 1)], out[(0, 0, 1)] = out[(0, 0, 1)], out[(1, 0, 1)]
        return out

    monkeypatch.setattr(pp, "factorizations", swapped)
    with pytest.raises(InternalInconsistency, match="do not multiply to mu"):
        generate_table(3, 2)


def test_a_wrong_ladder_fails_the_table(monkeypatch):
    # every table row still checks l_n against the ladder
    monkeypatch.setattr(nullity, "nullity_at", lambda f, m: -1)
    with pytest.raises(InternalInconsistency, match="the ladder"):
        generate_table(3, 2)


@pytest.mark.parametrize("p,error", [(4, NotPrime), (9, NotPrime), (2, NotOdd)])
def test_a_bad_prime_fails_the_table_before_any_work(p, error, monkeypatch):
    def no_work(p, k):
        raise RuntimeError("factorizations ran")

    monkeypatch.setattr(pp, "factorizations", no_work)
    with pytest.raises(error):
        generate_table(p, 3)
