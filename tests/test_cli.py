import io
import json
import re
from pathlib import Path

import pytest

from quadsums import ExpSumValue, _numtheory, cli, cyclotomic, errors, nullity
from quadsums.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_eval_running_example():
    code, out = run(["eval", "--p", "5", "--n", "1", "--coeffs", "1,2,3,4,1", "--m", "13"])
    assert code == 0
    assert "t=-1" in out and "l=4" in out
    assert "value = -g^9*p^4" in out


def test_eval_table_first_row():
    code, out = run(["eval", "--p", "3", "--n", "1", "--coeffs", "1", "--m", "1"])
    assert code == 0
    assert "value = g\n" in out


def test_eval_sparse_zero_coefficient_rejected():
    code, _ = run(["eval", "--p", "5", "--n", "1", "--coeffs", "3,0,1", "--alphas", "1,2,3", "--m", "2"])
    assert code == 1


def test_eval_alpha_count_mismatch_rejected():
    code, _ = run(["eval", "--p", "5", "--n", "1", "--coeffs", "3,1", "--alphas", "1,2,3", "--m", "2"])
    assert code == 1


def test_eval_json_schema():
    code, out = run(["eval", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "13", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"p", "n", "m", "N", "l", "t", "value_exact", "value_cyclotomic", "value_complex", "provenance"}
    assert doc["value_exact"] == "-g^9*p^4"
    assert doc["l"] == 4 and doc["t"] == -1
    assert len(doc["value_cyclotomic"]) == 4


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "5", "--coeffs", "1,1", "--m", "2"],
    ["verify", "--p", "5", "--coeffs", "1,1", "--m", "2"],
    ["shift", "--p", "5", "--coeffs", "1,1", "--m", "2", "--b", "1"],
    ["monomial", "--p", "5", "--a", "2", "--alpha", "1", "--N", "2"],
])
def test_csv_format_only_where_offered(argv, capsys):
    assert run(argv)[0] == 0
    code, out = run(argv + ["--format", "csv"])
    assert code == 1 and out == ""
    assert "invalid choice" in capsys.readouterr().err


def test_table_has_no_text_format(capsys):
    # text would print the same CSV as the default
    code, out = run(["table", "--p", "3", "--alpha-max", "1", "--format", "text"])
    assert code == 1 and out == ""
    assert "invalid choice" in capsys.readouterr().err


def test_profile_csv_is_the_table_row():
    from quadsums.tabulate import generate_table

    code, out = run(["profile", "--p", "3", "--coeffs", "2,0,1", "--format", "csv"])
    row = next(r for r in generate_table(3, 2) if r.coeffs == (2, 0, 1))
    assert code == 0 and out == row.csv_line() + "\n"


def test_profile_running_example():
    code, out = run(["profile", "--p", "5", "--n", "1", "--coeffs", "1,2,3,4,1"])
    assert code == 0
    assert "s = 26" in out
    assert "factors: (4,13,1) (4,26,1)" in out
    assert "(1,0) (2,0) (13,4) (26,8)" in out


def test_profile_past_old_search_ceiling():
    # s = 6562 lies past the 512 ladder steps the profile once gave up after
    code, out = run(["profile", "--p", "3", "--coeffs", "1,0,1,2,0,1,0,2,1"])
    assert code == 0
    assert "s = 6562" in out


@pytest.mark.parametrize(
    "argv,want",
    [
        (["profile", "--p", "9223372036854775837", "--coeffs", "9223372036854775836,1"],
         ["s = 9223372036854775837", "factors: (1,1,2)", "pairs: (1,1) (9223372036854775837,2)"]),
        (["eval", "--p", "9223372036854775837", "--coeffs", "3,9223372036854775835,1", "--m", "2"], ["value = -g^2"]),
        (["eval", "--p", "9223372036854775837", "--n", "2", "--coeffs", "1,0;1,1", "--m", "2"], ["value = -g^3*p"]),
    ],
)
def test_coefficients_past_two_to_the_63(argv, want):
    # p = 2^63 + 29: a residue >= 2^63 once made a float64 array
    code, out = run(argv)
    assert code == 0 and all(w in out for w in want), out


def test_profile_json_roundtrip():
    code, out = run(["profile", "--p", "5", "--coeffs", "1,2,3,4,1", "--format", "json"])
    doc = json.loads(out)
    assert doc["s"] == 26 and doc["entries"] == [[1, 0], [2, 0], [13, 4], [26, 8]]
    assert doc["factors"] == [[4, 13, 1], [4, 26, 1]]


def test_table_diff_clean():
    code, out = run(["table", "--p", "3", "--alpha-max", "4", "--diff", "table1"])
    assert code == 0
    assert out.strip() == "OK: 121 rows, 0 diffs"


def test_table_csv_output(tmp_path):
    target = tmp_path / "t.csv"
    code, _ = run(["table", "--p", "3", "--alpha-max", "1", "--out", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[0] == "1;1;(1,0)"


def test_verify_text_and_exit():
    code, out = run(["verify", "--p", "3", "--coeffs", "1,1", "--m", "2"])
    assert code == 0
    assert out.startswith("exact-equal")


def test_verify_cap_too_small():
    # a budget limit, not an input error
    code, _ = run(["verify", "--p", "3", "--coeffs", "1,1", "--m", "10", "--cap", "100"])
    assert code == 2


def test_verify_past_default_cap_is_unsupported(capsys):
    code, _ = run(["verify", "--p", "3", "--coeffs", "1,1", "--m", "20"])
    assert code == 2
    assert capsys.readouterr().err.startswith("unsupported:")


def test_shift_phase_and_zero():
    code, out = run(["shift", "--p", "5", "--coeffs", "1", "--m", "1", "--b", "1"])
    assert code == 0
    assert "zeta^(-4)" in out
    code, out = run(["shift", "--p", "3", "--coeffs", "2,1", "--m", "1", "--b", "1"])
    assert code == 0
    assert out.startswith("0 ")


def test_monomial_case_iii():
    code, out = run(["monomial", "--p", "3", "--a", "1", "--alpha", "1", "--N", "4"])
    assert code == 0
    assert "case iii" in out and "integer value = -27" in out


def test_unsupported_exit_code(capsys):
    # l_1 = 1 and l_257 = 2: the step 1 -> 257 may change the type, and the
    # direct base 257 is past DIRECT_LIMIT
    code, _ = run(["eval", "--p", "257", "--coeffs", "256,1", "--m", "257"])
    assert code == 2
    assert "unsupported: p_power_base_too_large" in capsys.readouterr().err


def test_factoring_past_the_rho_bound_exits_2(monkeypatch, capsys):
    # p^2 - p + 1 at p = 2^61 - 1 has a 14-digit prime factor: rho finds it
    # within RHO_STEPS, but not within 2^16 steps, and then the call exits 2
    monkeypatch.setattr(_numtheory, "RHO_STEPS", 2**16)
    _numtheory.factor_power_minus_one.cache_clear()
    code, _ = run(["profile", "--p", "2305843009213693951", "--coeffs", "1,0,3,1"])
    assert code == 2
    assert "unsupported: factoring_out_of_reach" in capsys.readouterr().err


def test_invalid_prime_exit_code():
    code, _ = run(["eval", "--p", "9", "--coeffs", "1", "--m", "1"])
    assert code == 1
    code, _ = run(["eval", "--p", "2", "--coeffs", "1", "--m", "1"])
    assert code == 1
    # a given modulus is reduced mod p only once p is known to be prime
    code, _ = run(["eval", "--p", "0", "--n", "2", "--modulus", "1,0,1", "--coeffs", "1,0", "--m", "1"])
    assert code == 1


def test_extension_base_input():
    code, out = run(["eval", "--p", "3", "--n", "2", "--coeffs", "1,0;0,1", "--m", "2"])
    assert code == 0
    assert "N=4" in out and "modulus=1,0,1" in out


def test_output_deterministic():
    args = ["eval", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "26", "--format", "json"]
    assert run(args) == run(args)


def test_table_diff_failure_exit_code(tmp_path):
    from quadsums.tabulate import generate_table, rows_to_csv

    rows = generate_table(3, 1)
    lines = rows_to_csv(rows).splitlines()
    ref = tmp_path / "ref.csv"
    ref.write_text("\n".join(lines[:-1] + [lines[-1].replace("(3,2)", "(3,1)")]) + "\n")
    code, out = run(["table", "--p", "3", "--alpha-max", "1", "--diff", str(ref)])
    assert code == 3
    assert "1 diffs" in out


@pytest.mark.parametrize("option", ["--diff", "--out"])
def test_table_path_that_cannot_be_used_exits_1(option, tmp_path, capsys):
    # a missing reference and an output path naming a directory end in one
    # "invalid input" line, not a traceback
    path = tmp_path / "missing.csv" if option == "--diff" else tmp_path
    code, _ = run(["table", "--p", "3", "--alpha-max", "1", option, str(path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("invalid input: ") and len(err.splitlines()) == 1, err
    for text in (cli.__doc__, README.read_text()):
        assert _documented_exit_codes(text)["OSError"] == [1]


def _documented_exit_codes(text: str) -> dict[str, list[int]]:
    """{word: [codes]} from an exit-code list: each entry starts with its
    code ("  1  ..." in the docstring, "  - `1` ..." in the README) and runs
    to the next entry or blank line."""
    found: dict[str, list[int]] = {}
    for m in re.finditer(r"^ +(?:- `)?([0-3])`? +(.*?)(?=^ +(?:- `)?[0-3]`? |^\s*$|\Z)", text, re.M | re.S):
        for word in set(re.findall(r"\w+", m.group(2))):
            found.setdefault(word, []).append(int(m.group(1)))
    return found


def _error_classes(cls=errors.QuadsumsError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("source", ["cli docstring", "README"])
def test_every_error_class_has_its_documented_exit_code(source, monkeypatch):
    text = cli.__doc__ if source == "cli docstring" else README.read_text()
    table = _documented_exit_codes(text)
    classes = sorted(set(_error_classes()), key=lambda c: c.__name__)
    assert len(classes) > 15
    for exc_cls in classes:
        codes = table.get(exc_cls.__name__)
        assert codes is not None and len(codes) == 1, f"{exc_cls.__name__} has no single exit code in the {source}"

        def raise_it(args, out, exc_cls=exc_cls):
            raise exc_cls("forced")

        monkeypatch.setitem(cli._COMMANDS, "eval", raise_it)
        code, _ = run(["eval", "--p", "3", "--coeffs", "1", "--m", "1"])
        assert code == codes[0], exc_cls.__name__


@pytest.mark.parametrize("exc_cls", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_exit_status_follows_the_exception_family(exc_cls, monkeypatch):
    # main names the families only: a new subclass exits by its base
    family = 2 if issubclass(exc_cls, errors.Unsupported) else 3 if issubclass(exc_cls, errors.InternalInconsistency) else 1

    def raise_it(args, out):
        raise exc_cls("forced")

    monkeypatch.setitem(cli._COMMANDS, "eval", raise_it)
    assert run(["eval", "--p", "3", "--coeffs", "1", "--m", "1"])[0] == family


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_value_past_float_range_prints():
    # |S| = 5^500 overflows a float: the exact value prints, the complex
    # approximation is infinite in text and null in JSON
    argv = ["eval", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "1000"]
    code, out = run(argv)
    assert code == 0 and "value = -g^1000\n" in out and "complex ~ -inf" in out
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["value_exact"] == "-g^1000" and payload["value_complex"] is None
    big = ExpSumValue(3, 1400, 2, 1)  # the value fields every command writes
    assert _strict_json(json.dumps(cli._value_fields(big)))["value_complex"] is None
    # within range the pair stays
    code, out = run(argv[:-1] + ["2", "--format", "json"])
    assert code == 0 and len(_strict_json(out)["value_complex"]) == 2


def test_monomial_residue_builds_no_field(monkeypatch):
    # a residue lies in GF(p): GF(3^1400) would take minutes to find a modulus
    def no_field(*args, **kwargs):
        raise AssertionError("build_field_ctx called for a residue")

    monkeypatch.setattr(cli, "build_field_ctx", no_field)
    code, out = run(["monomial", "--p", "3", "--a", "1", "--alpha", "1", "--N", "1400", "--format", "json"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["value_exact"] == "g^1398*p^2" and payload["case"] == "iii"
    assert len(payload["value_cyclotomic"]) == 2


def test_monomial_vector_parses_in_the_big_field():
    residue = run(["monomial", "--p", "3", "--a", "2", "--alpha", "1", "--N", "4"])
    vector = run(["monomial", "--p", "3", "--a", "2,0,0,0", "--alpha", "1", "--N", "4"])
    assert residue == vector and residue[0] == 0
    code, out = run(["monomial", "--p", "3", "--a", "0,1,0,0", "--alpha", "1", "--N", "4"])
    assert code == 0 and "case iii" in out


@pytest.mark.parametrize("m", [20000, 10**18])
def test_huge_value_omits_coordinates(m):
    # |S| = 3^((m+2)/2) has more digits than str(int) will print by default
    argv = ["eval", "--p", "3", "--coeffs", "0,1", "--m", str(m)]
    code, out = run(argv)
    assert code == 0
    assert f"value = g^{m - 2}*p^2\n" in out
    assert re.search(r"^cyclotomic coords = omitted \(~\d+ digits\) in each of 2 coordinates$", out, re.M)
    assert "provenance:" in out
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    payload = _strict_json(out)
    assert payload["value_exact"] == f"g^{m - 2}*p^2"
    assert payload["value_cyclotomic"] is None and payload["value_complex"] is None
    mono = ["monomial", "--p", "3", "--a", "1", "--alpha", "1", "--N", str(m)]
    code, out = run(mono)
    assert code == 0 and "omitted" in out and "integer value" not in out
    code, out = run(mono + ["--format", "json"])
    assert code == 0 and _strict_json(out)["value_cyclotomic"] is None


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "4"],
    ["verify", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "4"],
    ["shift", "--p", "5", "--coeffs", "1,2,3,4,1", "--m", "4", "--b", "1"],
    ["monomial", "--p", "5", "--a", "2", "--alpha", "1", "--N", "4"],
])
def test_every_command_follows_the_digit_limit(argv, monkeypatch):
    # these values have a few digits; a limit of one digit omits them.  The
    # verify report prints the enumerated sum, at most the cap in size.
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 1)
    code, out = run(argv)
    assert code == 0
    assert ("exact-equal" if argv[0] == "verify" else "cyclotomic coords = omitted (~") in out
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    payload = _strict_json(out)
    value = payload.get("value") or payload.get("base") or payload
    assert value["value_cyclotomic"] is None
    if argv[0] == "shift":
        assert payload["cyclotomic"] is None


@pytest.mark.parametrize("coeffs", ["1,5,1", "1,5,7,1"])
def test_large_prime_builds_no_coordinates(coeffs, monkeypatch):
    # p - 1 coordinates of 19 digits each pass the limit in all, so the
    # bound answers before any coordinate is built
    def no_coords(v):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(cyclotomic, "expsum_to_cyclotomic", no_coords)
    argv = ["eval", "--p", str(2**61 - 1), "--coeffs", coeffs, "--m", "2"]
    code, out = run(argv)
    assert code == 0 and "value = g^2\n" in out
    assert "cyclotomic coords = omitted (~19 digits) in each of 2305843009213693950 coordinates\n" in out
    code, out = run(argv + ["--format", "json"])
    assert code == 0 and _strict_json(out)["value_cyclotomic"] is None


def test_profile_with_many_divisors_omits_its_pairs(monkeypatch):
    # ord(A) has 73,728 divisors; the count, read off the factored order,
    # passes the int-to-string limit, so the divisor walk never runs
    def no_walk(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(nullity.NullityProfile, "entries", property(no_walk))
    argv = ["profile", "--p", str(2**61 - 1), "--coeffs", "1,5,7,1"]
    code, out = run(argv)
    s_line, factors_line, pairs_line, order_line = out.splitlines()
    assert code == 0 and re.fullmatch(r"s = \d{50,}", s_line)
    # two roots in GF(p) of one order and an irreducible quartic
    assert factors_line == "factors: (1,329406144173384850,1) (1,329406144173384850,1) " + (
        "(4,2658455991569831743501771111346995201,1)"
    )
    assert pairs_line == "pairs = omitted (73728 pairs)"
    assert order_line.startswith("order = 2 * 3^2 * 5^2 * 11 * 13 * ")
    code, out = run(argv + ["--format", "json"])
    doc = _strict_json(out)
    assert code == 0 and doc["entries"] is None and f"s = {doc['s']}" == s_line
    code, out = run(argv + ["--format", "csv"])
    assert code == 0 and out == f"1 5 7 1;{doc['s']};\n"


@pytest.mark.parametrize("limit,shown", [(1, False), (0, True)])
def test_profile_pairs_follow_the_digit_limit(limit, shown, monkeypatch):
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: limit)
    code, out = run(["profile", "--p", "5", "--coeffs", "1,2,3,4,1"])
    want = "pairs: (1,0) (2,0) (13,4) (26,8)\n" if shown else "pairs = omitted (4 pairs)\norder = 2 * 13\n"
    assert code == 0 and out == "s = 26\nfactors: (4,13,1) (4,26,1)\n" + want


def test_verify_bounds_its_coordinates_by_count():
    # 1,000,002 coordinates of a few digits each: the report stays short
    argv = ["verify", "--p", "1000003", "--coeffs", "654321", "--m", "1"]
    code, out = run(argv)
    assert code == 0 and out == "exact-equal: -g\ncyclotomic coords = omitted (~4 digits) in each of 1000002 coordinates\n"
    code, out = run(argv + ["--format", "json"])
    payload = _strict_json(out)
    assert code == 0 and payload["equal"] is True
    assert payload["closed_form"] is None and payload["brute_force"] is None
    assert payload["value"]["value_cyclotomic"] is None


def test_coordinate_digit_bound():
    for p in (3, 5, 7, 13):
        for N in range(1, 9):
            for l in range(N + 1):
                v = ExpSumValue(p, N, l, 1)
                longest = max(len(str(abs(c))) for c in v.to_cyclotomic().coords)
                assert longest <= cli._coord_digits(v) <= longest + 1, (p, N, l)
