import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_utils import is_strongly_orthogonal

from sorklie import cli, groups
from sorklie.cli import EXIT_AUDIT_FAIL, EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from sorklie.check import OrthCertificate
from sorklie.errors import CertificateError
from sorklie.roots import MAX_BUILD_RANK, MAX_DIGITS, RootSystemType, build_root_system
from sorklie.sork import canonical_certificate, sork_formula


_BENCH_DATA = Path(__file__).parents[1] / "bench" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSork:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "sork", "E8")
        assert code == EXIT_OK
        assert out.strip() == "sork(E8) = 8"

    def test_json_with_certificate(self, capsys):
        code, out, _ = run(capsys, "sork", "G2", "--json", "--certificate")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["system_type"] == "G2"
        assert doc["n"] == 2
        assert len(doc["roots"]) == 2

    def test_invalid_type(self, capsys):
        code, _, err = run(capsys, "sork", "E9")
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_unparseable_type(self, capsys):
        code, _, err = run(capsys, "sork", "X1")
        assert code == EXIT_ERROR
        assert "error:" in err

    def test_a_certificate_the_checker_refuses_is_a_bug(self, capsys, monkeypatch):
        from sorklie import sork

        # e_2 - e_3 and e_1 - e_2 of A3, sorted, but not even orthogonal
        pair = ((0, 2, -2, 0), (2, -2, 0, 0))
        monkeypatch.setattr(sork, "sork_exact",
                            lambda phi: (2, OrthCertificate(phi.type, pair)))
        with pytest.raises(AssertionError,
                           match="certificate bug: .* A3 .*NotStronglyOrthogonal"):
            main(["sork", "A3", "--certificate"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("label", ["A64", "B64", "C64", "D64"])
    def test_rank_64_answers_with_canonical_certificate(self, capsys, label):
        t = RootSystemType.parse(label)
        code, out, err = run(capsys, "sork", label, "--json", "--certificate")
        doc = json.loads(out)
        assert (code, err) == (EXIT_OK, "")
        assert doc["n"] == len(doc["roots"]) == sork_formula(t)
        assert doc["roots"] == canonical_certificate(t).to_json_dict()["roots"]

    def test_rank_above_construction_cap_is_refused_before_construction(
            self, capsys, monkeypatch):
        from sorklie import roots

        def refuse(t):
            raise RuntimeError("root system built")

        for patched in (False, True):
            if patched:
                monkeypatch.setattr(roots, "_roots", refuse)
            code, out, err = run(capsys, "sork", f"B{MAX_BUILD_RANK + 1}")
            assert (code, out) == (EXIT_ERROR, "")
            assert err.startswith("error: ") and "construction limit" in err


class TestNu:
    def test_simple(self, capsys):
        code, out, _ = run(capsys, "nu", "so(7,1)")
        assert (code, out.strip()) == (EXIT_OK, "nu = 3")

    def test_product(self, capsys):
        code, out, _ = run(capsys, "nu", "su(2)^3 x sl(2,R)^2")
        assert (code, out.strip()) == (EXIT_OK, "nu = 5")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "nu", "so(3,5) x su(2)", "--json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["nu"] == 4 and doc["exact"] is True
        assert [f["descriptor"] for f in doc["factors"]] == ["so(5,3)", "su(2)"]
        assert doc["factors"][0]["case"] == "SopqException"

    def test_json_certificates_verify(self, capsys):
        code, out, _ = run(capsys, "nu", "complex(F4)", "--json", "--certificate")
        doc = json.loads(out)
        cert = doc["factors"][0]["certificate"]
        assert code == EXIT_OK
        assert cert["n"] == 4 and len(cert["roots"]) == 4

    @pytest.mark.parametrize("lower,upper", [
        ("e6(-26)", "E6(-26)"), ("f4(-20)", "F4(-20)"), ("g2(2)", "G2(2)"),
        ("e8(-248) x Complex(e7)", "E8(-248) x complex(E7)"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--json", "--certificate"]], ids=["text", "json"])
    def test_names_are_case_insensitive(self, capsys, lower, upper, flags):
        assert run(capsys, "nu", lower, *flags) == run(capsys, "nu", upper, *flags)
        assert run(capsys, "nu", upper, *flags)[0] == EXIT_OK

    def test_upper_bound_path(self, capsys):
        code, out, _ = run(capsys, "nu", "ext(solvable, sl(3,R), general)")
        assert code == EXIT_OK
        assert out.strip() == "nu <= 1 (upper bound)"

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "nu", "so(3,5")
        assert code == EXIT_ERROR
        assert "offset" in err

    def test_rule_not_applicable(self, capsys):
        code, _, err = run(capsys, "nu", "Z/2 * Z/2")
        assert code == EXIT_ERROR
        assert "infinite dihedral" in err

    def test_order_two_factor_inside_a_product_is_refused(self, capsys):
        code, out, err = run(capsys, "nu", "(Z/2 x Z/1) * Z/2")
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: ") and "infinite dihedral" in err

    def test_finite_index_of_finite_free_factor_is_refused(self, capsys):
        code, out, err = run(capsys, "nu", "fi(Z/2) * Z/3")
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: ") and "nontrivial" in err

    @pytest.mark.parametrize("expr,nu", [("so(129)", 64), ("so(63,65)", 63)])
    def test_rank_64_answers_without_search(self, expr, nu):
        proc = subprocess.run(
            [sys.executable, "-m", "sorklie.cli", "nu", expr, "--json"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["nu"] == nu

    @pytest.mark.parametrize("expr", [
        "(" * 400 + "su(2)" + ")" * 400,
        "fi(" * 400 + "su(2)" + ")" * 400,
        "(" * 50 + "su(2)" + " x Z) * Z" * 50,
    ], ids=["brackets", "fi", "tree_depth"])
    def test_deep_nesting_is_a_syntax_error(self, capsys, expr):
        code, out, err = run(capsys, "nu", expr)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: expression nests deeper than")

    def test_long_free_product_chain_is_one_level(self, capsys):
        chain = " * ".join(["su(2)"] * 1000)
        assert run(capsys, "nu", chain) == (EXIT_OK, "nu = 1\n", "")

    def test_rank_above_cap_is_an_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sorklie.cli", "nu", "su(66)"],
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_a_key_error_is_a_bug_not_a_user_error(self, monkeypatch):
        # no input reaches a KeyError, so one propagates as a certificate bug does
        def broken(e):
            raise KeyError("x")
        monkeypatch.setattr(groups, "nu_walk", broken)
        with pytest.raises(KeyError):
            main(["nu", "su(2)"])


# A reference for the certify size check, by one token regex: a string,
# where an unterminated one takes the rest of the text; a bracket; or the
# start of a digit run longer than MAX_DIGITS.
_SIZE_TOKENS = re.compile(r'"(?:[^"\\]|\\[\s\S])*"?|[][{}]|(?<![0-9])[0-9]{%d}'
                          % (MAX_DIGITS + 1))


def _size_error(raw):
    """The error message of the size check on ``raw``, or None."""
    depth = 0
    for m in _SIZE_TOKENS.finditer(raw):
        token = m.group()
        if token in "[{":
            depth += 1
            if depth > cli.MAX_JSON_NESTING:
                return (f"certificate document nests deeper than "
                        f"{cli.MAX_JSON_NESTING} levels")
        elif token in "]}":
            depth -= 1
        elif token[0] != '"':
            return f"certificate document has a number of more than {MAX_DIGITS} digits"
    return None


class TestCertify:
    def test_valid_roundtrip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sork", "E6", "--json", "--certificate")
        doc = json.loads(out)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == EXIT_OK
        assert "valid certificate: 4" in out

    def test_invalid_certificate(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"system_type": "A2", "n": 1, "roots": [[2, 0, 0]]}))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == EXIT_AUDIT_FAIL
        assert "NotARoot" in out

    def test_antipodal_pair(self, tmp_path, capsys):
        # a root and its negative: a + b = 0 is no root, so only the dot
        # product refuses them
        a, b = (-2, 2, 0), (2, -2, 0)
        assert not is_strongly_orthogonal(a, b, build_root_system(RootSystemType("A", 2)))
        path = tmp_path / "antipodal.json"
        path.write_text(json.dumps({"system_type": "A2", "roots": [list(a), list(b)]}))
        assert run(capsys, "certify", str(path)) == (
            EXIT_AUDIT_FAIL, "invalid certificate: NotStronglyOrthogonal\n", "")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "certify", str(path))
        assert code == EXIT_ERROR

    _NOT_INTEGER_LISTS = "roots must be a list of lists of integers"
    _ZERO = "a root cannot be the zero vector"

    # The zero check runs where a document's rows become roots, after the
    # label is parsed, so a bad label is reported first.
    @pytest.mark.parametrize("doc,message", [
        ([{"system_type": "E8", "roots": []}], "certificate must be a JSON object"),
        ({"system_type": "E8", "roots": [[None]]}, _NOT_INTEGER_LISTS),
        ({"system_type": "E8", "n": 1, "roots": [[True, 1, 1, 1, 1, 1, 1, 1]]},
         _NOT_INTEGER_LISTS),
        ({"system_type": "A2", "roots": [[]]}, _ZERO),
        ({"system_type": "A2", "roots": [[0, 0, 0]]}, _ZERO),
        ({"system_type": "A2", "roots": [[2, -2, 0], [0, 0, 0]]}, _ZERO),
        ({"system_type": "Q2", "roots": [[0, 0, 0]]},
         "cannot parse root system type 'Q2'"),
    ], ids=["top_level_list", "null_coordinate", "bool_coordinate", "zero_root_empty",
            "zero_root", "zero_root_after_a_root", "zero_root_under_a_bad_label"])
    def test_wrong_shape_is_a_typed_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "certify", str(path)) == (EXIT_ERROR, "", f"error: {message}\n")

    def test_n_mismatch(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(
            {"system_type": "E8", "n": 99, "roots": [[2, 2, 0, 0, 0, 0, 0, 0]]}))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == EXIT_AUDIT_FAIL
        assert out == "invalid certificate: CountMismatch\n"

    def test_huge_rank_is_refused_before_construction(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sorklie.cli", "certify", "-"],
            input=json.dumps({"system_type": "A99999999", "roots": []}),
            capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_deep_nesting_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 1000 + "]" * 1000)
        code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: certificate document nests deeper than")

    def test_brackets_inside_strings_do_not_nest(self, tmp_path, capsys):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"system_type": "A2", "roots": [],
                                    "note": "[" * 100 + '"\\' + "{" * 100}))
        code, out, _ = run(capsys, "certify", str(path))
        assert (code, out) == (EXIT_OK, "valid certificate: 0 strongly orthogonal roots in A2\n")

    @pytest.mark.parametrize("raw", [
        '"\\' * 2 ** 19,
        ("1" * MAX_DIGITS + ",") * (2 ** 20 // (MAX_DIGITS + 1)),
        "]" * 2 ** 20,
    ], ids=["unterminated_escapes", "digit_runs_at_the_limit", "closing_brackets"])
    def test_one_megabyte_of_hostile_text_is_refused_in_linear_time(self, raw):
        start = time.monotonic()
        proc = cli_process("certify", "-", input=raw)
        assert time.monotonic() - start < 2.0
        assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_endless_stdin_is_refused(self):
        feeder = subprocess.Popen(
            [sys.executable, "-c", "import sys\nwhile True: sys.stdout.write(' ' * 65536)"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            proc = subprocess.run([sys.executable, "-m", "sorklie.cli", "certify", "-"],
                                  stdin=feeder.stdout, capture_output=True, text=True,
                                  timeout=30, preexec_fn=_limit_memory)
        finally:
            feeder.kill()
            feeder.wait()
            feeder.stdout.close()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_ERROR, "", "error: certificate document is longer than "
                            f"{cli.MAX_DOCUMENT_CHARS} characters\n")

    @pytest.mark.parametrize("padding,code", [(0, EXIT_OK), (1, EXIT_ERROR)])
    def test_documents_longer_than_the_limit_are_refused(
            self, tmp_path, capsys, monkeypatch, padding, code):
        doc = json.dumps({"system_type": "A2", "roots": []})
        monkeypatch.setattr(cli, "MAX_DOCUMENT_CHARS", len(doc) + 10)
        path = tmp_path / "padded.json"
        path.write_text(doc + " " * (10 + padding))
        assert run(capsys, "certify", str(path))[0] == code

    @pytest.mark.parametrize("digits,code", [(MAX_DIGITS, EXIT_AUDIT_FAIL),
                                             (MAX_DIGITS + 1, EXIT_ERROR),
                                             (300_000, EXIT_ERROR)])
    def test_digit_runs_longer_than_max_digits_are_refused(
            self, tmp_path, capsys, int_digit_limit, digits, code):
        path = tmp_path / "digits.json"
        path.write_text('{"system_type": "A2", "roots": [[1%s, 0, 0]]}' % ("0" * (digits - 1)))
        expected = ((EXIT_AUDIT_FAIL, "invalid certificate: NotARoot\n", "")
                    if code == EXIT_AUDIT_FAIL else
                    (EXIT_ERROR, "", "error: certificate document has a number "
                                     f"of more than {MAX_DIGITS} digits\n"))
        assert run(capsys, "certify", str(path)) == expected

    def test_digit_limit_holds_without_an_int_limit(self):
        raw = '{"system_type": "A2", "roots": [[1%s, 0, 0]]}' % ("0" * 299_999)
        proc = cli_process("certify", "-", input=raw,
                           env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_ERROR, "", "error: certificate document has a number "
                            f"of more than {MAX_DIGITS} digits\n")

    def test_digits_inside_strings_are_not_counted(self, tmp_path, capsys):
        path = tmp_path / "note.json"
        path.write_text(json.dumps({"system_type": "A2", "roots": [], "note": "9" * 10_000}))
        code, out, _ = run(capsys, "certify", str(path))
        assert (code, out) == (EXIT_OK, "valid certificate: 0 strongly orthogonal roots in A2\n")

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(['"', "\\", "\\\\", "[", "]", "{", "}", "[" * 17,
                                     ",", " ", "a", "0" * MAX_DIGITS,
                                     "0" * (MAX_DIGITS + 1)]),
                    max_size=40).map("".join))
    @example('"\\\\"' + "[" * 17)  # an even run of backslashes: the string ends
    @example('"\\\\\\"' + "[" * 17)  # an odd run: the quote is escaped
    @example('"' + "0" * (MAX_DIGITS + 1) + '" ' + "0" * MAX_DIGITS)
    def test_size_check_matches_the_token_regex(self, raw):
        try:
            cli._check_json_size(raw)
            error = None
        except CertificateError as err:
            error = str(err)
        assert error == _size_error(raw)

    # bench/data/certify: exit code, stdout and stderr, byte for byte.
    _MALFORMED = {
        "missing_roots": (EXIT_ERROR, "", "error: roots must be a list of lists of integers\n"),
        "n_mismatch": (EXIT_AUDIT_FAIL, "invalid certificate: CountMismatch\n", ""),
        "not_a_root": (EXIT_AUDIT_FAIL, "invalid certificate: NotARoot\n", ""),
        "not_canonical": (EXIT_AUDIT_FAIL, "invalid certificate: NotCanonical\n", ""),
        "not_strongly_orthogonal": (EXIT_AUDIT_FAIL,
                                    "invalid certificate: NotStronglyOrthogonal\n", ""),
        "null_coordinate": (EXIT_ERROR, "", "error: roots must be a list of lists of integers\n"),
        "string_coordinate": (EXIT_ERROR, "",
                              "error: roots must be a list of lists of integers\n"),
        "top_level_list": (EXIT_ERROR, "", "error: certificate must be a JSON object\n"),
        "truncated": (EXIT_ERROR, "", "error: Expecting value: line 2 column 1 (char 34)\n"),
        "unknown_type": (EXIT_ERROR, "", "error: cannot parse root system type 'X9'\n"),
        "wrong_dimension": (EXIT_AUDIT_FAIL, "invalid certificate: NotARoot\n", ""),
        "zero_root": (EXIT_ERROR, "", "error: a root cannot be the zero vector\n"),
    }

    def test_committed_documents_give_their_pinned_output(self, capsys):
        malformed = {p.stem: run(capsys, "certify", str(p))
                     for p in sorted((_BENCH_DATA / "certify").glob("*.json"))}
        assert malformed == self._MALFORMED
        for path in sorted((_BENCH_DATA / "certificates").glob("*.json")):
            doc = json.loads(path.read_text())
            assert run(capsys, "certify", str(path)) == (
                EXIT_OK, f"valid certificate: {doc['n']} strongly orthogonal "
                         f"roots in {doc['system_type']}\n", ""), path.name

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "/nonexistent/cert.json")
        assert code == EXIT_ERROR


class TestNonAsciiDigits:
    """A Unicode digit other than 0-9 is a typed error: exit 1, one error
    line, nothing on stdout.  In an option value it is a usage error."""

    @pytest.mark.parametrize("argv,message", [
        (("sork", "A\u0663"), "cannot parse root system type 'A\u0663'"),
        (("sork", "A\u00b2", "--json"), "cannot parse root system type 'A\u00b2'"),
        (("dump-roots", "B\u0664"), "cannot parse root system type 'B\u0664'"),
        (("nu", "su(\u0663)"), "unexpected character '\u0663' at offset 3"),
        (("nu", "su(2)^\u0663", "--json"), "unexpected character '\u0663' at offset 6"),
    ], ids=["sork", "sork_superscript", "dump_roots", "nu", "nu_power"])
    def test_argument(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_ERROR, "", f"error: {message}\n")

    def test_certify_system_type(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"system_type": "A\u00b2", "roots": []}))
        assert run(capsys, "certify", str(path)) == (
            EXIT_ERROR, "", "error: cannot parse root system type 'A\u00b2'\n")

    @pytest.mark.parametrize("value", ["\u0662\u0664", "2_4"],
                             ids=["arabic_indic", "underscore"])
    def test_option_value(self, capsys, value):
        # int() reads both as 24; the option takes ASCII -?[0-9]+ only
        code, out, err = run(capsys, "verify-tables", "--rank-cap", value)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"--rank-cap: invalid int value: '{value}'" in err


class TestVerifyTables:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--rank-cap", "8")
        assert code == EXIT_OK
        assert out.count("all rows pass") == 3

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-tables", "--rank-cap", "8", "--json")
        assert code == EXIT_OK
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["audit"] for d in docs] == ["table1", "table2", "table3"]
        assert all(d["ok"] for d in docs)

    def test_rank_cap_below_four_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-tables", "--rank-cap", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--rank-cap: must be at least 4" in err

    def test_rank_cap_above_its_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-tables", "--rank-cap",
                             str(cli.MAX_RANK_CAP + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"--rank-cap: must be at most {cli.MAX_RANK_CAP}" in err

    def test_rank_cap_limit_is_the_construction_limit(self):
        # cli.py must not import roots for it, so the test pins the value
        assert cli.MAX_RANK_CAP == MAX_BUILD_RANK


# An int option of each audit command, its value last.
_INT_OPTIONS = [("verify-tables", "--rank-cap", "24"),
                ("verify-kronecker", "--max-size", "2")]


def _padded(argv, digits):
    """``argv`` with its last value written in ``digits`` digits, zeros first."""
    return (*argv[:-1], argv[-1].rjust(digits, "0"))


class TestIntOptionDigits:
    def test_digit_limit_is_the_roots_limit(self):
        # one limit, stated in sorklie.errors, which cli reads without roots
        assert cli.MAX_DIGITS is MAX_DIGITS == 600

    @pytest.mark.parametrize("argv", _INT_OPTIONS, ids=lambda argv: argv[0])
    def test_more_than_max_digits_is_a_usage_error(self, capsys, int_digit_limit, argv):
        assert run(capsys, *_padded(argv, MAX_DIGITS))[0] == EXIT_OK
        argv = _padded(argv, MAX_DIGITS + 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: argument {argv[-2]}: invalid int value: '{argv[-1]}'\n")

    @pytest.mark.parametrize("argv", _INT_OPTIONS, ids=lambda argv: argv[0])
    def test_digit_limit_holds_without_an_int_limit(self, argv):
        argv = _padded(argv, MAX_DIGITS + 1)
        proc = cli_process(*argv, env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"})
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.endswith(
            f"error: argument {argv[-2]}: invalid int value: '{argv[-1]}'\n")


# Inputs with a MAX_DIGITS-digit integer, the most an input may have:
# argv, stdin, and the answer, the exit code and stdout (None: the default
# rank-24 audit's).
_LONG_INTEGERS = [
    (("nu", "Z/" + "1" * MAX_DIGITS), None, EXIT_OK, "nu = 0\n"),
    (("verify-tables", "--rank-cap", "24".rjust(MAX_DIGITS, "0")), None, EXIT_OK, None),
    (("sork", "A" + "1".rjust(MAX_DIGITS, "0")), None, EXIT_OK, "sork(A1) = 1\n"),
    (("certify", "-"), '{"system_type": "A2", "roots": [[1' + "0" * (MAX_DIGITS - 1)
     + ', 0, 0]]}', EXIT_AUDIT_FAIL, "invalid certificate: NotARoot\n"),
]


def _too_large(rank):
    return (EXIT_ERROR, "", f"error: rank {rank} of A{rank} exceeds the "
                            f"construction limit {MAX_BUILD_RANK}\n")


# Inputs whose answer or error writes an integer derived from an input
# integer n (n, n-1, 2n-1): argv with n for {0}, and the exit code, stdout
# and stderr as a function of n.
_DERIVED_INTEGERS = {
    "R^n": (("nu", "R^{0}"), lambda n: (EXIT_OK, "nu = 0\n", "")),
    "sork_A": (("sork", "A{0}"), _too_large),
    "sork_E": (("sork", "E{0}"),
               lambda n: (EXIT_ERROR, "", f"error: rank {n} out of bounds for family E\n")),
    "dump-roots": (("dump-roots", "G{0}"),
                   lambda n: (EXIT_ERROR, "", f"error: rank {n} out of bounds for family G\n")),
    "su(n)": (("nu", "su({0})"), lambda n: _too_large(n - 1)),
    "su(n,n)": (("nu", "su({0},{0})"), lambda n: _too_large(2 * n - 1)),
    "E6(n)": (("nu", "E6({0})"), lambda n: (
        EXIT_ERROR, "", f"error: unknown exceptional real form E6({n}) (at offset 0)\n")),
    "E6(-n)": (("nu", "E6(-{0})"), lambda n: (
        EXIT_ERROR, "", f"error: unknown exceptional real form E6(-{n}) (at offset 0)\n")),
    "sp(n,-n)": (("nu", "sp({0},-{0})"), lambda n: (
        EXIT_ERROR, "", f"error: sp({n},-{n}) does not describe a simple Lie algebra "
                        "(at offset 0)\n")),
    "sl(n,H)": (("nu", "sl({0},H)"), lambda n: _too_large(2 * n - 1)),
    "complex(An)": (("nu", "complex(A{0})"), _too_large),
}


def _under_each_limit(argv, stdin=None):
    """The one (exit code, stdout, stderr) of a CLI process on ``argv``
    under PYTHONINTMAXSTRDIGITS 640 (its least value), 4299, 0 and unset;
    the test fails if two differ or any mentions the limit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    results = set()
    for limit in ("640", "4299", "0", None):  # None: unset
        proc = cli_process(*argv, input=stdin, env=env if limit is None
                           else {**env, "PYTHONINTMAXSTRDIGITS": limit})
        results.add((proc.returncode, proc.stdout, proc.stderr))
    assert len(results) == 1, results
    result = results.pop()
    assert "Exceeds the limit" not in result[1] + result[2]
    return result


class TestIntDigitLimit:
    def test_every_written_integer_is_below_the_least_limit(self):
        # Each integer written has at most one digit more than an input
        # integer, and PYTHONINTMAXSTRDIGITS sets no limit below 640.
        assert MAX_DIGITS + 1 < 640

    @pytest.mark.parametrize("argv,stdin,code,stdout", _LONG_INTEGERS,
                             ids=[argv[0] for argv, *_ in _LONG_INTEGERS])
    def test_one_answer_whatever_the_limit(self, capsys, argv, stdin, code, stdout):
        if stdout is None:
            stdout = run(capsys, "verify-tables")[1]
        assert _under_each_limit(argv, stdin) == (code, stdout, "")

    @pytest.mark.parametrize("argv,expected", _DERIVED_INTEGERS.values(),
                             ids=_DERIVED_INTEGERS)
    def test_derived_integers_whatever_the_limit(self, argv, expected):
        n = "9" * MAX_DIGITS
        assert _under_each_limit([a.format(n) for a in argv]) == expected(int(n))
        code, out, err = _under_each_limit([a.format(n + "9") for a in argv])
        assert (code, out) == (EXIT_ERROR, "")
        assert re.fullmatch(f"error: (rank|integer literal) has more than {MAX_DIGITS} "
                            r"digits( at offset \d+)?\n", err), err


# verify-kronecker's stdout, which scripts read: three names, kept since
# they were a random sample, a 2x2 proof and a sample per size.
_KRONECKER_TEXT = ("PASS random_bracket_trials\nPASS symbolic_2x2\n"
                   "PASS trivial_intersection\n")
_KRONECKER_JSON = ('{"checks": {"random_bracket_trials": true, "symbolic_2x2": true, '
                   '"trivial_intersection": true}, "ok": true}\n')


class TestVerifyKronecker:
    def test_pass(self, capsys):
        assert run(capsys, "verify-kronecker") == (EXIT_OK, _KRONECKER_TEXT, "")

    @pytest.mark.parametrize("max_size", range(2, 9))
    def test_every_size_prints_the_pinned_output(self, capsys, max_size):
        assert run(capsys, "verify-kronecker", "--max-size", str(max_size)) == (
            EXIT_OK, _KRONECKER_TEXT, "")

    @pytest.mark.parametrize("argv", [[], ["--max-size", "2"]])
    def test_json_output_is_pinned(self, capsys, argv):
        assert run(capsys, "verify-kronecker", *argv, "--json") == (
            EXIT_OK, _KRONECKER_JSON, "")

    # --samples chose how many random trials to run; nothing samples now
    @pytest.mark.parametrize("argv,extras", [
        (["--samples", "5"], "--samples 5"),
        (["--samples=200"], "--samples=200"),
        (["--max-size", "4", "--samples", "-5"], "--samples -5"),
    ])
    def test_samples_is_a_usage_error(self, capsys, argv, extras):
        code, out, err = run(capsys, "verify-kronecker", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: sorklie ")
        assert err.endswith(f"error: unrecognized arguments: {extras}\n")

    def test_a_corrupted_kronecker_sum_fails_the_proof(self, capsys, monkeypatch):
        from sorklie import matrixcheck

        shipped = matrixcheck._kronecker_sum

        def index_off(g, k, s, t):  # every entry of g one row too far down
            return shipped({((i + 1) % s, j): x for (i, j), x in g.items()}, k, s, t)

        monkeypatch.setattr(matrixcheck, "_kronecker_sum", index_off)
        code, out, _ = run(capsys, "verify-kronecker", "--max-size", "2")
        assert code == EXIT_AUDIT_FAIL
        assert out.startswith("FAIL random_bracket_trials\nFAIL symbolic_2x2\n")

    @pytest.mark.parametrize("flag,value,low", [("--max-size", "1", 2)])
    def test_value_below_its_minimum_is_a_usage_error(self, capsys, flag, value, low):
        code, out, err = run(capsys, "verify-kronecker", flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{flag}: must be at least {low}" in err

    @pytest.mark.parametrize("flag,high", [("--max-size", cli.MAX_KRONECKER_SIZE)])
    def test_value_above_its_limit_is_a_usage_error(self, capsys, flag, high):
        code, out, err = run(capsys, "verify-kronecker", flag, str(high + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{flag}: must be at most {high}" in err

    def test_limits_are_the_documented_ones(self):
        assert cli.MAX_KRONECKER_SIZE == 8
        assert not hasattr(cli, "MAX_KRONECKER_SAMPLES")


class TestDumpRoots:
    def test_g2(self, capsys):
        code, out, _ = run(capsys, "dump-roots", "G2")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["type"] == "G2"
        assert len(doc["doubled_coords"]) == 12


class TestUsage:
    def test_no_args(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_bad_flag(self, capsys):
        assert run(capsys, "sork", "E8", "--bogus")[0] == EXIT_USAGE

    # Help text, byte for byte: it is rendered from cli._GRAMMAR.
    _HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())

    @pytest.mark.parametrize("argv", sorted(_HELP))
    def test_help_text_is_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv.split()) == (EXIT_OK, self._HELP[argv], "")

    @pytest.mark.parametrize("columns", [None, "40", "80", "200"])
    @pytest.mark.parametrize("argv", ["--help", "sork --help"])
    def test_help_ignores_the_terminal_width(self, argv, columns):
        env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
        if columns is not None:
            env["COLUMNS"] = columns
        proc = cli_process(*argv.split(), env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, self._HELP[argv], "")

    def test_help_without_docstrings(self):
        # python -OO drops the module docstring, whose summary --help shows
        usage, _, rest = self._HELP["--help"].split("\n\n", 2)
        proc = subprocess.run([sys.executable, "-OO", "-m", "sorklie.cli", "--help"],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_OK, usage + "\n\n" + rest, "")

    # The usage block of each error is the first paragraph of its help.
    _CHOICES = "'sork', 'nu', 'certify', 'verify-tables', 'verify-kronecker', 'dump-roots'"

    @pytest.mark.parametrize("argv,usage,message", [
        ((), "--help", "the following arguments are required: command"),
        (("frobnicate",), "--help",
         f"argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})"),
        (("sork",), "sork --help", "the following arguments are required: type"),
        (("sork", "E8", "--bogus", "x"), "--help", "unrecognized arguments: --bogus x"),
        (("verify-tables", "--rank-cap", "x"), "verify-tables --help",
         "argument --rank-cap: invalid int value: 'x'"),
        (("verify-tables", "--rank-cap=65"), "verify-tables --help",
         "argument --rank-cap: must be at most 64, got 65"),
        (("verify-kronecker", "--max-size"), "verify-kronecker --help",
         "argument --max-size: expected one argument"),
    ], ids=["no-command", "unknown-command", "missing-positional", "unrecognized-argument",
            "invalid-int", "out-of-range", "missing-option-value"])
    def test_usage_error_is_pinned(self, capsys, argv, usage, message):
        stderr = self._HELP[usage].split("\n\n")[0] + f"\nerror: {message}\n"
        assert run(capsys, *argv) == (EXIT_USAGE, "", stderr)

    @pytest.mark.parametrize("argv,args", [
        (("sork", "-1"), {"type": "-1"}),
        (("nu", "--", "-h"), {"expr": "-h"}),
        (("sork", "--cert", "--js", "E8"), {"type": "E8", "certificate": True, "json": True}),
        (("verify-tables", "--rank=8"), {"rank_cap": 8}),
        (("verify-kronecker", "--max", "3", "--j"), {"max_size": 3, "json": True}),
        (("certify", "-"), {"path": "-"}),
    ], ids=["negative-positional", "dashes", "prefixes", "prefix-equals", "prefix-values",
            "stdin"])
    def test_accepted_spellings(self, argv, args):
        parsed = vars(cli._parse(list(argv)))
        assert {k: v for k, v in parsed.items() if k in args} == args


# Runs main(argv) in a fresh interpreter, then prints the loaded sorklie
# modules other than the package, cli and errors, and which of the standard
# modules that argv[1] names, comma-separated, are loaded.  It looks before
# it imports json to print them.
_LOADED = """
import contextlib, io, sys
from sorklie.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[2:])
names = [m.split(".")[1] for m in sys.modules if m.startswith("sorklie.")]
doc = {"layers": sorted(set(names) - {"cli", "errors"}),
       "loaded": [m for m in sys.argv[1].split(",") if m in sys.modules]}
import json
print(json.dumps(doc))
"""
_UNWANTED = ("fractions", "dataclasses", "inspect")
# loaded by argparse, which no command line needs: help and usage errors
# are rendered by cli._parse
_PARSER_MODULES = ("argparse", "gettext", "locale", "textwrap")
# loaded by import json, which no subcommand needs on success: certify parses
# with cli._loads, the rest write with cli._dumps
_JSON_MODULES = ("json", "json.decoder", "json.scanner", "json.encoder")


class TestImportLayering:
    @pytest.mark.parametrize("argv,layers", [
        (["--help"], []),
        (["sork"], []),
        (["frobnicate"], []),
        (["sork", "A3"], ["check", "roots", "sork"]),
        (["verify-kronecker"], ["matrixcheck"]),
        (["dump-roots", "G2"], ["roots"]),
        (["nu", "su(2)"], ["check", "groups", "realforms", "roots", "sork"]),
        (["certify", "-"], ["check", "roots"]),
        (["verify-tables", "--rank-cap", "4"], ["check", "roots", "sork", "tables"]),
    ], ids=["help", "missing-positional", "unknown-command", "sork", "verify-kronecker",
            "dump-roots", "nu", "certify", "verify-tables"])
    def test_subcommand_imports_only_its_layers(self, argv, layers):
        unwanted = _UNWANTED + _PARSER_MODULES + _JSON_MODULES
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED, ",".join(unwanted), *argv],
            input='{"system_type": "E6", "roots": []}',
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"layers": layers, "loaded": []}

    def test_checker_loads_only_errors_and_roots(self):
        # the trusted base of a certify verdict: check, roots and errors
        src = str(Path(cli.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import sorklie.check; "
                "print(sorted(m for m in sys.modules if m.startswith('sorklie.')))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == str(["sorklie.check", "sorklie.errors", "sorklie.roots"]) + "\n"

    def test_layers_import_no_typing_without_site(self):
        # site may import typing or enum itself; with -S only the layers could
        src = str(Path(cli.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import sorklie.cli, "
                "sorklie.groups, sorklie.tables, sorklie.matrixcheck; "
                "print([m for m in ('typing', 'dataclasses', 'inspect', 'enum') "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# Unrestricted text: controls, DEL, non-BMP characters and lone surrogates.
_text = st.text(st.characters(exclude_categories=()))
# JSON documents of every kind the encoder takes.  Its strings are names,
# labels and claims: printable ASCII without '"' or '\\', which json.dumps
# writes verbatim.
_name = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                              exclude_characters='"\\'))
_documents = st.recursive(
    st.booleans() | st.integers() | _name,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(_name, inner, max_size=6)),
    max_leaves=30)


class TestDumps:
    """``cli._dumps`` writes what ``json.dumps(x, sort_keys=True)`` does on
    the documents the CLI writes, and refuses every other value."""

    @settings(max_examples=500, deadline=None)
    @given(_documents)
    @example(["".join(map(chr, range(0x20, 0x7f))).replace('"', "").replace("\\", "")])
    @example([1, True, 0, False, -(10 ** 30)])
    @example({"b": [[1, 2], [True]], "a": {}, "": []})
    def test_same_bytes_as_json(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        1.5, [0.0], (1, 2), {"roots": [(2, 0)]}, {1: "a"}, {"a": 1, 2: "b"},
        {None: 1}, b"ab", {1, 2}, None, [1, None], {"a": None},
        'a"b', "a\\b", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600",
        "\ud800", {'"': 1}, {"\u00e9": 1}, ["ok", "\t"],
    ], ids=["float", "float_in_list", "tuple", "tuple_in_dict", "int_key",
            "mixed_keys", "none_key", "bytes", "set", "none", "none_in_list",
            "none_value", "quote", "backslash", "newline", "nul", "unit_separator",
            "del", "non_ascii", "non_bmp", "lone_surrogate", "quote_in_key",
            "non_ascii_key", "tab_in_list"])
    def test_other_values_are_type_errors(self, doc):
        with pytest.raises(TypeError):
            cli._dumps(doc)


# JSON documents of every kind the decoder reads, floats, NaN and infinities
# included, written out in varied layouts.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(_text, inner, max_size=6)),
    max_leaves=30)
_json_texts = st.builds(
    lambda doc, indent, separators, ensure_ascii: json.dumps(
        doc, indent=indent, separators=separators, ensure_ascii=ensure_ascii),
    _json_values,
    st.none() | st.integers(0, 3) | st.just("\t"),
    st.sampled_from([None, (",", ":"), (", ", ": "), (" , ", " :\n")]),
    st.booleans())
# Characters that matter to JSON's grammar, for mutations.
_JSON_CHARS = ' \t\n\r"\\/[]{},:-+.eE019uINaf\ufeff\x00\ud800'


def _mutations(text, data):
    """``text`` truncated, or with one character replaced, inserted or
    deleted."""
    i = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from(_JSON_CHARS))
    return data.draw(st.sampled_from([text[:i], text[:i] + c + text[i + 1:],
                                      text[:i] + c + text[i:], text[:i] + text[i + 1:]]))


def _decoded(loads, text):
    """What ``loads(text)`` gives: the repr of its value (NaN equals itself
    there) or the type and message of its exception.  It runs with no limit
    on the digits int() reads, so that both sides decode numbers of any
    length."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        return repr(loads(text))
    except Exception as err:  # compared, not handled
        return type(err), str(err)
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


# Decodes each argument with cli._loads in a fresh interpreter, before json
# is loaded, then with json.loads, and prints whether the two agree.
_FRESH_LOADS = """
import sys
from sorklie.cli import _loads
def decoded(loads, text):
    try:
        return repr(loads(text))
    except Exception as err:
        return type(err).__name__, str(err)
ours = [decoded(_loads, text) for text in sys.argv[1:]]
import json
theirs = [decoded(json.loads, text) for text in sys.argv[1:]]
print(ours == theirs or list(zip(ours, theirs)))
"""


class TestLoads:
    """``cli._loads(text)`` gives what ``json.loads(text)`` does."""

    @settings(max_examples=500, deadline=None)
    @given(_json_texts)
    def test_documents(self, text):
        assert _decoded(cli._loads, text) == _decoded(json.loads, text)

    @settings(max_examples=1000, deadline=None)
    @given(_json_texts, st.data())
    def test_truncations_and_mutations(self, text, data):
        text = _mutations(text, data)
        assert _decoded(cli._loads, text) == _decoded(json.loads, text)

    @pytest.mark.parametrize("text", [
        "", " \t\n\r", "\ufeff", "\ufeff{}", " \ufeff[]", "\u00a0[]", "NaN",
        "Infinity", "-Infinity", "[NaN, Infinity, -Infinity, -NaN]", "nan",
        "{} x", "[1] ]", "1 2", " [1] \t\n\r", '"\\ud800"', '["\\udc00\\ud800"]',
        '"\\ud83d\\ude00"', '"\x1f"', '"\\x"', "1" * 5000, "-" + "1" * 4300,
        "1" * 4300, "01", "1.", ".5", "1e400", "-0", "-0.0", '{"a": 1, "a": 2}',
        '{"a" 1}', "[1,]", "[", "{", '"', "tru", "[" * 100 + "]" * 100,
    ])
    def test_edge_cases(self, text):
        assert _decoded(cli._loads, text) == _decoded(json.loads, text)

    def test_errors_in_a_process_without_json_loaded(self):
        texts = ['"\\', '"abc', '["\\x"]', '"\x01"', '"\\u12"', "[1, 2", '{"a" 1}',
                 '{"a": 1,}', "[] x", "", " ", "\ufeff[]", "tru", "-", "[1e]"]
        proc = subprocess.run([sys.executable, "-c", _FRESH_LOADS, *texts],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")

    def test_without_the_c_scanner_json_loads_decodes(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "_json", None)  # import _json fails
        assert cli._loads(' {"roots": [[2, -0]]} ') == {"roots": [[2, 0]]}
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            cli._loads("[] []")


class TestConsoleScript:
    def test_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sorklie.cli", "sork", "F4"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "sork(F4) = 4"

    def test_certify_stdin(self, capsys):
        code, out, _ = run(capsys, "sork", "B3", "--json", "--certificate")
        doc = json.loads(out)
        proc = subprocess.run(
            [sys.executable, "-m", "sorklie.cli", "certify", "-"],
            input=json.dumps(doc), capture_output=True, text=True)
        assert proc.returncode == EXIT_OK


def _limit_memory():
    """Cap a child's address space at 1 GiB, so that a reader with no length
    limit fails with a MemoryError instead of taking the machine's memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def cli_process(*argv, env=None, stdout=subprocess.PIPE, input=None):
    """``python -m sorklie.cli ARGV``, which runs ``cli.run()``."""
    return subprocess.run([sys.executable, "-m", "sorklie.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=30, env=env, input=input)


_BUFFERING = ["buffered", "unbuffered"]


def _buffering_env(buffering):
    """The environment with ``PYTHONUNBUFFERED`` set for ``"unbuffered"``
    and unset for ``"buffered"``, never inherited."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


# Registers an atexit handler and runs cli.run() on "sork Q3", reporting a
# SystemExit that reaches it; {attach} starts a tool that waits for run() to
# return.  With none attached, run() ends the process itself.
_HOST = """
import atexit, sys
from sorklie import cli
atexit.register(print, "atexit handler ran")
sys.argv[1:] = ["sork", "Q3"]
{attach}
try:
    cli.run()
except SystemExit as exc:
    print("run() returned", exc.code)
"""
_OBSERVERS = {  # interpreter flags, attach
    "none": ([], ""),
    "setprofile": ([], "sys.setprofile(lambda *a: None)"),
    "settrace": ([], "sys.settrace(lambda *a: None)"),
    "monitoring": ([], 'sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, "test")'),
    "inspect": (["-i"], ""),
}


class TestRun:
    @pytest.mark.parametrize("observer", list(_OBSERVERS))
    def test_exits_itself_unless_a_tool_waits_for_it(self, capsys, observer):
        if observer == "monitoring" and not hasattr(sys, "monitoring"):
            pytest.skip("sys.monitoring is new in Python 3.12")
        flags, attach = _OBSERVERS[observer]
        env = _buffering_env("buffered")  # the handler's line must survive a buffer
        proc = subprocess.run([sys.executable, *flags, "-c", _HOST.format(attach=attach)],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=30, env=env)
        code, _, err = run(capsys, "sork", "Q3")
        assert code == EXIT_ERROR
        if observer == "none":
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, "atexit handler ran\n", err)
        else:
            assert (proc.returncode, proc.stdout) == (
                EXIT_OK, f"run() returned {code}\natexit handler ran\n")
            assert proc.stderr.startswith(err), proc.stderr  # -i adds its prompts

    def test_profiler_still_reports(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "sorklie.cli", "sork", "A2"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("sork(A2) = 1\n")
        assert "function calls" in proc.stdout

    # A failed line left in stderr's buffer would fail again in the
    # teardown that the tool's path keeps, and the interpreter exits 120.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("tool", [["cProfile", "-m"],
                                      ["trace", "--count", "--no-report", "--module"]],
                             ids=["cProfile", "trace"])
    def test_failing_stderr_under_a_tool_is_not_exit_120(self, tool):
        codes = []
        for buffering in _BUFFERING:
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", *tool, "sorklie.cli", "sork", "Q2"],
                    stdout=subprocess.DEVNULL, stderr=full, timeout=30,
                    env=_buffering_env(buffering))
            codes.append(proc.returncode)
        assert codes[0] == codes[1] != 120, codes

    @pytest.mark.parametrize("argv,code", [
        (["sork", "A5", "--json", "--certificate"], EXIT_OK),
        (["sork", "Q3"], EXIT_ERROR),
        (["certify", "{mismatch}"], EXIT_AUDIT_FAIL),
        (["sork"], EXIT_USAGE),
        (["sork", "D64", "--json", "--certificate"], EXIT_OK),
        (["dump-roots", "B64"], EXIT_OK),
        (["verify-tables", "--rank-cap", "64", "--json"], EXIT_OK),
    ], ids=["ok", "error", "audit-fail", "usage", "sork-D64", "dump-roots-B64",
            "verify-tables-64"])
    def test_same_output_and_code_as_main(self, capsys, monkeypatch, tmp_path,
                                          argv, code):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"system_type": "A2", "n": 2, "roots": []}))
        argv = [str(path) if a == "{mismatch}" else a for a in argv]
        monkeypatch.setenv("COLUMNS", "80")
        expected = run(capsys, *argv)
        # stdout to a pipe is block-buffered
        proc = cli_process(*argv, env=_buffering_env("buffered"))
        assert expected[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffering", _BUFFERING)
    def test_failed_write_is_an_error(self, buffering):
        with open("/dev/full", "w") as full:
            proc = cli_process("sork", "A2", env=_buffering_env(buffering), stdout=full)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("stdout", ["closed", "full"])
    def test_main_in_process_reports_a_lost_answer(self, capsys, monkeypatch, stdout):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", None if stdout == "closed" else Full())
        assert main(["sork", "A2"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: stdout is closed\n" if stdout == "closed" else _os_error(errno.ENOSPC))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_write_of_help_is_an_error(self):
        # unbuffered, the write fails in print, not at main()'s flush after it
        with open("/dev/full", "w") as full:
            proc = cli_process("--help", env=_buffering_env("unbuffered"), stdout=full)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


# One command line per subcommand, certify both ways; "{cert}" is replaced
# by a file holding _A1_CERT, and stdin holds the same document.
_A1_CERT = '{"system_type": "A1", "roots": [[2, -2]]}'
_STREAM_ARGVS = {
    "sork": ["sork", "A2"],
    "nu": ["nu", "su(2)"],
    "certify_file": ["certify", "{cert}"],
    "certify_stdin": ["certify", "-"],
    "verify-tables": ["verify-tables", "--rank-cap", "4"],
    "verify-kronecker": ["verify-kronecker", "--max-size", "2"],
    "dump-roots": ["dump-roots", "B8"],
}


def _os_error(code):
    return f"error: [Errno {code}] {os.strerror(code)}\n"


# The certify documents the benchmark feeds, and one whose extra string
# holds the byte 0xff, which is not UTF-8.
_CERTIFY_DOCS = [None, *sorted((_BENCH_DATA / "certify").glob("*.json")),
                 *sorted((_BENCH_DATA / "certificates").glob("*.json"))]


def _stream_child(argv, buffering, stdin="pipe", stdout="pipe", stderr="pipe"):
    """``python -m sorklie.cli ARGV`` with _A1_CERT on stdin, each stream
    ``"pipe"``, ``"closed"`` (its file descriptor closed in the child, so
    nothing it writes reaches the pipe), ``"full"`` (/dev/full) or
    ``"broken_pipe"`` (a pipe whose reader is gone), under ``buffering``."""
    closed = [fd for fd, kind in enumerate((stdin, stdout, stderr)) if kind == "closed"]
    with open("/dev/full", "w") as full:
        reader, writer = os.pipe()
        os.close(reader)
        files = {"pipe": subprocess.PIPE, "closed": subprocess.PIPE, "full": full,
                 "broken_pipe": writer}
        try:
            return subprocess.run(
                [sys.executable, "-m", "sorklie.cli", *argv], input=_A1_CERT,
                stdout=files[stdout], stderr=files[stderr], text=True, timeout=30,
                env=_buffering_env(buffering),
                preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None)
        finally:
            os.close(writer)


# The command lines run with a failing stderr -> (argv, exit code, stdout)
# with stdout on a pipe and a working stderr.
_STDERR_ARGVS = {
    "sork": (["sork", "A2"], EXIT_OK, "sork(A2) = 1\n"),
    "error": (["sork", "Q2"], EXIT_ERROR, ""),
    "usage": (["sork"], EXIT_USAGE, ""),
    "help": (["--help"], EXIT_OK, cli._help(None)),
    "certify_stdin": (["certify", "-"], EXIT_OK,
                      "valid certificate: 1 strongly orthogonal roots in A1\n"),
}


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestStreams:
    """The README's stream rules, run as processes with ``PYTHONUNBUFFERED``
    set and unset: each subcommand with stdin closed, stdout closed, stdout
    on /dev/full and stdout on a pipe whose reader is gone gives its
    documented exit code, and where the answer is lost, one ``error:`` line
    on stderr and no traceback.  A closed or failing stderr changes neither
    the exit code nor stdout."""

    @_NO_DEV_FULL
    @pytest.mark.parametrize("buffering", _BUFFERING)
    @pytest.mark.parametrize("stream", ["stdin_closed", "stdout_closed", "stdout_full",
                                        "stdout_broken_pipe"])
    @pytest.mark.parametrize("name", list(_STREAM_ARGVS))
    def test_every_subcommand_under_each_stream_fault(self, tmp_path, name, stream,
                                                      buffering):
        cert = tmp_path / "a1.json"
        cert.write_text(_A1_CERT)
        argv = [str(cert) if a == "{cert}" else a for a in _STREAM_ARGVS[name]]
        which, kind = stream.split("_", 1)
        proc = _stream_child(argv, buffering, **{which: kind})
        expected = {
            "stdin_closed": (EXIT_ERROR, _os_error(errno.EBADF))
            if name == "certify_stdin" else (EXIT_OK, ""),
            "stdout_closed": (EXIT_ERROR, "error: stdout is closed\n"),
            "stdout_full": (EXIT_ERROR, _os_error(errno.ENOSPC)),
            "stdout_broken_pipe": (EXIT_ERROR, _os_error(errno.EPIPE)),
        }[stream]
        assert (proc.returncode, proc.stderr) == expected

    @_NO_DEV_FULL
    @pytest.mark.parametrize("buffering", _BUFFERING)
    @pytest.mark.parametrize("stdout", ["pipe", "closed", "full", "broken_pipe"])
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    @pytest.mark.parametrize("name", list(_STDERR_ARGVS))
    def test_a_failing_stderr_changes_neither_exit_code_nor_stdout(
            self, name, stderr, stdout, buffering):
        argv, code, out = _STDERR_ARGVS[name]
        if stdout == "closed":
            code, out = EXIT_ERROR, ""  # stdout is closed, reported before any work
        elif stdout != "pipe":
            out = None  # not captured
            if code != EXIT_USAGE:  # a usage error writes nothing on stdout
                code = EXIT_ERROR  # every other answer is lost, --help's included
        proc = _stream_child(argv, buffering, stdout=stdout, stderr=stderr)
        # a closed stderr's pipe gets nothing: no error line, usage or traceback
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out, "" if stderr == "closed" else None)

    @pytest.mark.parametrize("buffering", _BUFFERING)
    @pytest.mark.parametrize("doc", _CERTIFY_DOCS, ids=lambda p: "0xff_string" if p is None
                             else f"{p.parent.name}/{p.stem}")
    def test_certify_gives_one_verdict_from_a_file_and_from_stdin(
            self, tmp_path, capsys, doc, buffering):
        if doc is None:
            doc = tmp_path / "0xff.json"
            doc.write_bytes(_A1_CERT[:-1].encode() + b', "note": "\xff"}')
        by_file = run(capsys, "certify", str(doc))
        # stdin is read as UTF-8 whatever PYTHONIOENCODING says
        with open(doc, "rb") as fh:
            proc = subprocess.run([sys.executable, "-m", "sorklie.cli", "certify", "-"],
                                  stdin=fh, capture_output=True, text=True, timeout=30,
                                  env={**_buffering_env(buffering),
                                       "PYTHONIOENCODING": "latin-1"})
        assert (proc.returncode, proc.stdout, proc.stderr) == by_file
        if doc.name == "0xff.json":
            assert by_file[0] == EXIT_ERROR and "can't decode byte 0xff" in by_file[2]
