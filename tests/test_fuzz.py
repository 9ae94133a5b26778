"""Hostile input to ``nu`` and ``certify``: every run ends with a documented
exit code (0, 1, 2 or 64), never with an uncaught exception, and in
bounded time.  Arbitrary command lines: ``cli._parse``, the one parser,
agrees with the argparse parser of the same grammar, the oracle in
``oracle_utils``.  Both must give the same namespace, or the same exit code
and the same stdout, so help text matches byte for byte; on Python 3.10
and 3.11 stderr must match too.

argparse itself reads some command lines differently from one Python to
the next (3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13 compared on every
argv of up to three tokens from the alphabet below, every command
followed by three, and the same with odder tokens).  The parser keeps one
reading, that of 3.10 and 3.11, where the package used argparse before,
so no command line changes meaning there:

- a ``--`` before the command is read as the command, an invalid choice;
  3.13.13 drops it and reads the command after it.  The test accepts
  either answer from the oracle;
- the choices of an invalid command are quoted, ``'sork', 'nu'``, where
  3.13.13 leaves them bare: stderr is compared only before 3.12;
- ``-hx`` is ``-h`` with an ignored argument ``x``, a usage error, and
  ``-h=h`` is help, where 3.13.0 shows help for the first and refuses the
  second;
- an ambiguous prefix (``--=x`` after a command) is refused before any
  option is read, where 3.13 first acts on the options before it, ``-h``
  included.

The last two are not in the alphabet; ``test_forms_argparse_reads_differently``
pins them.  One reading follows 3.13 instead: ``--rank-cap=--`` is an
invalid int value, where 3.10-3.12.1 store an empty list and the audit
then fails with a traceback."""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import argparse_parser
from sorklie import cli
from sorklie.cli import main

EXIT_CODES = {0, 1, 2, 64}
SECONDS = 5.0

_ATOMS = st.sampled_from([
    "su(2)", "sl(3,R)", "so(7,1)", "so*(8)", "sp(2,R)", "complex(E8)",
    "so(129)", "su(66)", "Z", "Z/2", "R^3", "solvable",
])

# Nesting depths around the limits and far beyond Python's recursion limit.
_depths = st.sampled_from([16, 17, 100, 101, 400, 1000, 3000]) | st.integers(0, 1000)

_expressions = st.one_of(
    st.text(alphabet="()^/,*x ZRHsuoplcmfietgnrv0123456789-ABCDEFG", max_size=60),
    st.builds(lambda k, a: "(" * k + a + ")" * k, _depths, _ATOMS),
    st.builds(lambda k, a: "fi(" * k + a + ")" * k, _depths, _ATOMS),
    st.builds(lambda k, op, a: op.join([a] * (k + 1)), _depths,
              st.sampled_from([" * ", " x "]), _ATOMS),
    st.builds(lambda a, k, j: f"({a})^{k}" * j, _ATOMS, st.integers(-2, 2000),
              st.integers(1, 3)),
)

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

_documents = st.one_of(
    st.builds(json.dumps, st.fixed_dictionaries(
        {"system_type": st.sampled_from(["A3", "B2", "G2", "E8", "D64", "B65",
                                         "A99999999", "Q1", "A0"])
                        | st.text(max_size=4),
         "roots": st.lists(st.lists(st.integers(-4, 4), max_size=9), max_size=5)},
        optional={"n": _json})),
    st.builds(json.dumps, _json),
    st.text(max_size=40),
    st.builds(lambda k, c: c[0] * k + c[1] * k, _depths, st.sampled_from(["[]", "{}"])),
)


def _run(argv):
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, time.monotonic() - start


@settings(max_examples=150, deadline=None)
@given(_expressions)
def test_nu_on_arbitrary_expressions(text):
    code, seconds = _run(["nu", text, "--json", "--certificate"])
    assert code in EXIT_CODES
    assert seconds < SECONDS


@settings(max_examples=150, deadline=None)
@given(_documents)
def test_certify_on_arbitrary_documents(raw):
    # certify reads stdin from its file descriptor, as it reads a file, so
    # the document goes in through a file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(raw)
        code, seconds = _run(["certify", path])
    assert code in EXIT_CODES
    assert seconds < SECONDS


_TOKENS = st.sampled_from([
    *cli._GRAMMAR, "--json", "--certificate", "--rank-cap", "--max-size",
    "--samples", "--cert", "--rank", "--max", "--s", "--rank-cap=8", "--rank-cap=",
    "--json=1", "-h", "--help", "-x", "--", "-", "-1", "8", "65", "x", "A3", "",
])

_ORACLE = argparse_parser()


def _outcome(parse, argv):
    """What ``parse(argv)`` gives: the namespace's ``vars()``, or the exit
    code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            args = parse(argv)
        except SystemExit as stop:
            args = stop.code
    if isinstance(args, int):
        return args, out.getvalue(), err.getvalue()
    return vars(args)


# Most draws start with a command, so most reach the subcommand's grammar.
_ARGVS = st.builds(lambda command, rest: [command, *rest],
                   st.sampled_from(list(cli._GRAMMAR)), st.lists(_TOKENS, max_size=4)) \
    | st.lists(_TOKENS, max_size=5)


def _compared(outcome):
    """``outcome`` as compared: a namespace whole, an exit by its code and
    stdout, and by its stderr too before Python 3.12."""
    if isinstance(outcome, dict) or sys.version_info < (3, 12):
        return outcome
    return outcome[:2]


@settings(max_examples=1000, deadline=None)
@given(_ARGVS)
def test_parse_agrees_with_argparse(argv):
    ours = _outcome(cli._parse, argv)
    allowed = [_compared(ours)]
    if isinstance(ours, tuple) and "invalid choice: '--'" in ours[2]:
        # a "--" before the command: newer argparse drops it
        i = argv.index("--")
        allowed.append(_compared(_outcome(cli._parse, argv[:i] + argv[i + 1:])))
    assert _compared(_outcome(_ORACLE.parse_args, argv)) in allowed


@pytest.mark.parametrize("argv,code,last_line", [
    (["--", "sork", "A3"], 64, "error: argument command: invalid choice: '--' (choose from "
                               "'sork', 'nu', 'certify', 'verify-tables', 'verify-kronecker', "
                               "'dump-roots')"),
    (["sork", "-hx"], 64, "error: argument -h/--help: ignored explicit argument 'x'"),
    (["sork", "-hhx"], 64, "error: argument -h/--help: ignored explicit argument 'x'"),
    (["sork", "-h=h"], 0, "  --json"),
    (["sork", "-h", "--=x"], 64, "error: ambiguous option: --=x could match --help, "
                                 "--certificate, --json"),
    (["verify-tables", "--rank-cap=--"], 64,
     "error: argument --rank-cap: invalid int value: '--'"),
])
def test_forms_argparse_reads_differently(argv, code, last_line):
    result, out, err = _outcome(cli._parse, argv)
    assert (result, (out or err).splitlines()[-1]) == (code, last_line)


def test_parse_takes_every_benchmark_shape():
    for argv in (["sork", "B12", "--json", "--certificate"],
                 ["nu", "su(2)^3 x sl(2,R)", "--json"],
                 ["certify", "bench/data/certificates/E8.json"],
                 ["verify-tables", "--rank-cap", "24"],
                 ["verify-kronecker"],
                 ["dump-roots", "E8"]):
        assert isinstance(cli._parse(argv), SimpleNamespace), argv
        assert _outcome(cli._parse, argv) == _outcome(_ORACLE.parse_args, argv)
