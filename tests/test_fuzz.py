"""Hostile input to ``nu`` and ``certify``: every run ends with a documented
exit code (0, 1, 2 or 64), never with an uncaught exception, and in
bounded time.  Arbitrary command lines: the argparse-free parser either
declines or agrees with argparse."""

import contextlib
import io
import json
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

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


def _run(argv, stdin=""):
    start = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
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
    code, seconds = _run(["certify", "-"], stdin=raw)
    assert code in EXIT_CODES
    assert seconds < SECONDS


_TOKENS = st.sampled_from([
    *cli._GRAMMAR, "--json", "--certificate", "--rank-cap", "--max-size",
    "--samples", "--cert", "--rank", "--rank-cap=8", "-h", "--help", "--", "-",
    "-1", "8", "65", "x", "A3", "",
])


def _argparse_vars(argv):
    """vars() of argparse's namespace, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


# Most draws start with a command, so most reach the subcommand's grammar.
_ARGVS = st.builds(lambda command, rest: [command, *rest],
                   st.sampled_from(list(cli._GRAMMAR)), st.lists(_TOKENS, max_size=4)) \
    | st.lists(_TOKENS, max_size=5)


@settings(max_examples=500, deadline=None)
@given(_ARGVS)
def test_parse_declines_or_agrees_with_argparse(argv):
    fast, slow = cli._parse(argv), _argparse_vars(argv)
    if slow is None:
        assert fast is None
    if fast is not None:
        assert vars(fast) == slow


def test_parse_takes_every_benchmark_shape():
    for argv in (["sork", "B12", "--json", "--certificate"],
                 ["nu", "su(2)^3 x sl(2,R)", "--json"],
                 ["certify", "bench/data/certificates/E8.json"],
                 ["verify-tables", "--rank-cap", "24"],
                 ["verify-kronecker"],
                 ["dump-roots", "E8"]):
        fast = cli._parse(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv)
