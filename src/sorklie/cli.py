"""Command line interface.

Exit codes: 0 success / all checks pass, 1 error (bad type, syntax error,
inapplicable rule, unreadable or malformed certify file, failed write of
the answer), 2 audit or verification failure, 64 usage error.

Each subcommand imports only the layers it runs, inside its ``_cmd_*``
function: ``--help`` and usage errors import none, ``dump-roots`` only
``roots``, ``verify-kronecker`` only ``matrixcheck``, and ``certify`` only
``roots`` and the checker, ``check``, but no search.  The imports read the
module attributes at call time, so a function patched on its module is the
one called.  ``verify-kronecker`` samples nothing: it proves the bracket
identity and the trivial intersection for every pair of sizes up to
``--max-size``.

No subcommand imports ``json`` to do its work.  ``certify`` reads at most
``MAX_DOCUMENT_CHARS`` characters of its document, refusing a longer one.
It opens a file and stdin (file descriptor 0) alike, as strict UTF-8, so a
document's verdict depends only on its bytes.  It parses the document
with ``_loads``, which runs the C scanner that ``json.loads`` runs,
``_json.make_scanner``, with ``JSONDecoder``'s default context, so a JSON
document gives the value that ``json.loads`` gives, but for a key repeated
in an object, which both refuse with a ``CertificateError``.  Any other
text goes to ``json.loads`` itself, for its error; ``json`` is loaded
only then, or where ``_json`` is missing.
Every other subcommand writes its documents through ``_dumps``, whose
output is ``json.dumps(x, sort_keys=True)`` byte for byte on what they
hold: dicts with str keys, lists, ints, bools, and strings of printable
ASCII without ``"`` or ``\\``, which need no escape.  Any other value,
None or a string that json would escape included, is a TypeError.
``import json`` compiles the regexes of its decoder, scanner and encoder,
which every process that skips it saves.  No subcommand imports ``re`` to
do its work: ``certify``'s size check before parsing and the lexer of
group expressions use no regex.

The grammar lives in one table, ``_GRAMMAR``, and one function,
``_parse``, reads every command line from it as argparse would: ``-h`` or
``--help`` at the top level or after the command, a unique prefix of a
long option (``--cert``), ``--opt=N``, ``--`` before positionals, and
negative numbers (``-1``) as values and positionals.  It prints the help
and the usage errors itself, rendered from the same table and the first
two paragraphs here in argparse's layout at 80 columns, whatever the
terminal's width, and imports nothing: argparse brought ``gettext``,
``locale`` and ``textwrap`` with it.  The namespace it returns is a
``types.SimpleNamespace``, named as ``types`` itself names it,
``type(sys.implementation)``, so no process imports ``types`` for it.

A CLI process runs ``run()``: it is the ``sorklie`` console script and the
body of ``python -m sorklie.cli``.  It calls ``main()``, which flushes
stdout before it returns, so a failed write of the answer takes one path
whether ``print`` or that flush fails: an ``error: ...`` line on stderr
and exit code 1.  So is a stdout closed at start, before any work:
``print`` would drop the answer silently.  Then ``run()`` ends the process
in teardown's order: it runs the ``atexit`` handlers, flushes stdout and
stderr, and calls ``os._exit()`` with ``main()``'s code, so the process
skips the rest of teardown, which deallocates every module that start-up,
``site`` and the layers loaded.  When a tool waits for ``run()`` to
return, a profiler or tracer (``sys.getprofile()``, ``sys.gettrace()``,
or on Python 3.12 and later a ``sys.monitoring`` tool, as ``cProfile`` is
there) or ``python -i``, ``run()`` raises ``SystemExit`` instead and the
tool ends the process.  The hard exit skips only what teardown alone
does: ``-X dev``'s ``ResourceWarning``s at shutdown, the
``PYTHONMALLOCSTATS`` report, the join of non-daemon threads (a CLI
process starts none), and ``python -m pdb``'s restart after ``continue``
with no breakpoint, whose session now ends with the process.  Every line
on stderr goes through ``_complain``; with stderr closed or failing it
writes nothing, and the exit code alone reports the error, whatever
``PYTHONUNBUFFERED`` says, with or without a tool.  ``main()`` never
exits, so a caller in the same process gets its code.
"""

import atexit
import os
import sys

from .errors import MAX_BUILD_RANK, MAX_DIGITS, CertificateError, SorklieError

SimpleNamespace = type(sys.implementation)  # as types defines it

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2
EXIT_USAGE = 64

# Deepest bracket nesting that ``certify`` accepts in a document, checked
# before parsing, whose decoder recurses once per level.  A certificate
# nests three levels: the object, its ``roots`` list and each root.
MAX_JSON_NESTING = 16
# Longest document that ``certify`` reads, in characters: it reads one more
# and stops, so an endless input such as /dev/zero is refused, not held in
# memory.  The largest canonical certificate, D64's, takes 63 KB at indent=4.
MAX_DOCUMENT_CHARS = 2 ** 24

# Upper limits of the audit commands, each a usage error before any output.
# verify-kronecker proves its two facts for every pair of sizes from 2 to
# --max-size, N(N - 1)/2 basis checks per pair with N = s^2 + t^2: at the
# cap, 8, that is 101,185 checks.
MAX_RANK_CAP = MAX_BUILD_RANK
MAX_KRONECKER_SIZE = 8


def _int_option(flag: str, low: int, high: int, default: int, what: str):
    return flag, low, high, default, f"{what}, {low} to {high} (default {default})"


_HELP = ("-h, --help", "show this help message and exit")
_WIDTH = 78  # the text width of argparse's help at 80 columns


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


class _Stop(Exception):
    """Ends parsing: the help of ``command`` (None: the top level) if
    ``message`` is None, else a usage error reported with its usage."""

    def __init__(self, command: str | None, message: str | None = None):
        super().__init__(message)
        self.command, self.message = command, message


def _parse(argv: list[str]) -> SimpleNamespace | int:
    """The namespace of ``argv``, or the exit code after ``--help`` (help
    on stdout, 0) or a usage error (usage and ``error: ...`` on stderr,
    64); see the module docstring for the spellings it reads."""
    args = {}
    try:
        extras = _scan(None, argv, args)
        if extras:
            raise _Stop(None, f"unrecognized arguments: {' '.join(extras)}")
    except _Stop as stop:
        if stop.message is None:
            print(_help(stop.command), end="")
            return EXIT_OK
        _complain(f"{_usage(stop.command)}\nerror: {stop.message}")
        return EXIT_USAGE
    return SimpleNamespace(**args)


def _scan(command: str | None, tokens: list[str], args: dict) -> list[str]:
    """Read the tokens of ``command`` (None: the top level, whose positional
    is the command) into ``args``; the tokens it cannot place are returned.
    As in argparse, the first ``--`` makes every later token a positional,
    an option's value is the next token if that is a positional, and an
    unknown option or an extra positional is kept for the top level's
    "unrecognized arguments"."""
    # option -> "help", (low, high) for an int option, or None for a flag
    table = {"-h": "help", "--help": "help"}
    positional = "command"
    if command is not None:
        _, pos, options, flags, _ = _GRAMMAR[command]
        positional = pos and pos[0]
        for flag, low, high, default, _ in options:
            table[flag], args[_dest(flag)] = (low, high), default
        for flag, _ in flags:
            table[flag], args[_dest(flag)] = None, False
    kinds = []  # per token: None for a positional, "--", or (option, its =value)
    for i, token in enumerate(tokens):
        if token == "--":
            kinds += ["--"] + [None] * (len(tokens) - i - 1)
            break
        kinds.append(_option(command, token, table))
    extras = []
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None or kind == "--":
            j = i + (kind == "--")  # a "--" goes with the positional after it
            if positional is None or j == len(tokens):
                extras.append(tokens[i])
                i += 1
                continue
            if command is None:  # the command takes every token after it
                # a "--" before it is read as the command, as argparse 3.11 does
                if tokens[i] not in _GRAMMAR:
                    raise _Stop(None, f"argument command: invalid choice: {tokens[i]!r} "
                                      f"(choose from {', '.join(map(repr, _GRAMMAR))})")
                args["command"] = tokens[i]
                return extras + _scan(tokens[i], tokens[i + 1:], args)
            args[positional], positional = tokens[j], None
            i = j + 1 + (j + 1 < len(tokens) and kinds[j + 1] == "--")
            continue
        name, value = kind
        i += 1
        if name is None:
            extras.append(tokens[i - 1])
            continue
        spec = table[name]
        if type(spec) is tuple:
            if value is None:
                if i == len(tokens) or kinds[i] is not None:
                    raise _Stop(command, f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
            args[_dest(name)] = _in_range(command, name, value, *spec)
        elif value is not None:
            # -hhh is -h three times: -h is the one short option
            rest = value.lstrip("h") if name == "-h" else value
            if value and not rest:
                raise _Stop(command)
            shown = "-h/--help" if spec == "help" else name
            raise _Stop(command, f"argument {shown}: ignored explicit argument {rest!r}")
        elif spec == "help":
            raise _Stop(command)
        else:
            args[_dest(name)] = True
    if positional is not None:
        raise _Stop(command, f"the following arguments are required: {positional}")
    return extras


def _option(command: str | None, token: str, table: dict):
    """How argparse reads ``token`` before any ``--``: None for a
    positional, else (the option or None if unknown, its =value or
    None)."""
    if not token.startswith("-") or token == "-":
        return None
    if token in table:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in table:
        return name, value
    if token.startswith("--"):
        matches = [option for option in table if option.startswith(name)]
        if len(matches) > 1:
            raise _Stop(command, f"ambiguous option: {token} could match "
                                 f"{', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[:2] in table:  # a short option with text after it
        return token[:2], token[2:]
    # argparse's ^-\d+$|^-\d*\.\d+$, where $ may precede a final newline
    number = token[1:].removesuffix("\n")
    whole, dot, fraction = number.partition(".")
    if number.isdecimal() or dot and fraction.isdecimal() and (
            whole.isdecimal() or not whole) or " " in token:
        return None
    return None, None


def _in_range(command: str, name: str, text: str, low: int, high: int) -> int:
    """The value of a bounded int option: an integer from ``low`` to
    ``high`` in at most ``MAX_DIGITS`` ASCII digits, ``-?[0-9]+`` as in
    rank labels, else a usage error before any work."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS):
        raise _Stop(command, f"argument {name}: invalid int value: {text!r}")
    value = int(text)
    if not low <= value <= high:
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise _Stop(command, f"argument {name}: must be {bound}, got {text}")
    return value


def _wrap(words: list[str], indent: str = "") -> list[str]:
    """``words`` in lines of at most ``_WIDTH`` columns, filled greedily,
    every line after the first starting with ``indent``."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) <= _WIDTH:
            lines[-1] += " " + word
        else:
            lines.append(indent + word)
    return lines


def _arguments(command: str | None):
    """The positional and the optional rows of ``command``'s help, each
    (indent, invocation, help or None), and its usage parts."""
    if command is None:
        choices = "{" + ",".join(_GRAMMAR) + "}"
        return ([(2, choices, None), *((4, name, spec[0]) for name, spec in _GRAMMAR.items())],
                [(2, *_HELP)], ["[-h]"], [choices, "..."])
    _, positional, options, flags, _ = _GRAMMAR[command]
    optionals = [_HELP, *((f"{flag} {_dest(flag).upper()}", help_)
                          for flag, _, _, _, help_ in options), *flags]
    usage = ["[-h]", *(f"[{invocation}]" for invocation, _ in optionals[1:])]
    return ([(2, *positional)] if positional else [], [(2, *row) for row in optionals],
            usage, [positional[0]] if positional else [])


def _usage(command: str | None) -> str:
    """The usage block of ``command`` (None: the top level), as argparse
    writes it: past the line width, the positionals start a new line."""
    prog = "sorklie" if command is None else f"sorklie {command}"
    _, _, optionals, positionals = _arguments(command)
    lines = _wrap(["usage:", prog, *optionals, *positionals])
    if len(lines) > 1:
        indent = " " * len(f"usage: {prog} ")
        lines = _wrap(["usage:", prog, *optionals], indent)
        if positionals:
            lines += _wrap([indent + positionals[0], *positionals[1:]], indent)
    return "\n".join(lines)


def _help(command: str | None) -> str:
    """The ``--help`` text of ``command`` (None: the top level), in
    argparse's layout at 80 columns: the help column is two past the
    longest invocation, at most 24."""
    positionals, optionals, _, _ = _arguments(command)
    column = min(max(indent + len(invocation)
                     for indent, invocation, _ in positionals + optionals) + 2, 24)

    def rows(title, entries):
        lines = [title]
        for indent, invocation, help_ in entries:
            head = " " * indent + invocation
            if help_ is None:
                lines.append(head)
            else:
                first, *rest = help_.split()
                lines += _wrap([f"{head:<{column}}{first}", *rest], " " * column)
        return "\n".join(lines)

    blocks = [_usage(command)]
    if command is None and __doc__:  # the summary and the exit codes
        blocks.append("\n".join(_wrap(" ".join(__doc__.split("\n\n")[:2]).split())))
    if positionals:
        blocks.append(rows("positional arguments:", positionals))
    blocks.append(rows("options:", optionals))
    return "\n\n".join(blocks) + "\n"


def _quote(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    raise TypeError(f"the string {s!r} is not written as JSON")


def _dumps(x) -> str:
    """``json.dumps(x, sort_keys=True)``, byte for byte, for a document of
    dicts with str keys, lists, ints, bools and strings of printable ASCII
    without ``"`` or ``\\``, which json writes verbatim: all the CLI
    writes.  Anything else is a TypeError, e.g. None, a float, a tuple, a
    non-str key or a string that json would escape."""
    t = type(x)
    if t is list:
        if list(map(type, x)).count(int) == len(x):
            return str(x)  # exact ints only, never bools: the same bytes
        return f"[{', '.join(map(_dumps, x))}]"
    if t is dict:
        for k in x:
            if type(k) is not str:
                raise TypeError(f"JSON object key {k!r} is not a str")
        return "{" + ", ".join(f"{_quote(k)}: {_dumps(x[k])}"
                               for k in sorted(x)) + "}"
    if t is str:
        return _quote(x)
    if t is int:
        return str(x)
    if t is bool:
        return "true" if x else "false"
    raise TypeError(f"a {t.__name__} is not written as JSON")


def _cmd_sork(args) -> int:
    from .roots import RootSystemType, build_root_system
    from .sork import assert_valid, sork_exact

    t = RootSystemType.parse(args.type)
    phi = build_root_system(t)
    cert = sork_exact(phi)
    assert_valid(cert, phi)
    if args.json:
        print(_dumps(cert.to_json_dict() if args.certificate
                     else {"system_type": str(t), "n": len(cert.roots)}))
    else:
        print(f"sork({t}) = {len(cert.roots)}")
        if args.certificate:
            print(_dumps(cert.to_json_dict()))
    return EXIT_OK


def _cmd_nu(args) -> int:
    from .groups import nu_walk, parse_group_expr

    value, exact, results = nu_walk(parse_group_expr(args.expr))
    factors = []
    for d, res in results:
        entry = {"descriptor": str(d), "nu": res.nu, "case": res.case}
        if args.certificate:
            entry["certificate"] = res.certificate.to_json_dict()
        factors.append(entry)
    if args.json:
        print(_dumps({"nu": value, "exact": exact, "factors": factors}))
    else:
        if exact:
            print(f"nu = {value}")
        else:
            print(f"nu <= {value} (upper bound)")
        if args.certificate:
            for entry in factors:
                print(_dumps(entry))
    return EXIT_OK


def _cmd_certify(args) -> int:
    from .check import check_document

    # stdin is file descriptor 0, read as a file is: the same bytes get the
    # same verdict, whatever the locale or PYTHONIOENCODING says
    with open(0 if args.path == "-" else args.path, encoding="utf-8",
              closefd=args.path != "-") as fh:
        raw = fh.read(MAX_DOCUMENT_CHARS + 1)
    if len(raw) > MAX_DOCUMENT_CHARS:
        raise CertificateError("certificate document is longer than "
                               f"{MAX_DOCUMENT_CHARS} characters")
    _check_json_size(raw)
    cert, check = check_document(_loads(raw))
    if check:
        print(f"valid certificate: {len(cert.roots)} strongly orthogonal "
              f"roots in {cert.system_type}")
        return EXIT_OK
    print(f"invalid certificate: {check.reason}")
    return EXIT_AUDIT_FAIL


def _check_json_size(raw: str) -> None:
    """Refuse, before parsing, a JSON text whose brackets nest deeper than
    ``MAX_JSON_NESTING`` or that has a run of more than ``MAX_DIGITS``
    digits, both counted outside strings.  The digit limit matches the
    option values and bounds the conversion of each number, whose time is
    quadratic in its digits.  The check takes time linear in the length of
    the text, whatever the text: an unterminated string is the rest of
    it."""
    depth = 0
    inside = False  # whether this part of the text lies in a string
    for part in raw.split('"'):
        if inside:
            # An odd run of backslashes at its end escapes the next quote.
            inside = (len(part) - len(part.rstrip("\\"))) % 2 == 1
            continue
        inside = True
        run = 0
        for c in part:
            if c in "0123456789":
                run += 1
                if run > MAX_DIGITS:
                    raise CertificateError("certificate document has a number "
                                           f"of more than {MAX_DIGITS} digits")
                continue
            run = 0
            if c in "[{":
                depth += 1
                if depth > MAX_JSON_NESTING:
                    raise CertificateError("certificate document nests deeper "
                                           f"than {MAX_JSON_NESTING} levels")
            elif c in "]}":
                depth -= 1


_JSON_SPACE = " \t\n\r"


def _loads(raw: str):
    """``json.loads(raw)``, without importing ``json`` when ``raw`` is a
    JSON document, refusing a key repeated in any object.  It runs json's C
    scanner with ``JSONDecoder``'s default context but for that refusal,
    skipping JSON whitespace on both sides as ``JSONDecoder.decode`` does.
    Any other text, a leading BOM included, and every text where ``_json``
    is missing go to ``json.loads`` with the same refusal, which raises
    json's own error."""
    try:
        from _json import make_scanner
    except ImportError:
        make_scanner = None
    if make_scanner is not None:
        constants = {"NaN": float("nan"), "Infinity": float("inf"),
                     "-Infinity": float("-inf")}
        scan = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, object_pairs_hook=_unique_keys,
            parse_float=float, parse_int=int, parse_constant=constants.__getitem__))
        try:
            doc, end = scan(raw, len(raw) - len(raw.lstrip(_JSON_SPACE)))
        except Exception:
            # json.loads below raises json's error, or refuses the repeated
            # key again.  Python 3.11's scanner raises a SystemError instead
            # for a bad string while json.decoder is not loaded.
            pass
        else:
            if not raw[end:].lstrip(_JSON_SPACE):
                return doc
    import json

    return json.loads(raw, object_pairs_hook=_unique_keys)


def _unique_keys(pairs: list) -> dict:
    """The object of the key-value ``pairs`` of a JSON object, refused if a
    key repeats: a reader that keeps the first and one that keeps the last
    would read two documents (RFC 8259, section 4)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise CertificateError(f"certificate document repeats the key {key!r}")
        doc[key] = value
    return doc


def _print_report(name: str, report, as_json: bool) -> bool:
    if as_json:
        print(_dumps({"audit": name, "ok": report.ok,
                      "entries": report.to_json_list()}))
    else:
        for e in report.entries:
            status = "PASS" if e.passed else "FAIL"
            print(f"[{name}] {status} {e.row_id}: {e.claim} "
                  f"(recomputed={e.recomputed}, encoded={e.encoded})")
        print(f"[{name}] {'all rows pass' if report.ok else 'FAILURES PRESENT'}")
    return report.ok


def _cmd_verify_tables(args) -> int:
    from . import tables

    ok = True
    ok &= _print_report("table1", tables.table1_audit(), args.json)
    ok &= _print_report("table2", tables.table2_audit(args.rank_cap), args.json)
    ok &= _print_report("table3", tables.table3_audit(args.rank_cap), args.json)
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def _cmd_verify_kronecker(args) -> int:
    from . import matrixcheck

    # what each of the three names proves: see the matrixcheck docstring
    pairs = [(s, t) for s in range(2, args.max_size + 1)
             for t in range(2, args.max_size + 1)]
    proved = {pair: matrixcheck.bracket_split_basis_proof(*pair) for pair in pairs}
    results = {
        "random_bracket_trials": all(proved.values()),
        "symbolic_2x2": proved[2, 2],
        "trivial_intersection": all(
            matrixcheck.trivial_intersection_check(*pair) for pair in pairs),
    }
    ok = all(results.values())
    if args.json:
        print(_dumps({"ok": ok, "checks": results}))
    else:
        for name, passed in results.items():
            print(f"{'PASS' if passed else 'FAIL'} {name}")
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def _cmd_dump_roots(args) -> int:
    from .roots import RootSystemType, build_root_system

    t = RootSystemType.parse(args.type)
    phi = build_root_system(t)
    print(_dumps(phi.to_json_dict()))
    return EXIT_OK


# The grammar.  Per subcommand: its help, its positional (name, help) or
# None, its bounded int options (flag, low, high, default, help), its
# boolean flags (flag, help) and its handler, called with the parsed
# namespace.  Help and usage show them in this order.
_GRAMMAR = {
    "sork": ("strong orthogonal rank of a root system",
             ("type", "root system type, e.g. E8 or B7"), (),
             (("--certificate", "also emit the witnessing certificate as JSON"),
              ("--json", None)), _cmd_sork),
    "nu": ("free subgroup rank of a group expression",
           ("expr", 'group expression, e.g. "SL(2,R) x SU(2)^3"'), (),
           (("--certificate", "include per-factor certificates in JSON output"),
            ("--json", None)), _cmd_nu),
    "certify": ("verify a certificate JSON document",
                ("path", "path to a certificate file, or - for stdin"), (), (),
                _cmd_certify),
    "verify-tables": ("audit the subalgebra tables", None,
                      (_int_option("--rank-cap", 4, MAX_RANK_CAP, 24,
                                   "largest rank audited"),),
                      (("--json", None),), _cmd_verify_tables),
    "verify-kronecker": ("verify the Kronecker bracket identity", None,
                         (_int_option("--max-size", 2, MAX_KRONECKER_SIZE, 4,
                                      "largest matrix size"),),
                         (("--json", None),), _cmd_verify_kronecker),
    "dump-roots": ("dump a root system as JSON",
                   ("type", "root system type, e.g. F4"), (), (), _cmd_dump_roots),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if sys.stdout is None:  # closed at start: print would drop the answer
        _complain("error: stdout is closed")
        return EXIT_ERROR
    try:
        args = _parse(argv)  # an int: help shown or a usage error reported
        code = args if type(args) is int else _GRAMMAR[args.command][-1](args)
        sys.stdout.flush()  # a failed write of the answer fails here at the latest
        return code
    except (SorklieError, OSError, ValueError) as err:
        _complain(f"error: {err}")
        return EXIT_ERROR


def _complain(text: str) -> None:
    """Write the line ``text`` to stderr, the one writer of stderr.  With
    stderr closed or failing, nothing is written and the exit code alone
    reports the error.  A failing stderr is dropped, so that no later flush,
    teardown's under a profiler or tracer included, meets the failed line
    still in its buffer and exits 120."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text + "\n")
            sys.stderr.flush()
        except OSError:
            sys.stderr = None


def run() -> None:
    """Run ``main()`` as the whole process and exit with its code; see the
    module docstring."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, tools 0 to 5
    if (sys.getprofile() or sys.gettrace() or sys.flags.inspect or monitoring
            and any(map(monitoring.get_tool, range(6)))):
        raise SystemExit(code)  # the tool ends the process
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass  # main() reported it, or the exit code alone does
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
