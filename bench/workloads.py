"""The benchmark's three workloads: the CLI ops each one runs and the check
each op's output must pass.

Every expected value comes from the committed files under ``data/``, never
from the sorklie package:

- ``sork_table.json``: the strong orthogonal rank of every ladder type, by
  family (Agaoka & Kaneda, "Strongly orthogonal subsets in root systems",
  Hokkaido Math. J. 31 (2002)).
- ``certificates/<T>.json``: the stdout of ``sork T --json --certificate``
  at the seed commit. The canonical certificate must stay byte-identical,
  and the same files serve as the valid documents for ``certify``.
- ``nu_pool.json``: nu expressions and real-form descriptors with
  hand-written values (nu of a simple real form is the strong orthogonal
  rank of its complexification, one less for so(p,q) with p, q odd and
  p+q divisible by four).
- ``certify/`` and ``certify_cases.json``: malformed certificate documents
  with the exit code each should give, and for known defects the behaviour
  the seed shows instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
# The CLI runs from the checkout root, so document paths are given from there.
DATA_ARG = f"{BENCH.name}/{DATA.name}"

OK = "ok"
KNOWN_DEFECT = "known_defect"  # any other verdict is the reason the op failed

TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Result:
    exit: int
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # arguments after ``python -m sorklie.cli``
    check: Callable[[Result], str]


def _load(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_ok(res: Result, code: int) -> str:
    if TRACEBACK in res.stderr:
        return "Python traceback on stderr"
    if res.exit != code:
        return f"exit code {res.exit}, expected {code}"
    return OK


# --- sork_ladder -------------------------------------------------------------


def _check_sork(label: str, n: int, pin: bytes) -> Callable[[Result], str]:
    def check(res: Result) -> str:
        verdict = _exit_ok(res, 0)
        if verdict != OK:
            return verdict
        try:
            doc = json.loads(res.stdout)
            got = doc["n"], len(doc["roots"]), doc["system_type"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a sork certificate document"
        if got != (n, n, label):
            return f"got (n, roots, type) = {got}, expected {(n, n, label)}"
        if res.stdout != pin:
            return "certificate is not byte-identical to the pin"
        return OK
    return check


def sork_ladder(seed: int) -> list[Op]:
    """``sork T --json --certificate`` for A1-A13, B2-B12, C2-C13, D4-D12,
    E6-E8, F4 and G2. The seed only shuffles the order."""
    ops = []
    for label, n in _load("sork_table.json").items():
        pin = (DATA / "certificates" / f"{label}.json").read_bytes()
        ops.append(Op(("sork", label, "--json", "--certificate"),
                      _check_sork(label, n, pin)))
    return ops


# --- nu_corpus ---------------------------------------------------------------


def _factor(entry) -> dict:
    if isinstance(entry, list):  # core entries: [descriptor, nu, case]
        entry = dict(zip(("descriptor", "nu", "case"), entry))
    return {"case": entry["case"], "descriptor": entry["descriptor"],
            "nu": entry["nu"]}


def _check_nu(nu: int, exact: bool, factors: list) -> Callable[[Result], str]:
    want = json.dumps({"exact": exact, "factors": [_factor(f) for f in factors],
                       "nu": nu}, sort_keys=True).encode() + b"\n"

    def check(res: Result) -> str:
        verdict = _exit_ok(res, 0)
        if verdict != OK:
            return verdict
        if res.stdout != want:
            return f"stdout {res.stdout[:200]!r}, expected {want[:200]!r}"
        return OK
    return check


# The benchmark's own rules for the drawn expressions: direct products add,
# a free product of two nontrivial groups (not both of order two) gives
# max(1, left, right), an extension by a solvable kernel gives the quotient
# (a general one only as an upper bound), and finite index changes nothing.
# Each template maps (a, b, k) to (nu, exact, simple factors in order).
_TEMPLATES = (
    ("{a}", lambda a, b, k: (a["nu"], True, [a])),
    ("{a} x {b}", lambda a, b, k: (a["nu"] + b["nu"], True, [a, b])),
    ("{b}^{k} x {a}", lambda a, b, k: (k * b["nu"] + a["nu"], True, [b] * k + [a])),
    ("{a} * {b}", lambda a, b, k: (max(1, a["nu"], b["nu"]), True, [a, b])),
    ("({a} x Z/{k}) * {b}", lambda a, b, k: (max(1, a["nu"], b["nu"]), True, [a, b])),
    ("{a} * Z/2", lambda a, b, k: (max(1, a["nu"]), True, [a])),
    ("{a} x R^{k} x Z", lambda a, b, k: (a["nu"], True, [a])),
    ("ext(R^{k}, {a}, split)", lambda a, b, k: (a["nu"], True, [a])),
    ("ext(Z, {a}, central)", lambda a, b, k: (a["nu"], True, [a])),
    ("ext(solvable, {a}, general)", lambda a, b, k: (a["nu"], False, [a])),
    ("fi({a})", lambda a, b, k: (a["nu"], True, [a])),
)


def nu_corpus(seed: int) -> list[Op]:
    """``nu EXPR --json`` over a fixed core plus one drawn expression per
    complexification type of the draw list.

    Each drawn expression pairs a random real form of its type with a
    random template and a cheap rank <= 3 factor. Every process computes
    the same set of heavy types whatever the seed, so the seed changes the
    inputs but not the amount of search.
    """
    pool = _load("nu_pool.json")
    ops = [Op(("nu", c["expr"], "--json"), _check_nu(c["nu"], c["exact"], c["factors"]))
           for c in pool["core"]]
    rng = random.Random(seed)
    for forms in pool["draw"].values():
        text, rule = rng.choice(_TEMPLATES)
        a, b, k = rng.choice(forms), rng.choice(pool["light"]), rng.randint(2, 4)
        expr = text.format(a=a["text"], b=b["text"], k=k)
        ops.append(Op(("nu", expr, "--json"), _check_nu(*rule(a, b, k))))
    return ops


# --- audit -------------------------------------------------------------------

# Root count and ambient dimension of the dumped types (doubled coordinates).
_DUMPED = {"A12": (156, 13), "B12": (288, 12), "C12": (288, 12),
           "D12": (264, 12), "E8": (240, 8), "F4": (48, 4), "G2": (12, 3)}

_KRONECKER_STDOUT = (b"PASS random_bracket_trials\nPASS symbolic_2x2\n"
                     b"PASS trivial_intersection\n")


def _check_tables(res: Result) -> str:
    verdict = _exit_ok(res, 0)
    if verdict != OK:
        return verdict
    lines = res.stdout.decode("utf-8", "replace").splitlines()
    if any(not (line.startswith("[table") and "] PASS " in line
                or line.endswith("] all rows pass")) for line in lines):
        return "a table row does not pass"
    if [line for line in lines if line.endswith("all rows pass")] != [
            f"[table{i}] all rows pass" for i in (1, 2, 3)]:
        return "missing a table summary line"
    return OK


def _check_kronecker(res: Result) -> str:
    verdict = _exit_ok(res, 0)
    if verdict == OK and res.stdout != _KRONECKER_STDOUT:
        return f"stdout {res.stdout!r}"
    return verdict


def _check_dump(label: str) -> Callable[[Result], str]:
    count, dim = _DUMPED[label]

    def check(res: Result) -> str:
        verdict = _exit_ok(res, 0)
        if verdict != OK:
            return verdict
        try:
            doc = json.loads(res.stdout)
            rows = [tuple(r) for r in doc["doubled_coords"]]
            head = doc["type"], doc["ambient_dim"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a root system document"
        if head != (label, dim) or len(rows) != count:
            return f"got {head} with {len(rows)} roots, expected {(label, dim)} with {count}"
        if rows != sorted(set(rows)) or any(len(r) != dim for r in rows):
            return "roots are not distinct, sorted and of the ambient dimension"
        if {tuple(-c for c in r) for r in rows} != set(rows):
            return "roots are not closed under negation"
        return OK
    return check


def _check_valid_certificate(label: str, n: int) -> Callable[[Result], str]:
    want = f"valid certificate: {n} strongly orthogonal roots in {label}\n".encode()

    def check(res: Result) -> str:
        verdict = _exit_ok(res, 0)
        if verdict == OK and res.stdout != want:
            return f"stdout {res.stdout!r}, expected {want!r}"
        return verdict
    return check


def _matches(res: Result, code: int, stdout: str | None) -> bool:
    if _exit_ok(res, code) != OK:
        return False
    if stdout is not None:
        return res.stdout == stdout.encode()
    # exit 1 is a typed error: a message on stderr and nothing on stdout
    return code != 1 or (res.stdout == b"" and res.stderr.startswith(b"error: "))


def _shows_defect(res: Result, defect: dict | None) -> bool:
    if defect is None or res.exit != defect["exit"]:
        return False
    if "traceback" in defect:
        return TRACEBACK in res.stderr and defect["traceback"].encode() in res.stderr
    return res.stdout == defect["stdout"].encode()


def _check_malformed(case: dict) -> Callable[[Result], str]:
    def check(res: Result) -> str:
        if _matches(res, case["exit"], case.get("stdout")):
            return OK
        if _shows_defect(res, case.get("defect")):
            return KNOWN_DEFECT
        return (f"exit code {res.exit}, stdout {res.stdout[:120]!r}, "
                f"stderr {res.stderr[-200:]!r}")
    return check


def audit(seed: int) -> list[Op]:
    """Table audits, the Kronecker check, root dumps, and ``certify`` on the
    pinned certificates of rank <= 12 plus the malformed documents. No op
    runs a clique search. The seed only shuffles the order."""
    ops = [Op(("verify-tables", "--rank-cap", "24"), _check_tables),
           Op(("verify-kronecker",), _check_kronecker)]
    ops += [Op(("dump-roots", label), _check_dump(label)) for label in _DUMPED]
    for label, n in _load("sork_table.json").items():
        if int(label[1:]) <= 12:
            ops.append(Op(("certify", f"{DATA_ARG}/certificates/{label}.json"),
                          _check_valid_certificate(label, n)))
    for name, case in _load("certify_cases.json").items():
        ops.append(Op(("certify", f"{DATA_ARG}/certify/{name}"), _check_malformed(case)))
    return ops


WORKLOADS = {"sork_ladder": sork_ladder, "nu_corpus": nu_corpus, "audit": audit}
