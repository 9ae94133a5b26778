"""Dynkin subalgebra tables encoded as data, with mechanical audits.

The defining dimension of a classical family is its matrix size in the
family table of ``roots``, where sp_k is k x k; Table 3 reads it as the
minimal faithful dimension.  Every category III row a_s x b_t of Table 2
is a tensor product whose defining dimensions multiply to the ambient's
(Dynkin, "Maximal subgroups of the classical groups", 1952), so the rows
of X_r are read off the divisors d of dim(X_r) such that d and dim(X_r) / d
are the dimensions of simple a_s and b_t.  One row is listed by hand,
C4: C1 x D2, whose so(4) is not simple.

The encoded m and n columns are never trusted: each audit recomputes them
from ``sork_formula`` and compares: a closed formula for A, B, C and D, the
exact search for E, F and G, on at most 240 roots, once per type per
process.  One row rule then holds for every row instance of every table:
m >= n, checked by ``AuditReport.add_bound`` with the recomputed m and n,
never the encoded ones.
"""

from .roots import RootSystemType, Value, all_types, matrix_rank, matrix_size, matrix_type
from .sork import sork_formula


class AuditEntry(Value):
    __slots__ = ("row_id", "claim", "recomputed", "encoded", "passed")
    row_id: str
    claim: str
    recomputed: object
    encoded: object
    passed: bool


class AuditReport(Value):
    """The entries of one audit, appended as its rows are checked."""

    __slots__ = ("entries",)
    __hash__ = None  # the entries list grows
    entries: list[AuditEntry]

    def __init__(self, entries: list[AuditEntry] | None = None):
        super().__init__([] if entries is None else entries)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, row_id: str, claim: str, recomputed, encoded) -> None:
        self.entries.append(
            AuditEntry(row_id, claim, recomputed, encoded, recomputed == encoded)
        )

    def add_check(self, row_id: str, claim: str, recomputed, encoded, passed: bool) -> None:
        self.entries.append(AuditEntry(row_id, claim, recomputed, encoded, passed))

    def add_bound(self, row_id: str, claim: str, m: int, n: int) -> None:
        """The row rule: the ambient's m is at least the subalgebra's n."""
        self.add_check(row_id, claim, (m, n), "m >= n", m >= n)

    def to_json_list(self) -> list[dict]:
        return [
            {
                "row": e.row_id,
                "claim": e.claim,
                "recomputed": str(e.recomputed),
                "encoded": str(e.encoded),
                "pass": e.passed,
            }
            for e in self.entries
        ]


def _t(label: str) -> RootSystemType:
    return RootSystemType.parse(label)


def _sork_sum(factors) -> int:
    """The sum of sork over the root system types ``factors``."""
    return sum(sork_formula(f) for f in factors)


# Maximal proper S-subalgebras of the exceptional algebras, with the encoded
# m and n columns.  Each subalgebra is a list of simple factors.
TABLE1: list[tuple[str, list[list[str]], int, int]] = [
    ("G2", [["A1"]], 2, 1),
    ("F4", [["A1"], ["G2", "A1"]], 4, 3),
    ("E6", [["A1"], ["G2"], ["C4"], ["G2", "A2"], ["F4"]], 4, 4),
    ("E7", [["A1"], ["A2"], ["G2", "C3"], ["F4", "A1"], ["G2", "A1"], ["A1", "A1"]], 7, 5),
    ("E8", [["A1"], ["G2", "F4"], ["A2", "A1"], ["B2"]], 8, 6),
]

# The first rank of each classical family that Table 3 reads: below it the
# type is another's (C1 = A1, B2 = C2, D3 = A3).
_TABLE3_FIRST = {"A": 1, "B": 3, "C": 2, "D": 4}
# Minimal faithful dimensions of the exceptional algebras.
MINDIM_EXCEPTIONAL = {"E6": 27, "E7": 56, "E8": 248, "F4": 26, "G2": 7}


def _rank(family: str, dim: int) -> int | None:
    """The rank of the simple algebra of ``family`` with defining dimension
    ``dim``, or None: its type exists and is not reducible (so(4) is D2)."""
    r = matrix_rank(family, dim)
    return r if r and not RootSystemType(family, r).is_reducible else None


def table1_audit() -> AuditReport:
    """Recompute the m and n columns of the exceptional table and check m >= n."""
    report = AuditReport()
    for ambient_label, subalgebras, m_enc, n_enc in TABLE1:
        ambient = _t(ambient_label)
        m = sork_formula(ambient)
        n = max(_sork_sum(_t(f) for f in sub) for sub in subalgebras)
        report.add(ambient_label, "m column", m, m_enc)
        report.add(ambient_label, "n column", n, n_enc)
        report.add_bound(ambient_label, "m >= n", m, n)
    return report


# The category III kinds of each ambient family, as (label, a, b, encoded n
# as a function of s and t, or None).  A kind's rows come smaller dimension
# first, except in sp x so < sp.  The kinds of one group are tried together
# at each divisor, group after group: the order the rows are listed in.
_TABLE2 = {
    "A": [[("A: A(s-1) x A(t-1)", "A", "A", lambda s, t: (s + 1) // 2 + (t + 1) // 2)]],
    "B": [[("B: B_s x B_t", "B", "B", lambda s, t: s + t)]],
    "C": [[("C: C_s x B_t", "C", "B", lambda s, t: s + t), ("C: C_s x D_t", "C", "D", None)]],
    "D": [[("D: C_s x C_t", "C", "C", None)], [("D: B_s x D_t", "B", "D", None)],
          [("D: D_s x B_t", "D", "B", None)], [("D: D_s x D_t", "D", "D", None)]],
}
_C1_D2 = "C: C1 x D2"  # the one row with a factor that is not simple
# The category III families, sorted: the order their counts are reported in.
_TABLE2_FAMILIES = sorted([kind[0] for groups in _TABLE2.values()
                           for group in groups for kind in group] + [_C1_D2])

# Ambient family -> encoded m column as a function of r, from the family's
# first rank in ``roots`` on; D2 is the equality case noted alongside A3.
_TABLE2_M = {"A": lambda r: (r + 1) // 2, "B": lambda r: r, "C": lambda r: r,
             "D": lambda r: r if r % 2 == 0 else r - 1}


def _table2_rows(family: str, r: int):
    """Yield (family label, row id, factors, encoded n or None) for ambient family_r."""
    dim = matrix_size(family, r)
    # dim(a_s): the divisors of dim, up to its square root where the smaller comes first
    divisors = [d for d in range(2, dim) if dim % d == 0 and (family == "C" or d * d <= dim)]
    for group in _TABLE2[family]:
        for a_dim in divisors:
            b_dim = dim // a_dim
            for label, a, b, n_encoded in group:
                s, t = _rank(a, a_dim), _rank(b, b_dim)
                if s and t:
                    # ids keep the table's labels: RootSystemType("B", 1) prints as A1
                    suffix = f" (s={a_dim}, t={b_dim})" if family == "A" else ""
                    yield (label, f"{family}{r}: {a}{s} x {b}{t}{suffix}",
                           (RootSystemType(a, s), RootSystemType(b, t)),
                           n_encoded and n_encoded(s, t))
    if family == "C" and r == 4:
        yield (_C1_D2, "C4: C1 x D2", (RootSystemType("C", 1), RootSystemType("D", 2)), 3)


def table2_audit(rank_cap: int = 24) -> AuditReport:
    """Enumerate every category III row instance with ambient rank <= rank_cap.

    Checks, per instance: the m column equals the ambient sork, the encoded
    n column (where the table gives one) equals the sum of factor sorks,
    and m >= n with that recomputed n.  Families with no instance below the
    cap are flagged as informational entries, never as failures.
    """
    if rank_cap < 4:
        raise ValueError("rank_cap must be at least 4")
    report = AuditReport()
    counts = dict.fromkeys(_TABLE2_FAMILIES, 0)
    for t in all_types(rank_cap):
        if t.family not in _TABLE2_M:
            continue
        family, r = t.family, t.rank
        m = sork_formula(t)
        report.add(str(t), "m column", m, _TABLE2_M[family](r))
        rows = list(_table2_rows(family, r))
        for label, row_id, factors, n_encoded in rows:
            counts[label] += 1
            n = _sork_sum(factors)
            if n_encoded is not None:
                report.add(row_id, "n column", n, n_encoded)
            if label == _C1_D2:  # the one row with its own m column
                report.add(row_id, "m column", m, 4)
            report.add_bound(row_id, "m >= n", m, n)
        if family == "B" and _is_prime(matrix_size(family, r)):
            report.add_check(str(t), "no row when 2r+1 prime", bool(rows), False, not rows)

    # families with instances first, then those flagged empty (a stable sort)
    for label in sorted(_TABLE2_FAMILIES, key=lambda f: not counts[f]):
        report.add_check(f"[family] {label}", "instances found", counts[label],
                         "(informational)" if counts[label]
                         else "(flagged: empty below cap)", True)
    return report


def table3_audit(rank_cap: int = 24) -> AuditReport:
    """Audit the minimal-dimension bounds against the three classical ambients.

    For each subalgebra type of minimal faithful dimension d, a proper
    embedding needs k > d when the type is classical (the d-dimensional
    representation is the standard one), and k >= d otherwise.  The audit
    checks m(k) >= sork at the smallest admissible k for ambient sl_k, sp_k
    (smallest admissible even k), and so_k, plus the special pair
    so_{2r-1} inside so_{2r}.
    """
    report = AuditReport()

    def check_type(row_id: str, t: RootSystemType, mindim: int, classical: bool) -> None:
        n = sork_formula(t)
        k = mindim + 1 if classical else mindim
        for name, size in (("sl", k), ("sp", k + k % 2), ("so", k)):
            report.add_bound(row_id, f"{name} ambient: m(k={size}) >= n",
                             sork_formula(matrix_type(name, size)), n)

    for fam, first_rank in _TABLE3_FIRST.items():
        for r in range(first_rank, rank_cap + 1):
            d = matrix_size(fam, r)
            check_type(f"{fam}{r} (min dim {d})", RootSystemType(fam, r), d, classical=True)
    for label, mindim in MINDIM_EXCEPTIONAL.items():
        check_type(f"{label} (min dim {mindim})", _t(label), mindim, classical=False)

    # Special pair so_{2r-1} in so_{2r}: n = r - 1, m = sork(so_{2r}).
    for r in range(3, rank_cap + 1):
        report.add_bound(f"so{2 * r - 1} in so{2 * r}", "m >= n = r-1",
                         sork_formula(matrix_type("so", 2 * r)), r - 1)
    return report


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
