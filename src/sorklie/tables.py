"""Dynkin subalgebra tables encoded as data, with mechanical audits.

The encoded m and n columns are never trusted: each audit recomputes them
from the strong orthogonal rank formula and compares.  One row rule then
holds for every row instance of every table: m >= n, checked by
``AuditReport.add_bound`` with the recomputed m and n, never the encoded ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .roots import RootSystemType, Value, _set
from .sork import sork_formula


class AuditEntry(Value):
    __slots__ = ("row_id", "claim", "recomputed", "encoded", "passed")
    row_id: str
    claim: str
    recomputed: object
    encoded: object
    passed: bool

    def __init__(self, row_id: str, claim: str, recomputed: object,
                 encoded: object, passed: bool):
        _set(self, "row_id", row_id)
        _set(self, "claim", claim)
        _set(self, "recomputed", recomputed)
        _set(self, "encoded", encoded)
        _set(self, "passed", passed)


class AuditReport(Value):
    """The entries of one audit, appended as its rows are checked."""

    __slots__ = ("entries",)
    __hash__ = None  # the entries list grows
    entries: list[AuditEntry]

    def __init__(self, entries: list[AuditEntry] | None = None):
        _set(self, "entries", [] if entries is None else entries)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[AuditEntry]:
        return [e for e in self.entries if not e.passed]

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


def _sork_sum(factors: Iterable[RootSystemType]) -> int:
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

# Minimal dimensions of faithful representations, with rank restrictions.
# Classical entries are (formula in r, min rank); exceptional entries are flat.
MINDIM_CLASSICAL = {
    "A": (lambda r: r + 1, 1),
    "B": (lambda r: 2 * r + 1, 3),
    "C": (lambda r: 2 * r, 2),
    "D": (lambda r: 2 * r, 4),
}
MINDIM_EXCEPTIONAL = {"E6": 27, "E7": 56, "E8": 248, "F4": 26, "G2": 7}


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


# The category III families, sorted: the order their counts are reported in.
_TABLE2_FAMILIES = (
    "A: A(s-1) x A(t-1)", "B: B_s x B_t", "C: C1 x D2", "C: C_s x B_t",
    "C: C_s x D_t", "D: B_s x D_t", "D: C_s x C_t", "D: D_s x B_t",
    "D: D_s x D_t",
)
# named _<ambient>_<factors>
_A_AA, _B_BB, _C_C1D2, _C_CB, _C_CD, _D_BD, _D_CC, _D_DB, _D_DD = _TABLE2_FAMILIES

# Ambient family -> (smallest rank, encoded m column as a function of r).
# D2 is included: the equality case noted alongside A3.
_TABLE2_M = {
    "A": (1, lambda r: (r + 1) // 2),
    "B": (2, lambda r: r),
    "C": (2, lambda r: r),
    "D": (2, lambda r: r if r % 2 == 0 else r - 1),
}


def _table2_rows(family: str, r: int) -> Iterator[tuple]:
    """Yield (family label, row id, factors, encoded n or None) for ambient family_r."""

    def row(label, a, s, b, t, n_encoded, suffix=""):
        # ids keep the table's labels: RootSystemType("B", 1) prints as A1
        return (label, f"{family}{r}: {a}{s} x {b}{t}{suffix}",
                (RootSystemType(a, s), RootSystemType(b, t)), n_encoded)

    if family == "A":
        # A_{s-1} x A_{t-1}, 2 <= s <= t, st = r + 1
        for s in range(2, r + 2):
            t, rem = divmod(r + 1, s)
            if rem == 0 and t >= s:
                yield row(_A_AA, "A", s - 1, "A", t - 1, s // 2 + t // 2,
                          f" (s={s}, t={t})")
    elif family == "B":
        # B_s x B_t, 1 <= s <= t, (2s+1)(2t+1) = 2r+1
        for s in range(1, r + 1):
            q, rem = divmod(2 * r + 1, 2 * s + 1)
            t = (q - 1) // 2
            if rem == 0 and t >= s:
                yield row(_B_BB, "B", s, "B", t, s + t)
    elif family == "C":
        for s in range(1, r + 1):
            # C_s x B_t with s(2t+1) = r, t >= 1
            q, rem = divmod(r, s)
            t = (q - 1) // 2
            if rem == 0 and q % 2 == 1 and t >= 1:
                yield row(_C_CB, "C", s, "B", t, s + t)
            # C_s x D_t with 2st = r, t >= 3
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= 3:
                yield row(_C_CD, "C", s, "D", t, None)
        if r == 4:
            yield row(_C_C1D2, "C", 1, "D", 2, 3)
    else:
        # C_s x C_t, 1 <= s <= t, 2st = r
        for s in range(1, r + 1):
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= s:
                yield row(_D_CC, "C", s, "C", t, None)
        # B_s x D_t, 1 <= s < t, (2s+1)t = r, t != 2
        for s in range(1, r + 1):
            t, rem = divmod(r, 2 * s + 1)
            if rem == 0 and t > s and t != 2:
                yield row(_D_BD, "B", s, "D", t, None)
        # D_s x B_t, 2 < s <= t, s(2t+1) = r
        for s in range(3, r + 1):
            q, rem = divmod(r, s)
            t = (q - 1) // 2
            if rem == 0 and q % 2 == 1 and t >= s:
                yield row(_D_DB, "D", s, "B", t, None)
        # D_s x D_t, 2 < s <= t, 2st = r
        for s in range(3, r + 1):
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= s:
                yield row(_D_DD, "D", s, "D", t, None)


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
    for family, (first_rank, m_encoded) in _TABLE2_M.items():
        for r in range(first_rank, rank_cap + 1):
            m = sork_formula(RootSystemType(family, r))
            report.add(f"{family}{r}", "m column", m, m_encoded(r))
            rows = list(_table2_rows(family, r))
            for label, row_id, factors, n_encoded in rows:
                counts[label] += 1
                n = _sork_sum(factors)
                if n_encoded is not None:
                    report.add(row_id, "n column", n, n_encoded)
                if label == _C_C1D2:  # the one row with its own m column
                    report.add(row_id, "m column", m, 4)
                report.add_bound(row_id, "m >= n", m, n)
            if family == "B" and _is_prime(2 * r + 1):
                report.add_check(f"B{r}", "no row when 2r+1 prime", bool(rows),
                                 False, not rows)

    # families with instances first, then those flagged empty (a stable sort)
    for label in sorted(_TABLE2_FAMILIES, key=lambda f: not counts[f]):
        report.add_check(f"[family] {label}", "instances found", counts[label],
                         "(informational)" if counts[label]
                         else "(flagged: empty below cap)", True)
    return report


def _so_ambient_m(k: int) -> int:
    """Maximal regular (sl2)^m inside so_k."""
    return k // 2 - 1 if k % 4 == 2 else k // 2


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
        k0 = mindim + 1 if classical else mindim
        k_sp = k0 if k0 % 2 == 0 else k0 + 1
        for ambient, k, m in (("sl", k0, k0 // 2), ("sp", k_sp, k_sp // 2),
                              ("so", k0, _so_ambient_m(k0))):
            report.add_bound(row_id, f"{ambient} ambient: m(k={k}) >= n", m, n)

    for fam, (formula, min_rank) in MINDIM_CLASSICAL.items():
        for r in range(min_rank, rank_cap + 1):
            t = RootSystemType(fam, r)
            row = f"{fam}{r} (min dim {formula(r)})"
            check_type(row, t, formula(r), classical=True)
    for label, mindim in MINDIM_EXCEPTIONAL.items():
        t = _t(label)
        check_type(f"{label} (min dim {mindim})", t, mindim, classical=False)

    # Special pair so_{2r-1} in so_{2r}: n = r - 1, m = sork(D_r).
    for r in range(3, rank_cap + 1):
        report.add_bound(f"so{2 * r - 1} in so{2 * r}", "m >= n = r-1",
                         sork_formula(RootSystemType("D", r)), r - 1)
    return report


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
