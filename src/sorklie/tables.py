"""Dynkin subalgebra tables encoded as data, with mechanical audits.

The encoded m and n columns are never trusted: each audit recomputes them
from the strong orthogonal rank formula and compares, then checks m >= n
for every row instance.
"""

from __future__ import annotations

from collections.abc import Iterable

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
        report.add_check(ambient_label, "m >= n", (m, n), "m >= n", m >= n)
    return report


def table2_audit(rank_cap: int = 24) -> AuditReport:
    """Enumerate every category III row instance with ambient rank <= rank_cap.

    Checks, per instance: the m column equals the ambient sork, the encoded
    n column (where the table gives one) equals the sum of factor sorks,
    and m >= n.  Families with no instance below the cap are flagged as
    informational entries, never as failures.
    """
    if rank_cap < 4:
        raise ValueError("rank_cap must be at least 4")
    report = AuditReport()

    def instance(row_id: str, ambient: RootSystemType,
                 factors: list[RootSystemType]) -> None:
        m = sork_formula(ambient)
        n = _sork_sum(factors)
        report.add_check(row_id, "m >= n", (m, n), "m >= n", m >= n)

    counts: dict[str, int] = {}

    def bump(family: str) -> None:
        counts[family] = counts.get(family, 0) + 1

    # A_r: A_{s-1} x A_{t-1}, 2 <= s <= t, st = r + 1
    for r in range(1, rank_cap + 1):
        ambient = RootSystemType("A", r)
        m = sork_formula(ambient)
        report.add(f"A{r}", "m column", m, (r + 1) // 2)
        for s in range(2, r + 2):
            if (r + 1) % s:
                continue
            t = (r + 1) // s
            if t < s:
                continue
            bump("A: A(s-1) x A(t-1)")
            row = f"A{r}: A{s - 1} x A{t - 1} (s={s}, t={t})"
            factors = [RootSystemType("A", s - 1), RootSystemType("A", t - 1)]
            n_table = s // 2 + t // 2
            report.add(row, "n column", _sork_sum(factors), n_table)
            report.add_check(row, "m >= n", (m, _sork_sum(factors)), "m >= n",
                             m >= _sork_sum(factors))

    # B_r: B_s x B_t, 1 <= s <= t, (2s+1)(2t+1) = 2r+1
    for r in range(2, rank_cap + 1):
        ambient = RootSystemType("B", r)
        m = sork_formula(ambient)
        report.add(f"B{r}", "m column", m, r)
        found = False
        for s in range(1, r + 1):
            if (2 * r + 1) % (2 * s + 1):
                continue
            tt = (2 * r + 1) // (2 * s + 1)
            if tt % 2 == 0 or tt < 2 * s + 1:
                continue
            t = (tt - 1) // 2
            found = True
            bump("B: B_s x B_t")
            row = f"B{r}: B{s} x B{t}"
            factors = [RootSystemType("B", s), RootSystemType("B", t)]
            report.add(row, "n column", _sork_sum(factors), s + t)
            report.add_check(row, "m >= n", (m, s + t), "m >= n", m >= s + t)
        if _is_prime(2 * r + 1):
            report.add_check(f"B{r}", "no row when 2r+1 prime", found, False,
                             not found)

    # C_r rows
    for r in range(2, rank_cap + 1):
        ambient = RootSystemType("C", r)
        m = sork_formula(ambient)
        report.add(f"C{r}", "m column", m, r)
        for s in range(1, r + 1):
            # C_s x B_t with s(2t+1) = r, t >= 1
            if r % s == 0:
                q = r // s
                if q % 2 == 1 and q >= 3:
                    t = (q - 1) // 2
                    bump("C: C_s x B_t")
                    row = f"C{r}: C{s} x B{t}"
                    factors = [RootSystemType("C", s), RootSystemType("B", t)]
                    report.add(row, "n column", _sork_sum(factors), s + t)
                    report.add_check(row, "m >= n", (m, s + t), "m >= n",
                                     m >= s + t)
            # C_s x D_t with 2st = r, t >= 3
            if r % (2 * s) == 0:
                t = r // (2 * s)
                if t >= 3:
                    bump("C: C_s x D_t")
                    instance(f"C{r}: C{s} x D{t}", ambient,
                             [RootSystemType("C", s), RootSystemType("D", t)])
        if r == 4:
            bump("C: C1 x D2")
            row = "C4: C1 x D2"
            factors = [RootSystemType("C", 1), RootSystemType("D", 2)]
            report.add(row, "n column", _sork_sum(factors), 3)
            report.add(row, "m column", m, 4)
            report.add_check(row, "m >= n", (m, 3), "m >= n", m >= 3)

    # D_r rows (D2 included: the equality case noted alongside A3)
    for r in range(2, rank_cap + 1):
        ambient = RootSystemType("D", r)
        m = sork_formula(ambient)
        report.add(f"D{r}", "m column", m, r if r % 2 == 0 else r - 1)
        # C_s x C_t, 1 <= s <= t, 2st = r
        for s in range(1, r + 1):
            if r % (2 * s):
                continue
            t = r // (2 * s)
            if t < s:
                continue
            bump("D: C_s x C_t")
            instance(f"D{r}: C{s} x C{t}", ambient,
                     [RootSystemType("C", s), RootSystemType("C", t)])
        # B_s x D_t, 1 <= s < t, (2s+1)t = r, t != 2
        for s in range(1, r + 1):
            if r % (2 * s + 1):
                continue
            t = r // (2 * s + 1)
            if t <= s or t == 2 or t < 2:
                continue
            bump("D: B_s x D_t")
            instance(f"D{r}: B{s} x D{t}", ambient,
                     [RootSystemType("B", s), RootSystemType("D", t)])
        # D_s x B_t, 2 < s < t + 1, s(2t+1) = r
        for s in range(3, r + 1):
            if r % s:
                continue
            q = r // s
            if q % 2 == 0 or q < 3:
                continue
            t = (q - 1) // 2
            if not (s < t + 1):
                continue
            bump("D: D_s x B_t")
            instance(f"D{r}: D{s} x B{t}", ambient,
                     [RootSystemType("D", s), RootSystemType("B", t)])
        # D_s x D_t, 2 < s <= t, 2st = r
        for s in range(3, r + 1):
            if r % (2 * s):
                continue
            t = r // (2 * s)
            if t < s:
                continue
            bump("D: D_s x D_t")
            instance(f"D{r}: D{s} x D{t}", ambient,
                     [RootSystemType("D", s), RootSystemType("D", t)])

    for family, count in sorted(counts.items()):
        report.add_check(f"[family] {family}", "instances found", count,
                         "(informational)", True)
    for family in ("A: A(s-1) x A(t-1)", "B: B_s x B_t", "C: C_s x B_t",
                   "C: C_s x D_t", "D: C_s x C_t", "D: B_s x D_t",
                   "D: D_s x B_t", "D: D_s x D_t"):
        if family not in counts:
            report.add_check(f"[family] {family}", "instances found", 0,
                             "(flagged: empty below cap)", True)
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
        m_sl = k0 // 2
        k_sp = k0 if k0 % 2 == 0 else k0 + 1
        m_sp = k_sp // 2
        m_so = _so_ambient_m(k0)
        report.add_check(row_id, f"sl ambient: m(k={k0}) >= n", (m_sl, n),
                         "m >= n", m_sl >= n)
        report.add_check(row_id, f"sp ambient: m(k={k_sp}) >= n", (m_sp, n),
                         "m >= n", m_sp >= n)
        report.add_check(row_id, f"so ambient: m(k={k0}) >= n", (m_so, n),
                         "m >= n", m_so >= n)

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
        n = r - 1
        m = sork_formula(RootSystemType("D", r))
        report.add_check(f"so{2 * r - 1} in so{2 * r}", "m >= n = r-1",
                         (m, n), "m >= n", m >= n)
    return report


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
