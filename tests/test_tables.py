import contextlib
import hashlib
import io

import pytest
from oracle_utils import failures, matrix_algebra_is_simple, table2_rows

from sorklie import table1_audit, table2_audit, table3_audit, tables
from sorklie.cli import main
from sorklie.tables import TABLE1, _is_prime, _table2_rows


class TestTable1:
    def test_all_rows_pass(self):
        report = table1_audit()
        assert report.ok, [e.row_id for e in failures(report)]

    def test_covers_all_five_exceptional_algebras(self):
        assert [row[0] for row in TABLE1] == ["G2", "F4", "E6", "E7", "E8"]

    def test_entry_shape(self):
        report = table1_audit()
        # m column, n column, and m >= n per ambient algebra
        assert len(report.entries) == 3 * len(TABLE1)
        assert all(e.passed for e in report.entries)

    def test_json_serialization(self):
        rows = table1_audit().to_json_list()
        assert all(set(r) == {"row", "claim", "recomputed", "encoded", "pass"}
                   for r in rows)


class TestTable2:
    def test_all_rows_pass_default_cap(self):
        report = table2_audit()
        assert report.ok, [e.row_id for e in failures(report)]

    def test_all_rows_pass_small_cap(self):
        assert table2_audit(rank_cap=8).ok

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValueError):
            table2_audit(rank_cap=3)

    def test_no_row_restates_the_formula(self):
        # the s+t rule is sork_formula restated; only encoded data is audited
        claims = {e.claim for e in table2_audit(rank_cap=24).entries}
        assert "n column (s+t rule)" not in claims

    def test_known_rows_present(self):
        ids = {e.row_id for e in table2_audit(rank_cap=12).entries}
        assert "A5: A1 x A2 (s=2, t=3)" in ids
        assert "B4: B1 x B1" in ids
        assert "C4: C1 x D2" in ids
        assert "D6: C1 x C3" in ids

    def test_prime_b_rows_absent(self):
        # 2r+1 prime means no B_s x B_t factorization
        report = table2_audit(rank_cap=12)
        for e in report.entries:
            if "no row when 2r+1 prime" in e.claim:
                assert e.passed
        primes_checked = sum(
            1 for e in report.entries if "no row when 2r+1 prime" in e.claim
        )
        assert primes_checked == sum(1 for r in range(2, 13) if _is_prime(2 * r + 1))

    @staticmethod
    def _flagged(rank_cap):
        return [e.row_id for e in table2_audit(rank_cap).entries
                if e.encoded == "(flagged: empty below cap)"]

    def test_every_family_represented_at_default_cap(self):
        for e in table2_audit().entries:
            assert "flagged" not in str(e.encoded) or e.passed
        assert not self._flagged(24)  # every family has an instance by rank 24

    def test_families_empty_below_cap_are_flagged(self):
        # the first D_s x D_t row is D18, the first D_s x B_t row D21
        assert self._flagged(12) == ["[family] D: D_s x B_t",
                                     "[family] D: D_s x D_t"]

    def test_bound_uses_recomputed_n(self, monkeypatch):
        # B2 over-reported: B12: B2 x B2 recomputes n = 6 against the encoded
        # s + t = 4, and the m >= n entry must carry the recomputed 6
        real = tables.sork_formula
        monkeypatch.setattr(tables, "sork_formula",
                            lambda t: 3 if str(t) == "B2" else real(t))
        entries = {(e.row_id, e.claim): e for e in table2_audit(12).entries}
        n_column = entries["B12: B2 x B2", "n column"]
        assert (n_column.recomputed, n_column.encoded, n_column.passed) == \
            (6, 4, False)
        assert entries["B12: B2 x B2", "m >= n"].recomputed == (12, 6)


# sha256 of `verify-tables` stdout, taken before the table-2 audit became
# one row table: the audits' output is pinned byte for byte.
_VERIFY_TABLES_SHA256 = {
    ("4", False): "0a83bf27c3ea032e153b8f5855c6277535ad5dedc686a59810c805067a6f58f5",
    ("4", True): "e0e29531daeab2a3749d91c7d9323c6a7231728da87419240d8099c0353365c9",
    ("24", False): "572ed2309e5a7885e044423fe201cd64a1388dbe9ed0ac71432962b3ff80570a",
    ("24", True): "6ffec93960a10b52969ff792e4931f800ecf80d5ef1d73f31777a112f108f590",
    ("64", False): "1290e781a38865c686510b6692e7eedc31a9c590dfd26bfb809aba089024fe5c",
    ("64", True): "0531b785cf8c2041f0c986d54feec1672f190c1b6dcd921824a56f5cd93fcbc0",
}


# sha256 over `f"{code}\n{stdout}"` of `verify-tables` at every allowed
# cap, without and with --json in that order, taken before the Table 2 rows
# came from the defining dimensions.
_VERIFY_TABLES_ALL_CAPS_SHA256 = \
    "40ea7c20238f913f3f01d56bb9357cbed28b52d19a6412efa8edd173efc3ac0b"


def test_verify_tables_output_is_pinned_at_every_cap():
    h = hashlib.sha256()
    for cap in range(4, 65):
        for flags in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify-tables", "--rank-cap", str(cap), *flags])
            h.update(f"{code}\n{out.getvalue()}".encode())
    assert h.hexdigest() == _VERIFY_TABLES_ALL_CAPS_SHA256


@pytest.mark.parametrize("family", "ABCD")
def test_table2_rows_match_the_hand_solved_enumerator(family):
    for r in range(1, 201):
        assert list(_table2_rows(family, r)) == list(table2_rows(family, r)), r


@pytest.mark.parametrize("cap,as_json", sorted(_VERIFY_TABLES_SHA256))
def test_verify_tables_output_is_pinned(capsys, cap, as_json):
    argv = ["verify-tables", "--rank-cap", cap] + (["--json"] if as_json else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _VERIFY_TABLES_SHA256[cap, as_json]


class TestTable3:
    def test_all_rows_pass(self):
        report = table3_audit()
        assert report.ok, [e.row_id for e in failures(report)]

    def test_so_ambient_m(self):
        # m drops by one when k = 2 mod 4 (odd-rank D ambient); A_r has min
        # dim r + 1, so its so ambient is so_(r+2)
        m = {e.claim: e.recomputed[0] for e in table3_audit(24).entries
             if e.claim.startswith("so ambient")
             and e.row_id in ("A5 (min dim 6)", "A6 (min dim 7)",
                              "A8 (min dim 9)", "A10 (min dim 11)")}
        assert m == {"so ambient: m(k=7) >= n": 3, "so ambient: m(k=8) >= n": 4,
                     "so ambient: m(k=10) >= n": 4, "so ambient: m(k=12) >= n": 6}

    def test_special_pair_rows_present(self):
        ids = {e.row_id for e in table3_audit(rank_cap=10).entries}
        assert "so5 in so6" in ids
        assert "so19 in so20" in ids

    def test_exceptional_rows_present(self):
        ids = {e.row_id for e in table3_audit().entries}
        for label, dim in (("E6", 27), ("E7", 56), ("E8", 248),
                           ("F4", 26), ("G2", 7)):
            assert f"{label} (min dim {dim})" in ids


def test_is_prime():
    assert [n for n in range(2, 30) if _is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not _is_prime(1)
    assert not _is_prime(0)


def test_factor_rank_is_read_where_the_algebra_is_simple():
    # family -> (its algebra, the rank on n x n matrices), by hand
    by_hand = {"A": ("sl", lambda n: n - 1), "B": ("so", lambda n: (n - 1) // 2),
               "C": ("sp", lambda n: n // 2), "D": ("so", lambda n: n // 2)}
    parity = {"A": (0, 1), "B": (1,), "C": (0,), "D": (0,)}
    for family, (algebra, rank) in by_hand.items():
        for dim in range(-2, 131):
            simple = dim % 2 in parity[family] and matrix_algebra_is_simple(algebra, dim)
            assert tables._rank(family, dim) == (rank(dim) if simple else None), (family, dim)
