import pytest

from sorklie import table1_audit, table2_audit, table3_audit
from sorklie.tables import TABLE1, _is_prime, _so_ambient_m


class TestTable1:
    def test_all_rows_pass(self):
        report = table1_audit()
        assert report.ok, [e.row_id for e in report.failures]

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
        assert report.ok, [e.row_id for e in report.failures]

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

    def test_every_family_represented_at_default_cap(self):
        ids = {e.row_id for e in table2_audit().entries}
        flagged = [i for i in ids if "flagged: empty below cap" in str(i)]
        for e in table2_audit().entries:
            assert "flagged" not in str(e.encoded) or e.passed
        assert not flagged  # every parameter family has an instance by rank 24


class TestTable3:
    def test_all_rows_pass(self):
        report = table3_audit()
        assert report.ok, [e.row_id for e in report.failures]

    def test_so_ambient_m(self):
        # m drops by one when k = 2 mod 4 (odd-rank D ambient)
        assert _so_ambient_m(8) == 4
        assert _so_ambient_m(10) == 4
        assert _so_ambient_m(12) == 6
        assert _so_ambient_m(7) == 3

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
