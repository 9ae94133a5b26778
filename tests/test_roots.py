import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    DimensionError,
    MembershipError,
    _simple_dim,
    bourbaki_base,
    inner_product,
    is_closed_subsystem,
    is_strongly_orthogonal,
    neg,
    simple_root_coefficients,
)

from sorklie import (
    InvalidType,
    RootSystemType,
    all_types,
    build_root_system,
)
from sorklie.roots import (
    MAX_BUILD_RANK,
    MAX_DIGITS,
    _MATRICES,
    matrix_rank,
    matrix_size,
    matrix_type,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D2", "D3", "D4", "G2", "F4"]
LARGE_RANKS = [RootSystemType(fam, r) for fam in "ABCD" for r in (32, 48, 64)]


def _t(label):
    return RootSystemType.parse(label)


class TestRootSystemType:
    def test_parse_and_str(self):
        assert str(_t("E8")) == "E8"
        assert _t("b3") == RootSystemType("B", 3)

    @pytest.mark.parametrize("label", ["E5", "E9", "F3", "F5", "G3", "A0", "D1", "B0"])
    def test_rank_bounds_rejected(self, label):
        with pytest.raises(InvalidType):
            _t(label)

    @pytest.mark.parametrize("family", ["H", "a", "", "AB"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(InvalidType, match="unknown family"):
            RootSystemType(family, 3)

    # int() reads '\u0663' (Arabic-Indic three) as 3 and refuses '\u00b2'
    # (superscript two) with a plain ValueError; only ASCII digits parse.
    @pytest.mark.parametrize("label", ["A\u00b2", "A\u0663", "B\uff11\uff12", "E\u0668"])
    def test_non_ascii_digits_rejected(self, label):
        with pytest.raises(InvalidType, match="cannot parse root system type"):
            _t(label)

    def test_rank_of_too_many_digits_rejected(self, int_digit_limit):
        with pytest.raises(InvalidType, match=f"rank has more than {MAX_DIGITS} digits"):
            _t("A" + "9" * (MAX_DIGITS + 1))
        assert _t("A" + "9" * MAX_DIGITS).rank == 10 ** MAX_DIGITS - 1

    def test_low_rank_normalization(self):
        # C1 and B1 are the same algebra as A1
        assert RootSystemType("C", 1) == RootSystemType("A", 1)
        assert RootSystemType("B", 1) == RootSystemType("A", 1)

    def test_flagged_d_types(self):
        assert RootSystemType("D", 2).is_reducible
        assert RootSystemType("D", 2).low_rank_alias == "A1 x A1"
        assert RootSystemType("D", 3).low_rank_alias == "A3"
        assert not RootSystemType("D", 4).is_reducible


# The dimension of each classical matrix algebra from its matrix size n.
_MATRIX_DIM = {"sl": lambda n: n * n - 1, "so": lambda n: n * (n - 1) // 2,
               "sp": lambda n: n * (n + 1) // 2}


class TestMatrixAlgebras:
    @pytest.mark.parametrize("family", "ABCD")
    def test_dimension_is_roots_plus_rank(self, family):
        # ties the family table to the root counts of construction, which
        # do not read it
        algebra, _, _ = _MATRICES[family]
        for t in all_types(64):
            if t.family == family:
                n = matrix_size(family, t.rank)
                dim = _MATRIX_DIM[algebra](n)
                assert dim == t.root_count() + t.rank == _simple_dim(family, t.rank), t
                assert matrix_rank(family, n) == t.rank
                assert matrix_type(algebra, n) == t

    def test_inverse_reads_labels_before_aliases(self):
        # so(3) and sp(2) are B1 and C1, both of type A1; so(4) is D2
        assert matrix_rank("B", 3) == matrix_rank("C", 2) == 1
        assert matrix_type("so", 3) == matrix_type("sp", 2) == RootSystemType("A", 1)
        assert matrix_type("so", 4) == RootSystemType("D", 2)
        # no rank where RootSystemType refuses the type: so(2) would be D1
        pairs = (("A", 1), ("B", 4), ("C", 3), ("D", 2), ("D", 0))
        assert [matrix_rank(f, n) for f, n in pairs] == [None] * 5
        for algebra, n in (("sl", 1), ("so", 2), ("sp", 3)):
            # the refusal names the algebra, not a type nobody wrote
            with pytest.raises(InvalidType, match=rf"^{algebra}\({n}\) has no root system type$"):
                matrix_type(algebra, n)


class TestConstruction:
    @pytest.mark.parametrize("t", list(all_types(12)), ids=str)
    def test_cardinality(self, t):
        phi = build_root_system(t)
        assert len(phi.roots) == t.root_count()

    @pytest.mark.parametrize("family", "ABCD")
    def test_rank_cap_is_constructible(self, family):
        t = RootSystemType(family, MAX_BUILD_RANK)
        assert len(build_root_system(t).roots) == t.root_count()

    @pytest.mark.parametrize("label", [
        f"A{MAX_BUILD_RANK + 1}", f"D{MAX_BUILD_RANK + 1}", "A99999999"])
    def test_rank_above_cap_refused(self, label):
        t = _t(label)  # any rank still parses; only construction is capped
        with pytest.raises(InvalidType):
            build_root_system(t)

    def test_g2_has_twelve_roots(self):
        assert len(build_root_system(_t("G2")).roots) == 12

    def test_a1_is_plus_minus_alpha(self):
        phi = build_root_system(_t("A1"))
        assert len(phi.roots) == 2
        (alpha,) = bourbaki_base(phi.type)
        assert set(phi.roots) == {alpha, neg(alpha)}

    @pytest.mark.parametrize("label", SMALL_TYPES + ["E6", "E7", "E8"])
    def test_closed_under_negation(self, label):
        phi = build_root_system(_t(label))
        for r in phi.roots:
            assert neg(r) in phi

    @pytest.mark.parametrize("label", SMALL_TYPES + ["E6", "E7", "E8"])
    def test_crystallographic(self, label):
        phi = build_root_system(_t(label))
        for a, b in itertools.product(phi.roots, repeat=2):
            num = 2 * inner_product(a, b)
            den = inner_product(b, b)
            assert (num / den).denominator == 1

    @pytest.mark.parametrize("label", SMALL_TYPES + ["B4", "C4", "D5", "D6", "E6", "E7", "E8"])
    def test_simple_root_decomposition_uniform_sign(self, label):
        phi = build_root_system(_t(label))
        for r in phi.roots:
            coeffs = simple_root_coefficients(r, phi)
            assert all(c.denominator == 1 for c in coeffs)
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)

    @pytest.mark.parametrize("t", list(all_types(24)) + LARGE_RANKS, ids=str)
    def test_positive_representatives_are_the_greater_of_each_pair(self, t):
        phi = build_root_system(t)
        reps = {max(r, neg(r)) for r in phi.roots}
        assert phi.positive_representatives() == tuple(sorted(reps))

    def test_deterministic(self):
        a = build_root_system(_t("F4"))
        b = build_root_system(_t("F4"))
        assert a.roots == b.roots

    def test_ambient_dims(self):
        assert build_root_system(_t("A3")).ambient_dim == 4
        assert build_root_system(_t("B5")).ambient_dim == 5
        assert build_root_system(_t("E6")).ambient_dim == 8
        assert build_root_system(_t("E7")).ambient_dim == 8
        assert build_root_system(_t("F4")).ambient_dim == 4
        assert build_root_system(_t("G2")).ambient_dim == 3

    def test_e_family_parity(self):
        # doubled E-coordinates are all even or all odd per root
        for label in ("E6", "E7", "E8"):
            phi = build_root_system(_t(label))
            for r in phi.roots:
                parities = {c % 2 for c in r}
                assert len(parities) == 1

    def test_e8_inner_product_values(self):
        phi = build_root_system(_t("E8"))
        values = {inner_product(a, b) for a, b in
                  itertools.combinations_with_replacement(phi.roots, 2)}
        # all roots have squared length 2 in this normalization
        assert values == {-2, -1, 0, 1, 2}
        assert values <= {0, 1, -1, 2, -2, 4, -4}

    @pytest.mark.parametrize("t", list(all_types(24)) + LARGE_RANKS, ids=str)
    def test_bourbaki_base_is_rank_many_roots(self, t):
        phi = build_root_system(t)
        base = bourbaki_base(t)
        assert len(base) == t.rank
        assert all(alpha in phi for alpha in base)

    def test_exact_coordinates_are_pinned(self):
        # One digest of every root, Bourbaki simple root and ambient
        # dimension, so a change to how roots are built, or to the pinned
        # bases, cannot move a single coordinate.
        h = hashlib.sha256()
        for t in list(all_types(24)) + LARGE_RANKS:
            phi = build_root_system(t)
            h.update(repr((str(t), phi.ambient_dim, list(phi.roots),
                           bourbaki_base(t))).encode())
        assert h.hexdigest() == (
            "f7e78287d54ecb822b70d5e74d0576fd98c61670407162c3b60ef98c92675ccc")


class TestInnerProduct:
    def test_orthogonal_unit_vectors(self):
        assert inner_product((2, 0), (0, 2)) == 0

    def test_long_root_square_length(self):
        r = (2, -2, 0)
        assert inner_product(r, r) == 2

    def test_exact_fractions(self):
        # doubled-odd coordinates give half-integer true coordinates
        r = (1, 1, 1, 1)
        assert inner_product(r, r) == Fraction(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product((2, 0), (2, 0, 0))


class TestStrongOrthogonality:
    def test_b2_long_roots_strongly_orthogonal(self):
        phi = build_root_system(_t("B2"))
        a, b = (2, -2), (2, 2)
        assert is_strongly_orthogonal(a, b, phi)

    def test_c2_short_roots_not_strongly_orthogonal(self):
        phi = build_root_system(_t("C2"))
        a, b = (2, -2), (2, 2)  # sum is the long root 2e1
        assert inner_product(a, b) == 0
        assert not is_strongly_orthogonal(a, b, phi)

    @pytest.mark.parametrize("label", SMALL_TYPES)
    def test_never_strongly_orthogonal_to_itself(self, label):
        phi = build_root_system(_t(label))
        for r in phi.roots:
            assert not is_strongly_orthogonal(r, r, phi)

    def test_membership_enforced(self):
        phi = build_root_system(_t("A2"))
        with pytest.raises(MembershipError):
            is_strongly_orthogonal((2, 0, 0), bourbaki_base(phi.type)[0], phi)

    @pytest.mark.parametrize("label", SMALL_TYPES)
    def test_antipodal_symmetry(self, label):
        phi = build_root_system(_t(label))
        for a, b in itertools.combinations(phi.roots, 2):
            base = is_strongly_orthogonal(a, b, phi)
            assert is_strongly_orthogonal(neg(a), b, phi) == base
            assert is_strongly_orthogonal(a, neg(b), phi) == base
            assert is_strongly_orthogonal(neg(a), neg(b), phi) == base


class TestClosedSubsystem:
    def test_whole_system_closed(self):
        phi = build_root_system(_t("B3"))
        assert is_closed_subsystem(set(phi.roots), phi)

    def test_empty_set_closed(self):
        phi = build_root_system(_t("A2"))
        assert is_closed_subsystem(set(), phi)

    def test_two_simple_roots_of_a2_not_closed(self):
        phi = build_root_system(_t("A2"))
        a, b = bourbaki_base(phi.type)
        assert not is_closed_subsystem({a, b}, phi)

    def test_membership_enforced(self):
        phi = build_root_system(_t("A2"))
        with pytest.raises(MembershipError):
            is_closed_subsystem({(2, 0, 0)}, phi)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.randoms(use_true_random=False))
def test_random_pairs_strong_orthogonality_is_symmetric(label, rnd):
    phi = build_root_system(RootSystemType.parse(label))
    roots = list(phi.roots)
    a, b = rnd.choice(roots), rnd.choice(roots)
    assert is_strongly_orthogonal(a, b, phi) == is_strongly_orthogonal(b, a, phi)
