import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import dim_rank_signature, matrix_algebra_is_simple, nu_one_catalog

from sorklie import (
    InvalidRealForm,
    NuCase,
    OrthCertificate,
    RootSystemType,
    SimpleLie,
    all_types,
    build_root_system,
    compact_form,
    complex_simple,
    complexification_type,
    exceptional_form,
    is_sopq_exception,
    nu_simple,
    parse_group_expr,
    sl_H,
    sl_R,
    so,
    so_star,
    sp,
    sp_R,
    sork_exact,
    sork_formula,
    split_form,
    su,
    verify_certificate,
)
from sorklie import realforms, roots, sork
from sorklie.cli import main
from sorklie.realforms import catalog


def _t(label):
    return RootSystemType.parse(label)


class TestNormalization:
    def test_su_n_zero_is_compact(self):
        assert su(4, 0) == compact_form(_t("A3"))
        assert su(0, 4) == compact_form(_t("A3"))

    def test_sl_R_is_split(self):
        assert sl_R(5) == split_form(_t("A4"))
        assert str(sl_R(5)) == "sl(5,R)"

    def test_sp_R_is_split(self):
        assert sp_R(3) == split_form(_t("C3"))
        assert str(sp_R(3)) == "sp(3,R)"

    def test_sl_1_H(self):
        assert sl_H(1) == compact_form(_t("A1"))

    def test_so_compact(self):
        assert so(7, 0) == compact_form(_t("B3"))
        assert so(8, 0) == compact_form(_t("D4"))
        assert str(so(7, 0)) == "so(7)"

    def test_so31_is_complex_a1(self):
        d = so(3, 1)
        assert d == complex_simple(_t("A1"))
        assert nu_simple(d).case == NuCase.COMPLEX_STRUCTURE

    def test_su11_is_split_a1(self):
        assert su(1, 1) == sl_R(2) == split_form(_t("A1"))

    def test_exceptional_split_compact_fold(self):
        assert exceptional_form("E", 8, 8) == split_form(_t("E8"))
        assert exceptional_form("G", 2, -14) == compact_form(_t("G2"))
        assert exceptional_form("E", 6, -26).kind == "exc"

    # Only so(3,1) = complex(A1) and su(1,1) = split(A1) are folded; other
    # accidental isomorphisms keep both names, and both must give the same
    # answer.
    @pytest.mark.parametrize("a,b", [
        (so(3, 2), sp_R(2)), (so(4, 1), sp(1, 1)), (so(3, 3), sl_R(4)),
        (so(4, 2), su(2, 2)), (so(5, 1), sl_H(2)), (so(6, 2), so_star(8)),
        (so(2, 1), su(1, 1)),
        *((so(n + 1, n), split_form(_t(f"B{n}"))) for n in range(2, 13)),
        *((so(n, n), split_form(_t(f"D{n}"))) for n in range(3, 13)),
    ], ids=str)
    def test_isomorphic_names_give_one_nu(self, a, b):
        assert (nu_simple(a).nu, nu_simple(a).case) == \
            (nu_simple(b).nu, nu_simple(b).case)

    def test_parameter_order_irrelevant(self):
        assert so(3, 5) == so(5, 3)
        assert su(2, 1) == su(1, 2)
        assert sp(1, 3) == sp(3, 1)

    @pytest.mark.parametrize("bad", [
        lambda: so(4, 0), lambda: so(2, 2), lambda: so(1, 1),
        lambda: so_star(7), lambda: so_star(4),
        lambda: exceptional_form("E", 6, 0), lambda: sl_R(1),
        lambda: compact_form(RootSystemType("D", 2)),
    ])
    def test_non_simple_rejected(self, bad):
        with pytest.raises(InvalidRealForm):
            bad()

    # one spelling with no simple complexification per builder, plus su(1),
    # which su reads as su(1,0), and so*(7), which so_star refuses as odd
    @pytest.mark.parametrize("expr,written", [
        ("su(1,0)", "su(1,0)"), ("su(1)", "su(1,0)"), ("sl(1,R)", "sl(1,R)"),
        ("sl(0,H)", "sl(0,H)"), ("so(1,1)", "so(1,1)"), ("so*(2)", "so*(2)"),
        ("so*(7)", "so*(7)"),
        ("sp(0,R)", "sp(0,R)"), ("sp(0,0)", "sp(0,0)"), ("sp(3,-1)", "sp(3,-1)"),
        # the params in the order written, not the order the builders sort them to
        ("su(-1,3)", "su(-1,3)"), ("so(-3,5)", "so(-3,5)"), ("sp(-2,4)", "sp(-2,4)"),
    ])
    def test_rejection_names_the_descriptor(self, expr, written):
        with pytest.raises(InvalidRealForm) as info:
            parse_group_expr(expr)
        assert str(info.value) == \
            f"{written} does not describe a simple Lie algebra (at offset 0)"

    # a spelling whose complexification has the reducible type D2 = A1 x A1,
    # each named as written; so(3,1) = sl(2,C) is the one exception
    @pytest.mark.parametrize("expr,written", [
        ("so(4)", "so(4,0)"), ("so(0,4)", "so(0,4)"), ("so(2,2)", "so(2,2)"),
        ("so*(4)", "so*(4)"),
    ])
    def test_reducible_complexification_is_not_simple(self, expr, written):
        with pytest.raises(InvalidRealForm) as info:
            parse_group_expr(expr)
        assert str(info.value) == f"{written} is not simple (at offset 0)"


PAIR_CONSTRUCTORS = (su, so, sp)
SIZE_CONSTRUCTORS = (sl_R, sl_H, so_star, sp_R)
TYPE_CONSTRUCTORS = (complex_simple, split_form, compact_form)


def _built(build, *args):
    """The descriptor ``build(*args)``, or None where it is refused."""
    try:
        return build(*args)
    except InvalidRealForm:
        return None


# Each builder with the matrix algebra that its complexification is and the
# size of those matrices, by hand.
_COMPLEXIFIED = {
    su: ("sl", lambda p, q: p + q), so: ("so", lambda p, q: p + q),
    sp: ("sp", lambda p, q: 2 * (p + q)), sl_R: ("sl", lambda n: n),
    sl_H: ("sl", lambda n: 2 * n), so_star: ("so", lambda n: n),
    sp_R: ("sp", lambda n: 2 * n),
}


def test_builders_refuse_exactly_what_is_not_simple():
    # A negative param or an odd so*(n) spells nothing; so(3,1) = sl(2,C) is
    # simple, though its complexification so(4) is not.
    calls = [(build, p, q) for build in PAIR_CONSTRUCTORS
             for p in range(-1, 17) for q in range(-1, 17 - p)]
    calls += [(build, n) for build in SIZE_CONSTRUCTORS for n in range(-1, 17)]
    for build, *args in calls:
        algebra, size = _COMPLEXIFIED[build]
        simple = (min(args) >= 0 and not (build is so_star and args[0] % 2)
                  and (matrix_algebra_is_simple(algebra, size(*args))
                       or build is so and sorted(args) == [1, 3]))
        assert (_built(build, *args) is not None) == simple, (build.__name__, args)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(PAIR_CONSTRUCTORS), st.integers(-3, 15), st.integers(-3, 15)),
    st.tuples(st.sampled_from(SIZE_CONSTRUCTORS), st.integers(-3, 40)),
))
def test_constructor_refuses_or_has_a_complexification(call):
    d = _built(*call)
    if d is not None:
        assert isinstance(complexification_type(d), RootSystemType)


def _every_descriptor():
    """Each descriptor built by catalog(12), by every constructor over
    small parameters, and by the type constructors over all_types(12)."""
    calls = [(build, p, q) for build in PAIR_CONSTRUCTORS
             for p in range(-3, 16) for q in range(-3, 16)]
    calls += [(build, n) for build in SIZE_CONSTRUCTORS for n in range(-3, 41)]
    calls += [(build, t) for build in TYPE_CONSTRUCTORS for t in all_types(12)]
    built = {_built(*call) for call in calls} | set(catalog(12))
    return sorted(built - {None})


def test_every_descriptor_reparses_to_itself():
    descriptors = _every_descriptor()
    assert len(descriptors) > 400
    for d in descriptors:
        assert parse_group_expr(str(d)) == SimpleLie(d), d


# sha256 over `nu` stdout and exit code for each sorted catalog(12)
# descriptor in all four flag sets, taken before the kinds became one table.
_NU_CATALOG_SHA256 = "bca6f26431c7566324f8c119faa406a46e4fa86d6951ed84376594faf282b581"


def test_nu_output_over_the_catalog_is_pinned(capsys):
    h = hashlib.sha256()
    for d in sorted(catalog(12)):
        for flags in ([], ["--json"], ["--certificate"], ["--json", "--certificate"]):
            code = main(["nu", str(d), *flags])
            h.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == _NU_CATALOG_SHA256


class TestComplexification:
    def test_classical(self):
        assert complexification_type(su(2, 1)) == _t("A2")
        assert complexification_type(sl_H(2)) == _t("A3")
        assert complexification_type(so(5, 2)) == _t("B3")
        assert complexification_type(so(4, 4)) == _t("D4")
        assert complexification_type(so_star(10)) == _t("D5")
        assert complexification_type(sp(2, 1)) == _t("C3")

    def test_named(self):
        assert complexification_type(split_form(_t("E7"))) == _t("E7")
        assert complexification_type(exceptional_form("F", 4, -20)) == _t("F4")

    def test_kind_without_a_row_is_refused(self):
        with pytest.raises(InvalidRealForm, match="unknown descriptor kind 'sx'"):
            realforms.RealFormDescriptor("sx", (2, 1))

    # Params that the kind's builder refuses or folds into another
    # descriptor, each refused by the constructor with the builder's verdict.
    @pytest.mark.parametrize("kind,params,message", [
        ("so", (2, 2), "so(2,2) is not simple"),
        ("su", (1, 1), "build sl(2,R)"),
        ("so", (3, 1), "build complex(A1)"),
        ("su", (3, 0), "build su(3)"),
        ("sl_H", (1,), "build su(2)"),
        ("sp", (0, 0), "sp(0,0) does not describe"),
    ], ids=["so(2,2)", "su(1,1)", "so(3,1)", "su(3,0)", "sl(1,H)", "sp(0,0)"])
    def test_params_no_builder_makes_are_refused(self, kind, params, message):
        with pytest.raises(InvalidRealForm, match=re.escape(message)):
            realforms.RealFormDescriptor(kind, params)

    def test_catalog_descriptors_construct(self):
        for d in catalog(12):
            assert realforms.RealFormDescriptor(d.kind, d.params, d.base) == d

    # Fields that no builder makes, each refused with a typed error before a
    # descriptor exists: a base kind checks its base as its builder does.
    @pytest.mark.parametrize("kind,params,base,error", [
        ("complex", (), _t("D2"), InvalidRealForm),
        ("exc", (6, 99), _t("E6"), InvalidRealForm),
        ("exc", (8, -24), _t("E6"), InvalidRealForm),
        ("exc", (8, 8), _t("E8"), InvalidRealForm),
        ("split", (), "E8", InvalidRealForm),
        ("compact", (3,), _t("A2"), (InvalidRealForm, TypeError)),
        ("split", (), None, (InvalidRealForm, TypeError)),
        ("exc", (), _t("E6"), (InvalidRealForm, TypeError)),
    ], ids=["complex(D2)", "E6(99)", "E8(-24) on E6", "E8(8)", "split('E8')",
            "compact(3) on A2", "split(None)", "exc() on E6"])
    def test_based_fields_no_builder_makes_are_refused(self, kind, params, base, error):
        with pytest.raises(error):
            realforms.RealFormDescriptor(kind, params, base)


class TestSopqException:
    @pytest.mark.parametrize("p,q,expected", [
        (3, 5, True), (7, 1, True), (3, 1, False), (5, 3, True),
        (7, 5, True), (5, 1, False), (9, 1, False), (4, 4, False),
        (5, 4, False), (6, 2, False), (9, 3, True),
    ])
    def test_predicate(self, p, q, expected):
        assert is_sopq_exception(so(p, q)) == expected

    def test_only_applies_to_so(self):
        assert not is_sopq_exception(su(3, 1))
        assert not is_sopq_exception(split_form(_t("D4")))

    def test_nu_drops_by_one(self):
        res = nu_simple(so(3, 5))
        assert res.case == NuCase.SOPQ_EXCEPTION
        assert res.nu == res.sork_of_complexification - 1 == 3

    def test_truncated_certificate_still_verifies(self):
        res = nu_simple(so(7, 1))
        assert len(res.certificate.roots) == res.nu == 3
        assert verify_certificate(res.certificate)


class TestSignatureOracle:
    """The identification fact: dimension, complex rank and Killing
    signature σ, by arithmetic alone, give ν."""

    def test_dimension_rank_and_signature_fix_nu_but_at_five_triples(self):
        nus = {}
        for d in catalog(64):
            dim, rank, sigma = dim_rank_signature(d)
            t = complexification_type(d)
            assert dim == (2 if d.kind == "complex" else 1) * (t.root_count() + t.rank)
            nus.setdefault((dim, rank, sigma), set()).add(nu_simple(d).nu)
        # E6 meets B6 and C6 at one dimension, 78, and rank
        assert sorted(k for k, v in nus.items() if len(v) > 1) == sorted(
            [(78, 6, s) for s in (6, 2, -14, -78)] + [(156, 12, 0)])

    def test_sopq_exception_is_read_from_the_signature(self):
        seen = 0
        for d in catalog(64):
            t = complexification_type(d)
            if t.family != "D" or d.kind == "complex":
                continue
            _, n, sigma = dim_rank_signature(d)
            k, odd = divmod(n - sigma, 2)
            odd_square = not odd and k % 2 == 1 and math.isqrt(k) ** 2 == k
            res = nu_simple(d)
            assert (res.nu == res.sork_of_complexification - 1) \
                == is_sopq_exception(d) == (n % 2 == 0 and odd_square), d
            seen += is_sopq_exception(d)
        assert seen > 0


class TestNuSimple:
    def test_case_is_the_string_nu_json_prints(self, capsys):
        assert (NuCase.COMPLEX_STRUCTURE, NuCase.REAL_FORM, NuCase.SOPQ_EXCEPTION) == (
            "ComplexStructure", "RealForm", "SopqException")
        for d in (complex_simple(_t("A1")), su(2, 1), so(3, 5)):
            assert main(["nu", str(d), "--json"]) == 0
            printed = json.loads(capsys.readouterr().out)["factors"][0]["case"]
            assert type(nu_simple(d).case) is str and nu_simple(d).case == printed

    def test_complex_case(self):
        res = nu_simple(complex_simple(_t("E8")))
        assert (res.nu, res.case) == (8, NuCase.COMPLEX_STRUCTURE)

    def test_generic_real_form(self):
        res = nu_simple(su(4, 3))
        assert (res.nu, res.case) == (3, NuCase.REAL_FORM)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_lorentz_series(self, n):
        assert nu_simple(so(n, 1)).nu == n // 2

    def test_split_equals_complex(self):
        for label in ("A4", "B3", "C5", "D6", "F4", "G2", "E6"):
            t = _t(label)
            assert nu_simple(split_form(t)).nu == nu_simple(complex_simple(t)).nu

    def test_certificates_always_attached(self):
        for d in (su(2, 2), so(5, 4), compact_form(_t("B2"))):
            res = nu_simple(d)
            assert verify_certificate(res.certificate)
            assert len(res.certificate.roots) == res.nu

    def test_nu_bounded_by_compact_factors(self):
        # nu(so(p,q)) >= nu(so(p)) + nu(so(q)) fails in general, but the
        # maximal compact bound nu <= sork of the complexification holds
        for p in range(3, 9):
            for q in range(1, p + 1):
                if p + q == 4 and (p, q) != (3, 1):
                    continue
                res = nu_simple(so(p, q))
                assert res.nu <= res.sork_of_complexification
                assert res.nu >= res.sork_of_complexification - 1


class TestCatalog:
    def test_no_duplicates(self):
        items = list(catalog())
        assert len(items) == len(set(items))

    def test_all_canonical(self):
        for d in catalog():
            # canonical descriptors never hide a split/compact alias
            if d.kind == "su":
                assert d.params[1] >= 1
            if d.kind == "so":
                assert sum(d.params) >= 5
            if d.kind == "sl_H":
                assert d.params[0] >= 2

    def test_parameterised_part_is_what_the_builders_make(self):
        """catalog(12) lists every descriptor that the five parameterised
        builders make within its bounds (p + q <= 12, sl(n,H) with 2n <= 12,
        so*(2n) with n <= 12), each once, but for so(2,1) = sl(2,R)."""
        within = {"su": lambda p, q: p + q <= 12, "so": lambda p, q: p + q <= 12,
                  "sp": lambda p, q: p + q <= 12, "sl_H": lambda n: 2 * n <= 12,
                  "so_star": lambda n: n <= 12}
        calls = [(build, p, q) for build in (su, so, sp)
                 for p in range(-1, 13) for q in range(-1, 13)]
        calls += [(sl_H, n) for n in range(-1, 13)]
        calls += [(so_star, n) for n in range(-1, 25)]
        made = {d for d in (_built(*call) for call in calls)
                if d is not None and d.kind in within and within[d.kind](*d.params)}
        listed = [d for d in catalog(12) if d.kind in within]
        assert sorted(listed) == sorted(made - {so(2, 1)})

    def test_nu_one_catalog(self):
        got = sorted(str(d) for d in nu_one_catalog())
        assert got == sorted([
            "su(2)", "su(3)", "complex(A1)", "complex(A2)",
            "sl(2,R)", "sl(3,R)", "su(2,1)",
        ])

    def test_nu_one_catalog_stable_under_larger_bounds(self):
        small = {str(d) for d in nu_one_catalog()}
        large = {str(d) for d in nu_one_catalog(10)}
        assert small == large


@pytest.fixture
def no_search(monkeypatch):
    """Make the exact clique search and its graph raise, with an empty
    cache so that no result computed by an earlier test can stand in for
    it."""
    def refuse(*args, **kwargs):
        raise RuntimeError("exact clique search called")

    monkeypatch.setattr(sork, "LazyRootGraph", refuse)
    monkeypatch.setattr(sork, "orbit_clique_search", refuse)
    monkeypatch.setattr(sork, "_CANONICAL", {})


def _family_in(families, bound=8):
    return [d for d in catalog(bound) if complexification_type(d).family in families]


class TestClosedFormNuPath:
    def test_catalog_needs_no_search(self, no_search):
        # A-D have closed forms; E, F and G are searched
        for d in _family_in("ABCD"):
            res = nu_simple(d)
            assert len(res.certificate.roots) == res.nu

    def test_each_exceptional_type_is_searched_once(self, monkeypatch):
        graph, built = sork.LazyRootGraph, []

        def counted(phi):
            built.append(str(phi.type))
            return graph(phi)

        monkeypatch.setattr(sork, "LazyRootGraph", counted)
        monkeypatch.setattr(sork, "_CANONICAL", {})
        for d in _family_in("EFG"):
            nu_simple(d)
        assert sorted(built) == ["E6", "E7", "E8", "F4", "G2"]

    def test_each_type_is_built_once(self, monkeypatch):
        # the search, the check and the length all use one root system
        build, built, depth = roots._roots, [], []

        def counted(t):
            if not depth:  # F4 and G2 read B4's and A2's roots inside theirs
                built.append(str(t))
            depth.append(t)
            try:
                return build(t)
            finally:
                depth.pop()

        monkeypatch.setattr(roots, "_roots", counted)
        monkeypatch.setattr(sork, "_CANONICAL", {})
        closed = [su(3, 2), so(7, 1), sp(2, 1), so_star(10), split_form(_t("B3"))]
        for d in _family_in("EFG") + closed + closed:
            nu_simple(d)
        assert sorted(built) == ["A4", "B3", "C3", "D4", "D5",
                                 "E6", "E7", "E8", "F4", "G2"]

    @pytest.mark.parametrize("d", list(catalog(8)), ids=str)
    def test_certificate_equals_exact_search(self, d):
        res = nu_simple(d)
        _, exact = sork_exact(build_root_system(complexification_type(d)))
        if res.case == NuCase.SOPQ_EXCEPTION:
            exact = OrthCertificate(exact.system_type,
                                    exact.roots[: res.sork_of_complexification - 1])
        assert res.certificate == exact

    @pytest.mark.parametrize("seam, label, broken", [
        ("_closed_form", "D6",
         lambda cert: OrthCertificate(cert.system_type, cert.roots[1:])),
        ("_closed_form", "D6",
         lambda cert: OrthCertificate(cert.system_type, cert.roots[::-1])),
        ("sork_exact", "E8",
         lambda found: (found[0], OrthCertificate(found[1].system_type,
                                                  found[1].roots[::-1]))),
    ], ids=["too_short", "not_canonical", "exact_search_not_canonical"])
    def test_broken_certificate_is_an_explicit_error(self, monkeypatch, seam,
                                                     label, broken):
        good = getattr(sork, seam)
        monkeypatch.setattr(sork, seam, lambda arg: broken(good(arg)))
        monkeypatch.setattr(sork, "_CANONICAL", {})
        with pytest.raises(AssertionError, match="certificate bug"):
            nu_simple(split_form(_t(label)))
        if label[0] in "EFG":  # sork_formula reads these off the certificate
            with pytest.raises(AssertionError, match="certificate bug"):
                sork_formula(_t(label))
