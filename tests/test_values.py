"""Value semantics of the record classes: equality, hashing, order, repr and
immutability, as ``roots.Value`` defines them for every layer."""

import copy
import pickle

import pytest

from sorklie.groups import (
    DirectProduct,
    Extension,
    FiniteAtom,
    FiniteIndex,
    FreeProduct,
    SimpleLie,
    SolvableAtom,
    _Token,
    parse_group_expr,
)
from sorklie.realforms import NuCase, NuResult, RealFormDescriptor, su
from sorklie.roots import RootSystem, RootSystemType, Value, build_root_system
from sorklie.check import CertCheck, OrthCertificate
from sorklie.sork import canonical_certificate
from sorklie.tables import AuditEntry, AuditReport

A1 = RootSystemType("A", 1)
A1_ROOTS = ((-2, 2), (2, -2))  # ±(e_1 - e_2), sorted
SU21 = RealFormDescriptor("su", (2, 1))

# name -> (build, build with one field changed, repr of build()).  Each
# build makes a fresh instance, so equal values are never the same object.
CASES = {
    "RootSystemType": (
        lambda: RootSystemType("B", 3), lambda: RootSystemType("B", 4),
        "RootSystemType(family='B', rank=3)"),
    "RootSystem": (
        lambda: RootSystem(A1, A1_ROOTS, 2, frozenset(A1_ROOTS)),
        lambda: RootSystem(A1, A1_ROOTS, 3, frozenset(A1_ROOTS)),
        "RootSystem(type=RootSystemType(family='A', rank=1), "
        "roots=((-2, 2), (2, -2)), ambient_dim=2)"),
    "OrthCertificate": (
        lambda: OrthCertificate(A1, ((2, -2),)),
        lambda: OrthCertificate(A1, ()),
        "OrthCertificate(system_type=RootSystemType(family='A', rank=1), "
        "roots=((2, -2),))"),
    "CertCheck": (
        lambda: CertCheck(False, "NotARoot"), lambda: CertCheck(False, "NotCanonical"),
        "CertCheck(ok=False, reason='NotARoot')"),
    "RealFormDescriptor": (
        lambda: RealFormDescriptor("su", (2, 1)), lambda: RealFormDescriptor("su", (3, 1)),
        "RealFormDescriptor(kind='su', params=(2, 1), base=None)"),
    "NuResult": (
        lambda: NuResult(1, NuCase.REAL_FORM, 1, OrthCertificate(A1, ((2, -2),))),
        lambda: NuResult(1, NuCase.REAL_FORM, 2, OrthCertificate(A1, ((2, -2),))),
        "NuResult(nu=1, case='RealForm', "
        "sork_of_complexification=1, certificate=OrthCertificate("
        "system_type=RootSystemType(family='A', rank=1), roots=((2, -2),)))"),
    "SimpleLie": (
        lambda: SimpleLie(SU21), lambda: SimpleLie(su(3, 0)),
        "SimpleLie(descriptor=RealFormDescriptor(kind='su', params=(2, 1), base=None))"),
    "SolvableAtom": (
        lambda: SolvableAtom("Z"), lambda: SolvableAtom("R^2"),
        "SolvableAtom(label='Z')"),
    "FiniteAtom": (
        lambda: FiniteAtom(2), lambda: FiniteAtom(3), "FiniteAtom(order=2)"),
    "DirectProduct": (
        lambda: DirectProduct((FiniteAtom(2), SolvableAtom("Z"))),
        lambda: DirectProduct((SolvableAtom("Z"), FiniteAtom(2))),
        "DirectProduct(factors=(FiniteAtom(order=2), SolvableAtom(label='Z')))"),
    "FreeProduct": (
        lambda: FreeProduct((FiniteAtom(2), FiniteAtom(3))),
        lambda: FreeProduct((FiniteAtom(3), FiniteAtom(2))),
        "FreeProduct(factors=(FiniteAtom(order=2), FiniteAtom(order=3)))"),
    "Extension": (
        lambda: Extension(SolvableAtom("Z"), FiniteAtom(2), "split"),
        lambda: Extension(SolvableAtom("Z"), FiniteAtom(2), "central"),
        "Extension(kernel=SolvableAtom(label='Z'), quotient=FiniteAtom(order=2), "
        "mode='split')"),
    "FiniteIndex": (
        lambda: FiniteIndex(FiniteAtom(2)), lambda: FiniteIndex(FiniteAtom(3)),
        "FiniteIndex(inner=FiniteAtom(order=2))"),
    "_Token": (
        lambda: _Token("int", "2", 3), lambda: _Token("int", "2", 4),
        "_Token(kind='int', text='2', offset=3)"),
    "AuditEntry": (
        lambda: AuditEntry("G2", "m column", 2, 2, True),
        lambda: AuditEntry("G2", "m column", 2, 3, False),
        "AuditEntry(row_id='G2', claim='m column', recomputed=2, encoded=2, "
        "passed=True)"),
    "AuditReport": (
        lambda: AuditReport([AuditEntry("G2", "m column", 2, 2, True)]),
        lambda: AuditReport(),
        "AuditReport(entries=[AuditEntry(row_id='G2', claim='m column', "
        "recomputed=2, encoded=2, passed=True)])"),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
class TestValueSemantics:
    def test_is_a_value_of_its_name(self, name):
        value = CASES[name][0]()
        assert isinstance(value, Value)
        assert type(value).__name__ == name
        assert not hasattr(value, "__dict__")

    def test_equality(self, name):
        build, other, _ = CASES[name]
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        assert a != other() and not a == other()
        assert a != object() and a != b._key()

    def test_hashing(self, name):
        build, other, _ = CASES[name]
        if name == "AuditReport":  # its entries list grows
            with pytest.raises(TypeError):
                hash(build())
            return
        assert hash(build()) == hash(build())
        assert hash(build()) == hash(build()._key())  # as the dataclass hashed
        assert len({build(), build(), other()}) == 2

    def test_repr(self, name):
        build, _, expected = CASES[name]
        assert repr(build()) == expected

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = CASES[name][0]()
        for field in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == CASES[name][0]()

    def test_arguments_bind_to_the_fields_in_slot_order(self, name):
        value = CASES[name][0]()
        cls, fields = type(value), {f: getattr(value, f) for f in value.__slots__}
        assert cls(**fields) == value
        with pytest.raises(TypeError):
            cls(*value._key(), None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        if name != "AuditReport":  # its one field has a default
            del fields[value.__slots__[0]]
            with pytest.raises(TypeError):
                cls(**fields)

    def test_copy_and_pickle_round_trip(self, name):
        value = CASES[name][0]()
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value


class TestOrder:
    def test_root_system_types_order_by_family_then_rank(self):
        labels = ["D4", "A10", "A2", "B3", "E6", "B2", "G2"]
        got = sorted(RootSystemType.parse(s) for s in labels)
        assert [str(t) for t in got] == ["A2", "A10", "B2", "B3", "D4", "E6", "G2"]
        assert RootSystemType("A", 3) <= RootSystemType("A", 3) < RootSystemType("A", 4)
        assert RootSystemType("B", 2) > RootSystemType("A", 9)
        assert RootSystemType("B", 2) >= RootSystemType("B", 2)

    def test_roots_order_by_coordinates(self):
        # a root is the tuple of its doubled coordinates, built in ascending order
        phi = build_root_system(RootSystemType("B", 3))
        assert all(type(r) is tuple for r in phi.roots)
        assert list(phi.roots) == sorted(phi.roots)

    def test_descriptors_order_by_kind_then_params(self):
        ds = [su(3, 1), RealFormDescriptor("so", (5, 2)), su(2, 1),
              RealFormDescriptor("sl_H", (2,))]
        assert [str(d) for d in sorted(ds)] == [
            "sl(2,H)", "so(5,2)", "su(2,1)", "su(3,1)"]

    def test_other_classes_do_not_order_against_each_other(self):
        with pytest.raises(TypeError):
            RootSystemType("A", 1) < CertCheck(True)  # noqa: B015
        with pytest.raises(TypeError):
            SolvableAtom("Z") <= FiniteIndex(SolvableAtom("Z"))  # noqa: B015
        with pytest.raises(TypeError):
            RootSystemType("A", 1) > CertCheck(True)  # noqa: B015
        with pytest.raises(TypeError):
            SolvableAtom("Z") >= FiniteIndex(SolvableAtom("Z"))  # noqa: B015


class TestConstructionChecks:
    @pytest.mark.parametrize("family", ["B", "C"])
    def test_rank_one_aliases_normalise_to_a1(self, family):
        t = RootSystemType(family, 1)
        assert t == A1 and hash(t) == hash(A1) and repr(t) == repr(A1)

    def test_keyword_arguments_name_the_fields(self):
        d = RealFormDescriptor("complex", base=A1)
        assert (d.kind, d.params, d.base) == ("complex", (), A1)
        assert CertCheck(ok=True).reason is None
        assert build_root_system(A1) == RootSystem(
            type=A1, roots=A1_ROOTS, ambient_dim=2,
            _coord_set=frozenset(A1_ROOTS))


class TestGroupExprNodes:
    def test_nodes_of_different_classes_are_never_equal(self):
        x = SimpleLie(SU21)
        nodes = [SimpleLie(x), SolvableAtom(x), FiniteIndex(x), DirectProduct((x,)),
                 FreeProduct((x, x)), Extension(x, x, "split")]
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert a != b and b != a

    def test_products_are_flat_by_construction(self):
        a, b, c = FiniteAtom(2), FiniteAtom(3), SolvableAtom("Z")
        assert FreeProduct((FreeProduct((a, b)), c)) == FreeProduct((a, FreeProduct((b, c))))
        assert FreeProduct((FreeProduct((a, b)), c)).factors == (a, b, c)
        assert DirectProduct((DirectProduct((a,)), DirectProduct((b, c)))).factors == (a, b, c)
        # only a factor of the same kind is taken apart
        assert DirectProduct((FreeProduct((a, b)), c)).factors == (FreeProduct((a, b)), c)
        with pytest.raises(ValueError, match="at least one factor"):
            DirectProduct(())
        with pytest.raises(ValueError, match="at least two factors"):
            FreeProduct((a,))

    def test_parse_is_a_value(self):
        text = "ext(R^3, sl(2,R), split) * fi(Z/2 x su(2)^2)"
        assert parse_group_expr(text) == parse_group_expr(text)
        assert len({parse_group_expr(text), parse_group_expr(text)}) == 1


def test_certificates_are_dict_keys():
    # a certificate is a value: equal ones are one dict key
    t = RootSystemType.parse("D5")
    assert canonical_certificate(t) == canonical_certificate(RootSystemType("D", 5))
    assert {canonical_certificate(t): 1}[canonical_certificate(t)] == 1
