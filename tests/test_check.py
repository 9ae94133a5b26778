"""The certificate checker, ``sorklie.check``: its verdicts, the documents
it refuses, and mutants of the module that the tests must tell apart."""

import inspect

import pytest
from oracle_utils import is_strongly_orthogonal, neg

import sorklie.check as checker
from sorklie import (
    CertCheck,
    OrthCertificate,
    RootSystemType,
    SorklieError,
    all_types,
    build_root_system,
    canonical_certificate,
    verify_certificate,
)


def _phi(label):
    return build_root_system(RootSystemType.parse(label))


class TestVerifyCertificate:
    def test_rejects_non_root(self):
        t = RootSystemType.parse("A2")
        cert = OrthCertificate(t, ((2, 0, 0),))
        check = verify_certificate(cert)
        assert not check
        assert check.reason == "NotARoot"

    def test_rejects_non_orthogonal_pair(self):
        phi = _phi("B2")
        a, b = (0, 2), (2, 0)  # orthogonal but sum is a root
        cert = OrthCertificate(phi.type, (a, b))
        check = verify_certificate(cert)
        assert check.reason == "NotStronglyOrthogonal"

    def test_rejects_duplicates(self):
        phi = _phi("B2")
        r = (2, 0)
        check = verify_certificate(OrthCertificate(phi.type, (r, r)))
        assert check.reason == "NotStronglyOrthogonal"

    @pytest.mark.parametrize("label", ["A2", "B3", "C3", "D4", "G2", "F4"])
    def test_repeated_and_antipodal_roots(self, label):
        # the dot product alone refuses both: |a|^2 and -|a|^2 are not zero
        phi = _phi(label)
        for a in phi.positive_representatives():
            for pair in ((a, a), (neg(a), a)):
                assert not is_strongly_orthogonal(*pair, phi)
                check = verify_certificate(OrthCertificate(phi.type, pair))
                assert check.reason == "NotStronglyOrthogonal", pair

    def test_rejects_wrong_order(self):
        phi = _phi("B2")
        a, b = (2, -2), (2, 2)
        good = OrthCertificate(phi.type, (a, b))
        bad = OrthCertificate(phi.type, (b, a))
        assert verify_certificate(good)
        assert verify_certificate(bad).reason == "NotCanonical"

    def test_empty_certificate_is_valid(self):
        phi = _phi("A2")
        assert verify_certificate(OrthCertificate(phi.type, ()))

    @pytest.mark.parametrize("t", list(all_types(6)), ids=str)
    def test_pairs_agree_with_predicate(self, t):
        phi = build_root_system(t)
        reps = phi.positive_representatives()
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                check = verify_certificate(OrthCertificate(t, (a, b)))
                assert check.ok == is_strongly_orthogonal(a, b, phi), (a, b)
                assert check.ok or check.reason == "NotStronglyOrthogonal"

    @pytest.mark.parametrize("family", "ABCD")
    def test_rank_64_canonical_certificates(self, family):
        t = RootSystemType(family, 64)
        phi = build_root_system(t)
        roots = canonical_certificate(t).roots
        assert verify_certificate(OrthCertificate(t, roots))
        repeated = OrthCertificate(t, roots[:1] + roots)
        assert verify_certificate(repeated).reason == "NotStronglyOrthogonal"
        reversed_ = OrthCertificate(t, roots[::-1])
        assert verify_certificate(reversed_).reason == "NotCanonical"


def _oracle_check(cert: OrthCertificate, phi) -> CertCheck:
    """The verdict of ``verify_certificate`` from the Fraction predicates of
    oracle_utils, in its order: membership, pairs, then order."""
    roots = cert.roots
    if not all(r in phi.roots for r in roots):
        return CertCheck(False, "NotARoot")
    if not all(is_strongly_orthogonal(a, b, phi)
               for i, a in enumerate(roots) for b in roots[i + 1:]):
        return CertCheck(False, "NotStronglyOrthogonal")
    if list(roots) != sorted(roots):
        return CertCheck(False, "NotCanonical")
    return CertCheck(True)


def _one_away(roots: tuple) -> set:
    """The sets one sign, one coordinate or one swap away from ``roots``:
    one root negated, one coordinate of one root negated or moved by 1 or
    2, two coordinates of one root swapped, or two neighbouring roots
    swapped."""
    out = set()
    for i, r in enumerate(roots):
        edits = [neg(r)]
        for j in range(len(r)):
            edits += [r[:j] + (v,) + r[j + 1:]
                      for v in (-r[j], r[j] - 2, r[j] - 1, r[j] + 1, r[j] + 2)]
            edits += [r[:j] + (r[k],) + r[j + 1:k] + (r[j],) + r[k + 1:]
                      for k in range(j + 1, len(r))]
        out.update(roots[:i] + (e,) + roots[i + 1:] for e in edits if any(e))
        if i + 1 < len(roots):
            out.add(roots[:i] + (roots[i + 1], r) + roots[i + 2:])
    return out


@pytest.fixture(scope="module")
def hostile_certificates():
    """(certificate, root system, oracle verdict) for every set one step
    away from a canonical certificate of rank <= 8 or from one of its
    prefixes, each itself a certificate.  A prefix of two roots is what
    makes an orthogonal pair whose sum is a root: B3 gives (e3, e1) one
    coordinate away from (e3, e1 - e2)."""
    cases = []
    for t in all_types(8):
        phi = build_root_system(t)
        roots = canonical_certificate(t).roots
        for k in range(1, len(roots) + 1):
            for hostile in sorted(_one_away(roots[:k])):
                cert = OrthCertificate(t, hostile)
                cases.append((cert, phi, _oracle_check(cert, phi)))
    return cases


# Parsed documents, each with the outcome of ``check_document``: the name of
# the error it raises, else the reason of its verdict (None if valid).
DOCUMENTS = {
    "top-level list": ([], "CertificateError"),
    "label not a string": ({"system_type": 2, "roots": []}, "CertificateError"),
    "bool coordinate": ({"system_type": "A2", "roots": [[True, -1, 0]]},
                        "CertificateError"),
    "bool n": ({"system_type": "A2", "n": True, "roots": [[2, -2, 0]]},
               "CertificateError"),
    "unknown type": ({"system_type": "Q2", "roots": []}, "InvalidType"),
    # labels that name a type but not as sork writes it, str(RootSystemType)
    "label with spaces": ({"system_type": " A2 ", "roots": []}, "CertificateError"),
    "lower-case label": ({"system_type": "a2", "roots": []}, "CertificateError"),
    "label with a leading zero": ({"system_type": "A02", "roots": []}, "CertificateError"),
    "lower-case E8": ({"system_type": "e8", "roots": []}, "CertificateError"),
    "non-canonical label, zero root": ({"system_type": "a2", "roots": [[0, 0, 0]]},
                                       "CertificateError"),
    "zero root": ({"system_type": "A2", "roots": [[0, 0, 0]]}, "InvalidType"),
    "n too large": ({"system_type": "A2", "n": 2, "roots": [[2, -2, 0]]},
                    "CountMismatch"),
    "n matches": ({"system_type": "A2", "n": 1, "roots": [[2, -2, 0]]}, None),
    "no n": ({"system_type": "A2", "roots": [[2, -2, 0]]}, None),
}


def _outcome(check_document, doc):
    try:
        return check_document(doc)[1].reason
    except SorklieError as err:
        return type(err).__name__


# Mutants of the checker module, each one replacement in its source.  Every
# one must change a verdict on the hostile certificates or the outcome of a
# document above.
KILLED = {
    "dot != 0 -> > 0": ("sum(map(mul, a, b)) != 0", "sum(map(mul, a, b)) > 0"),
    "no a + b lookup": (" or tuple(map(add, a, b)) in phi", ""),
    "no order check": ("if list(roots) != sorted(roots):", "if False:"),
    "no membership loop": ("if r not in phi:", "if False:"),
    "membership skips the first root": ("for r in roots:", "for r in roots[1:]:"),
    "pairs from i": ("roots[i + 1:]", "roots[i:]"),
    "pairs from i + 2": ("roots[i + 1:]", "roots[i + 2:]"),
    "bool is an int": ("type(x) is int", "isinstance(x, int)"),
    "no zero-vector refusal": ("if not all(map(any, roots)):", "if False:"),
    "no label rule": ("if label != str(t):", "if False:"),
    "no count rule": ('if doc.get("n", len(cert.roots)) != len(cert.roots):', "if False:"),
}
# Mutants that change no verdict, with the reason they cannot.
EQUIVALENT = {
    # a repeated root has dot product |a|^2 != 0, which the pair test refuses
    "a == b or ...": ("if sum(map(mul, a, b))", "if a == b or sum(map(mul, a, b))"),
}


def _mutant(old: str, new: str) -> dict:
    """The namespace of ``sorklie.check`` run from its source with the one
    occurrence of ``old`` replaced by ``new``."""
    source = inspect.getsource(checker)
    assert source.count(old) == 1, "the edit no longer applies"
    namespace = {"__name__": "sorklie.check_mutant", "__package__": "sorklie"}
    exec(compile(source.replace(old, new), checker.__file__, "exec"), namespace)
    return namespace


def _key(verdict) -> tuple:
    # the mutant's CertCheck is a class of its own, which never equals ours
    return verdict.ok, verdict.reason


def _disagreements(namespace: dict, cases) -> int:
    """How many hostile certificates and documents get another verdict from
    the checker in ``namespace`` than they should."""
    check = namespace["_check"]
    return (sum(_key(check(cert, phi)) != _key(want) for cert, phi, want in cases)
            + sum(_outcome(namespace["check_document"], doc) != want
                  for doc, want in DOCUMENTS.values()))


class TestCheckMutants:
    def test_check_agrees_with_oracle(self, hostile_certificates):
        verdicts = {want.reason for _, _, want in hostile_certificates}
        assert verdicts == {None, "NotARoot", "NotStronglyOrthogonal", "NotCanonical"}
        assert _disagreements(vars(checker), hostile_certificates) == 0

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_document_outcome(self, name):
        doc, want = DOCUMENTS[name]
        assert _outcome(checker.check_document, doc) == want

    @pytest.mark.parametrize("name", KILLED)
    def test_mutant_is_killed(self, hostile_certificates, name):
        assert _disagreements(_mutant(*KILLED[name]), hostile_certificates) > 0

    @pytest.mark.parametrize("name", EQUIVALENT)
    def test_equivalent_mutant_changes_no_verdict(self, hostile_certificates, name):
        assert _disagreements(_mutant(*EQUIVALENT[name]), hostile_certificates) == 0
