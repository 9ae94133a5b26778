"""The certificate checker: the certificate record, its JSON form and its
verdict.

A valid verdict on a certificate of type T proves four things about its
roots, on the doubled integer coordinates that ``roots`` builds:

- membership: each is a root of the system ``build_root_system(T)``;
- pairwise strong orthogonality: no two have a nonzero dot product or a
  root as their sum;
- ascending order: they are sorted lexicographically, the canonical
  order;
- the count: a document's ``n``, if it has one, is their number.

So the roots are a strongly orthogonal set and sork(T) is at least their
number.  That is a lower bound only: no verdict shows yet that no larger
set exists.

A verdict trusts only ``build_root_system`` and this module, which
imports nothing of the package but ``errors`` and ``roots``: the search
in ``sork``, which produces the certificates, is not part of it.
``OrthCertificate.from_json_dict`` is the one place where outside input
becomes roots, and it refuses the zero vector and a type label not written
as ``sork`` writes it, ``str`` of its type.
"""

from operator import add, mul

from .errors import CertificateError, InvalidType
from .roots import RootSystem, RootSystemType, Value, build_root_system


class OrthCertificate(Value):
    """An explicit pairwise strongly orthogonal set, sorted lexicographically
    on doubled coordinates, each root a tuple of them."""

    __slots__ = ("system_type", "roots")
    system_type: RootSystemType
    roots: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "system_type": str(self.system_type),
            "n": len(self.roots),
            "roots": [list(r) for r in self.roots],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "OrthCertificate":
        """Parse a certificate document; raises :class:`CertificateError`
        if it is not an object with a string ``system_type``, a list of
        integer lists ``roots`` and, if present, an integer ``n``,
        :class:`InvalidType` for a label that names no type,
        :class:`CertificateError` for a label not written as ``str`` of its
        type, the one way ``sork`` writes it, and :class:`InvalidType` for a
        root that is the zero vector, in that order."""
        if not isinstance(data, dict):
            raise CertificateError("certificate must be a JSON object")
        label, rows = data.get("system_type"), data.get("roots")
        if not isinstance(label, str):
            raise CertificateError("system_type must be a string")
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(_is_int(c) for c in row)
                for row in rows):
            raise CertificateError("roots must be a list of lists of integers")
        if not _is_int(data.get("n", 0)):
            raise CertificateError("n must be an integer")
        t = RootSystemType.parse(label)
        if label != str(t):
            raise CertificateError(f"system_type {label!r} is not written as {t}")
        roots = tuple(map(tuple, rows))
        if not all(map(any, roots)):
            raise InvalidType("a root cannot be the zero vector")
        return cls(t, roots)


def _is_int(x: object) -> bool:
    return type(x) is int  # JSON true/false load as bool, a subclass of int


class CertCheck(Value):
    """Verification outcome; when ``ok`` is false, ``reason`` is one of
    ``verify_certificate``'s NotARoot, NotStronglyOrthogonal and
    NotCanonical, or CountMismatch, which only ``check_document`` gives,
    when a document's ``n`` differs from its number of roots."""

    __slots__ = ("ok", "reason")
    ok: bool
    reason: str | None

    def __init__(self, ok: bool, reason: str | None = None):
        super().__init__(ok, reason)

    def __bool__(self) -> bool:
        return self.ok


def check_document(doc: object) -> tuple[OrthCertificate, CertCheck]:
    """The certificate of a parsed JSON document and its verdict, which is
    CountMismatch if the document's ``n`` is not its number of roots."""
    cert = OrthCertificate.from_json_dict(doc)
    if doc.get("n", len(cert.roots)) != len(cert.roots):
        return cert, CertCheck(False, "CountMismatch")
    return cert, verify_certificate(cert)


def verify_certificate(cert: OrthCertificate) -> CertCheck:
    """Re-check a certificate from scratch, against the root system built
    from its ``system_type``: membership, pairwise strong orthogonality,
    and canonical (ascending lexicographic) ordering."""
    return _check(cert, build_root_system(cert.system_type))


def _check(cert: OrthCertificate, phi: RootSystem) -> CertCheck:
    """:func:`verify_certificate` against a given root system ``phi`` of
    the certificate's type.

    Each pair is checked on the doubled integer coordinates: a nonzero dot
    product, ±|a|^2 for a repeated root or a root and its negative, or a
    root a+b makes the pair not strongly orthogonal.  For orthogonal roots
    a, b the reflection s_b maps a+b to a-b, so a+b is a root iff a-b is.
    """
    roots = cert.roots
    for r in roots:
        if r not in phi:
            return CertCheck(False, "NotARoot")
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if sum(map(mul, a, b)) != 0 or tuple(map(add, a, b)) in phi:
                return CertCheck(False, "NotStronglyOrthogonal")
    if list(roots) != sorted(roots):  # a tuple never equals a list
        return CertCheck(False, "NotCanonical")
    return CertCheck(True)
