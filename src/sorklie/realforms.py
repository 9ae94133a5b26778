"""Real simple Lie algebras and the three-case free subgroup rank computation.

Descriptors are normalized at construction: split and compact classical
series fold into split(T)/compact(T), the exceptional split/compact
signatures do the same, and so(3,1) becomes the complex algebra sl2(C).  That
is the one accidental isomorphism folded; the others keep both names, such as
so(3,2) and sp(2,R), or so(4,3) and split(B3), and both names give one ν.

The free subgroup rank reads the strong orthogonal rank of the
complexification from its closed formula and attaches the closed-form
canonical certificate, verified against the built root system; the exact
clique search is not on this path.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import lru_cache

from .errors import InvalidRealForm, InvalidType
from .roots import RootSystemType, Value, _set, all_types, build_root_system
from .sork import OrthCertificate, canonical_certificate, sork_formula, verify_certificate

# Known exceptional real forms by (family+rank, signature), excluding the
# split and compact signatures which normalize to split()/compact().
_EXC_OTHER = {
    ("E6", 2), ("E6", -14), ("E6", -26),
    ("E7", -5), ("E7", -25),
    ("E8", -24),
    ("F4", -20),
}
_EXC_SPLIT = {("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)}
_EXC_COMPACT = {("E6", -78), ("E7", -133), ("E8", -248), ("F4", -52), ("G2", -14)}


class NuCase(Enum):
    COMPLEX_STRUCTURE = "ComplexStructure"
    REAL_FORM = "RealForm"
    SOPQ_EXCEPTION = "SopqException"


class RealFormDescriptor(Value):
    """A named real simple Lie algebra.

    kind is one of: complex, split, compact (carrying ``base``), or a
    parameterized family: su (p,q), sl_H (n), so (p,q), so_star (n, meaning
    so*(2n)), sp (p,q), exc (rank, signature with ``base``).
    """

    __slots__ = ("kind", "params", "base")
    kind: str
    params: tuple[int, ...]
    base: RootSystemType | None

    def __init__(self, kind: str, params: tuple[int, ...] = (),
                 base: RootSystemType | None = None):
        _set(self, "kind", kind)
        _set(self, "params", params)
        _set(self, "base", base)

    def __str__(self) -> str:
        k = self.kind
        if k == "complex":
            return f"complex({self.base})"
        if k == "split":
            fam, r = self.base.family, self.base.rank
            if fam == "A":
                return f"sl({r + 1},R)"
            if fam == "C":
                return f"sp({r},R)"
            return f"split({self.base})"
        if k == "compact":
            fam, r = self.base.family, self.base.rank
            if fam == "A":
                return f"su({r + 1})"
            if fam == "B":
                return f"so({2 * r + 1})"
            if fam == "C":
                return f"sp({r})"
            if fam == "D":
                return f"so({2 * r})"
            return f"compact({self.base})"
        if k == "su":
            return f"su({self.params[0]},{self.params[1]})"
        if k == "sl_H":
            return f"sl({self.params[0]},H)"
        if k == "so":
            return f"so({self.params[0]},{self.params[1]})"
        if k == "so_star":
            return f"so*({2 * self.params[0]})"
        if k == "sp":
            return f"sp({self.params[0]},{self.params[1]})"
        if k == "exc":
            return f"{self.base.family}{self.base.rank}({self.params[1]})"
        return f"<{k}>"  # pragma: no cover


class NuResult(Value):
    __slots__ = ("nu", "case", "sork_of_complexification", "certificate")
    nu: int
    case: NuCase
    sork_of_complexification: int
    certificate: OrthCertificate | None

    def __init__(self, nu: int, case: NuCase, sork_of_complexification: int,
                 certificate: OrthCertificate | None = None):
        _set(self, "nu", nu)
        _set(self, "case", case)
        _set(self, "sork_of_complexification", sork_of_complexification)
        _set(self, "certificate", certificate)


def complex_simple(t: RootSystemType) -> RealFormDescriptor:
    _require_simple_type(t)
    return RealFormDescriptor("complex", base=t)


def split_form(t: RootSystemType) -> RealFormDescriptor:
    _require_simple_type(t)
    return RealFormDescriptor("split", base=t)


def compact_form(t: RootSystemType) -> RealFormDescriptor:
    _require_simple_type(t)
    return RealFormDescriptor("compact", base=t)


def _require_simple_type(t: RootSystemType) -> None:
    if t.family == "D" and t.rank == 2:
        raise InvalidRealForm("D2 is not simple (it is A1 x A1)")


def su(p: int, q: int) -> RealFormDescriptor:
    p, q = max(p, q), min(p, q)
    if q == 0:
        if p < 2:
            _fail(f"su({p},{q})")
        return compact_form(RootSystemType("A", p - 1))
    if p < 1 or q < 1:
        _fail(f"su({p},{q})")
    return RealFormDescriptor("su", (p, q))


def sl_R(n: int) -> RealFormDescriptor:
    if n < 2:
        _fail(f"sl({n},R)")
    return split_form(RootSystemType("A", n - 1))


def sl_H(n: int) -> RealFormDescriptor:
    if n < 1:
        _fail(f"sl({n},H)")
    if n == 1:
        # sl(1,H) = su(2)
        return compact_form(RootSystemType("A", 1))
    return RealFormDescriptor("sl_H", (n,))


def so(p: int, q: int) -> RealFormDescriptor:
    p, q = max(p, q), min(p, q)
    n = p + q
    if n < 3 or q < 0:
        _fail(f"so({p},{q})")
    if q == 0:
        if n == 4:
            raise InvalidRealForm("so(4) is not simple")
        if n % 2 == 1:
            return compact_form(RootSystemType("B", (n - 1) // 2))
        return compact_form(RootSystemType("D", n // 2))
    if n == 4:
        if (p, q) == (3, 1):
            # accidental isomorphism so(3,1) = sl2(C)
            return complex_simple(RootSystemType("A", 1))
        raise InvalidRealForm(f"so({p},{q}) is not simple")
    return RealFormDescriptor("so", (p, q))


def so_star(two_n: int) -> RealFormDescriptor:
    if two_n % 2 or two_n < 6:
        _fail(f"so*({two_n})")
    return RealFormDescriptor("so_star", (two_n // 2,))


def sp_R(n: int) -> RealFormDescriptor:
    if n < 1:
        _fail(f"sp({n},R)")
    return split_form(RootSystemType("C", n))


def sp(p: int, q: int) -> RealFormDescriptor:
    p, q = max(p, q), min(p, q)
    if q == 0:
        if p < 1:
            _fail(f"sp({p},{q})")
        return compact_form(RootSystemType("C", p))
    return RealFormDescriptor("sp", (p, q))


def exceptional_form(family: str, rank: int, signature: int) -> RealFormDescriptor:
    t = RootSystemType(family, rank)
    key = (f"{family}{rank}", signature)
    if key in _EXC_SPLIT:
        return split_form(t)
    if key in _EXC_COMPACT:
        return compact_form(t)
    if key in _EXC_OTHER:
        return RealFormDescriptor("exc", (rank, signature), base=t)
    raise InvalidRealForm(f"unknown exceptional real form {family}{rank}({signature})")


def _fail(descriptor: str) -> None:
    raise InvalidRealForm(f"{descriptor} does not describe a simple Lie algebra")


def complexification_type(d: RealFormDescriptor) -> RootSystemType:
    """Root system type of the complexified algebra (for a complex algebra,
    the underlying complex type, which is what the rank-one case uses)."""
    k = d.kind
    if k in ("complex", "split", "compact", "exc"):
        return d.base
    if k == "su":
        return RootSystemType("A", d.params[0] + d.params[1] - 1)
    if k == "sl_H":
        return RootSystemType("A", 2 * d.params[0] - 1)
    if k == "so":
        n = d.params[0] + d.params[1]
        if n % 2 == 1:
            return RootSystemType("B", (n - 1) // 2)
        return RootSystemType("D", n // 2)
    if k == "so_star":
        return RootSystemType("D", d.params[0])
    if k == "sp":
        return RootSystemType("C", d.params[0] + d.params[1])
    raise InvalidRealForm(f"unknown descriptor kind {k!r}")  # pragma: no cover


def is_sopq_exception(d: RealFormDescriptor) -> bool:
    """True iff d is so(p,q) with p, q odd and p+q divisible by four.

    so(3,1) never reaches here: it is normalized to the complex algebra
    sl2(C) at construction, so the complex-structure case handles it.
    """
    if d.kind != "so":
        return False
    p, q = d.params
    return p % 2 == 1 and q % 2 == 1 and (p + q) % 4 == 0


@lru_cache(maxsize=None)
def _certified_sork(t: RootSystemType) -> tuple[int, OrthCertificate]:
    """The closed-form strong orthogonal rank of ``t`` with the canonical
    certificate that witnesses it, re-checked once per type against the
    built root system."""
    phi = build_root_system(t)
    s = sork_formula(t)
    cert = canonical_certificate(t)
    check = verify_certificate(cert, phi)
    if not check:
        raise AssertionError(
            f"certificate bug: the canonical certificate of {t} fails "
            f"verification ({check.reason})"
        )
    if len(cert.roots) != s:
        raise AssertionError(
            f"certificate bug: the canonical certificate of {t} has "
            f"{len(cert.roots)} roots, the closed formula {s}"
        )
    return s, cert


def nu_simple(d: RealFormDescriptor) -> NuResult:
    """Free subgroup rank of the connected simple Lie group with algebra d.

    The strong orthogonal rank s of the complexification comes from its
    closed formula, witnessed by the closed-form canonical certificate;
    no clique search runs.  The certificate is verified once per
    complexification type, in O(s^2) pairs.
    """
    t = complexification_type(d)
    s, cert = _certified_sork(t)
    if d.kind == "complex":
        return NuResult(s, NuCase.COMPLEX_STRUCTURE, s, cert)
    if is_sopq_exception(d):
        reduced = OrthCertificate(cert.system_type, cert.roots[: s - 1])
        return NuResult(s - 1, NuCase.SOPQ_EXCEPTION, s, reduced)
    return NuResult(s, NuCase.REAL_FORM, s, cert)


def catalog(max_pq: int = 8, max_n: int = 8) -> Iterator[RealFormDescriptor]:
    """Canonical descriptors with bounded parameters, each descriptor once.

    su(1,1) is omitted (it is sl(2,R), already present as the split A1),
    as are the flagged D2/D3 labels for the complex/split/compact series.
    An algebra with two unfolded names, such as so(4,3) and split(B3), is
    listed under both.
    """
    types = list(all_types(max_n, include_flagged_d=False))
    for t in types:
        yield complex_simple(t)
    for t in types:
        yield compact_form(t)
    for t in types:
        yield split_form(t)
    for total in range(3, max_pq + 1):
        for q in range(1, total // 2 + 1):
            yield su(total - q, q)
    for n in range(2, max_n // 2 + 1):
        yield sl_H(n)
    for total in range(5, max_pq + 1):
        for q in range(1, total // 2 + 1):
            yield so(total - q, q)
    for n in range(3, max_n + 1):
        yield so_star(2 * n)
    for total in range(2, max_pq + 1):
        for q in range(1, total // 2 + 1):
            yield sp(total - q, q)
    for (label, sig) in sorted(_EXC_OTHER):
        t = RootSystemType.parse(label)
        if t.rank <= max_n:
            yield exceptional_form(t.family, t.rank, sig)


def nu_one_catalog(max_pq: int = 8, max_n: int = 8) -> list[RealFormDescriptor]:
    """All bounded-parameter catalog algebras with free subgroup rank one."""
    out = []
    for d in catalog(max_pq, max_n):
        if nu_simple(d).nu == 1:
            out.append(d)
    return sorted(set(out))
