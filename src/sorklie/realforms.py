"""Real simple Lie algebras and the three-case free subgroup rank computation.

Each kind of descriptor states its facts once.  A row of ``_KINDS`` gives
the printed name and the complexification type of a parameterised kind
(su, sl_H, so, so_star, sp) as functions of its params; the complex, split,
compact and exceptional kinds carry their type as ``base``, and ``_NAMED``
gives the classical compact and split forms their defining-representation
names (Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces,
1978, Ch. X).  Beside the printer, ``_SPELLINGS`` maps each spelling (a name
and its argument shape) to its builder, and ``spelled`` reads it, so that
reparsing ``str(d)`` gives ``d`` back is a property of this one module.

Descriptors are normalized at construction: split and compact classical
series fold into split(T)/compact(T), the exceptional split and compact
signatures (the rank, minus the dimension) do the same, and so(3,1) becomes
the complex algebra sl2(C).  That is the one accidental isomorphism folded;
the others keep both names, such as so(3,2) and sp(2,R), or so(4,3) and
split(B3), and both names give one ν.

The free subgroup rank takes the canonical certificate of the
complexification from ``sork.canonical_certificate``, verified once per
type per process against the one root system it was found on, and reads
the strong orthogonal rank as its size.  For A, B, C and D the
certificate is a closed form and no clique search runs; for E, F and G it
comes from the exact search.
"""

from collections.abc import Iterator

from .errors import InvalidRealForm
from .roots import RootSystemType, Value, all_types
from .sork import OrthCertificate, canonical_certificate

# Known exceptional real forms by (family, rank, signature), excluding the
# split and compact signatures which normalize to split()/compact().
_EXC_OTHER = {("E", 6, 2), ("E", 6, -14), ("E", 6, -26), ("E", 7, -5),
              ("E", 7, -25), ("E", 8, -24), ("F", 4, -20)}


def _so_type(n: int) -> RootSystemType:
    """The complexification of so(n): B for odd n, D for even n."""
    return RootSystemType("B" if n % 2 else "D", n // 2)


# kind -> (printed name, complexification type), each a function of params.
_KINDS = {
    "su": (lambda p, q: f"su({p},{q})", lambda p, q: RootSystemType("A", p + q - 1)),
    "sl_H": (lambda n: f"sl({n},H)", lambda n: RootSystemType("A", 2 * n - 1)),
    "so": (lambda p, q: f"so({p},{q})", lambda p, q: _so_type(p + q)),
    "so_star": (lambda n: f"so*({2 * n})", lambda n: RootSystemType("D", n)),
    "sp": (lambda p, q: f"sp({p},{q})", lambda p, q: RootSystemType("C", p + q)),
}
# (kind, family) -> name as a function of the rank; the rest print as kind(T).
_NAMED = {
    ("compact", "A"): lambda r: f"su({r + 1})",
    ("compact", "B"): lambda r: f"so({2 * r + 1})",
    ("compact", "C"): lambda r: f"sp({r})",
    ("compact", "D"): lambda r: f"so({2 * r})",
    ("split", "A"): lambda r: f"sl({r + 1},R)",
    ("split", "C"): lambda r: f"sp({r},R)",
}
# The kinds that carry their complexification type as ``base``.
_BASED = ("complex", "split", "compact", "exc")


class NuCase:
    """The three cases of ν, as the strings ``nu --json`` prints."""
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
        if kind not in _KINDS and kind not in _BASED:
            raise InvalidRealForm(f"unknown descriptor kind {kind!r}")
        super().__init__(kind, params, base)

    def __str__(self) -> str:
        if self.kind in _KINDS:
            return _KINDS[self.kind][0](*self.params)
        t = self.base
        if self.kind == "exc":
            return f"{t}({self.params[1]})"
        name = _NAMED.get((self.kind, t.family))
        return name(t.rank) if name else f"{self.kind}({t})"


class NuResult(Value):
    __slots__ = ("nu", "case", "sork_of_complexification", "certificate")
    nu: int
    case: str
    sork_of_complexification: int
    certificate: OrthCertificate


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
    if t.is_reducible:
        raise InvalidRealForm("D2 is not simple (it is A1 x A1)")


def _compact(kind: str, *params: int) -> RealFormDescriptor:
    """The compact form with the complexification of ``kind(params)``."""
    return compact_form(_KINDS[kind][1](*params))


def su(p: int, q: int) -> RealFormDescriptor:
    p, q = max(p, q), min(p, q)
    if q < 0 or p + q < 2:
        _fail(f"su({p},{q})")
    return _compact("su", p, q) if q == 0 else RealFormDescriptor("su", (p, q))


def sl_R(n: int) -> RealFormDescriptor:
    if n < 2:
        _fail(f"sl({n},R)")
    return split_form(RootSystemType("A", n - 1))


def sl_H(n: int) -> RealFormDescriptor:
    if n < 1:
        _fail(f"sl({n},H)")
    # sl(1,H) = su(2)
    return _compact("sl_H", n) if n == 1 else RealFormDescriptor("sl_H", (n,))


def so(p: int, q: int) -> RealFormDescriptor:
    p, q = max(p, q), min(p, q)
    n = p + q
    if n < 3 or q < 0:
        _fail(f"so({p},{q})")
    if q == 0:
        if n == 4:
            raise InvalidRealForm("so(4) is not simple")
        return _compact("so", p, q)
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
    if q < 0 or p < 1:
        _fail(f"sp({p},{q})")
    return _compact("sp", p, q) if q == 0 else RealFormDescriptor("sp", (p, q))


def exceptional_form(family: str, rank: int, signature: int) -> RealFormDescriptor:
    """The real form of E, F or G with the given signature; the split form
    has signature rank, the compact form minus the dimension."""
    t = RootSystemType(family, rank)
    if t.family in "EFG":
        if signature == rank:
            return split_form(t)
        if signature == -(t.root_count() + rank):
            return compact_form(t)
    if (family, rank, signature) in _EXC_OTHER:
        return RealFormDescriptor("exc", (rank, signature), base=t)
    raise InvalidRealForm(f"unknown exceptional real form {family}{rank}({signature})")


def _fail(descriptor: str) -> None:
    raise InvalidRealForm(f"{descriptor} does not describe a simple Lie algebra")


# (name, argument shape) -> builder called with the arguments other than R
# and H.  The shape has "n" for an integer, "T" for a type, and R or H itself.
_SPELLINGS = {
    ("su", ("n",)): lambda n: su(n, 0),
    ("su", ("n", "n")): su,
    ("sl", ("n", "R")): sl_R,
    ("sl", ("n", "H")): sl_H,
    ("so", ("n",)): lambda n: so(n, 0),
    ("so", ("n", "n")): so,
    ("so*", ("n",)): so_star,
    ("sp", ("n",)): lambda n: sp(n, 0),
    ("sp", ("n", "R")): sp_R,
    ("sp", ("n", "n")): sp,
    ("complex", ("T",)): complex_simple,
    ("split", ("T",)): split_form,
    ("compact", ("T",)): compact_form,
}


def spelled(name: str, args: list) -> RealFormDescriptor | None:
    """The descriptor ``name(args)`` spells in any case, so that
    ``spelled`` reads what ``str`` writes; None if no spelling of ``name``
    takes arguments of this shape.  An exceptional label (E8, e08: as
    ``RootSystemType.parse`` reads it) takes one integer, its signature."""
    shape = tuple("n" if isinstance(a, int) else "T" if isinstance(a, RootSystemType)
                  else a for a in args)
    if name[:1].upper() in "EFG" and name[1:].isdigit() and shape == ("n",):
        t = RootSystemType.parse(name)
        return exceptional_form(t.family, t.rank, *args)
    builder = _SPELLINGS.get((name.lower(), shape))
    return None if builder is None else builder(*(a for a in args if not isinstance(a, str)))


def complexification_type(d: RealFormDescriptor) -> RootSystemType:
    """Root system type of the complexified algebra (for a complex algebra,
    the underlying complex type, which is what the rank-one case uses)."""
    return d.base if d.kind in _BASED else _KINDS[d.kind][1](*d.params)


def is_sopq_exception(d: RealFormDescriptor) -> bool:
    """True iff d is so(p,q) with p, q odd and p+q divisible by four.

    so(3,1) never reaches here: it is normalized to the complex algebra
    sl2(C) at construction, so the complex-structure case handles it.
    """
    if d.kind != "so":
        return False
    p, q = d.params
    return p % 2 == 1 and q % 2 == 1 and (p + q) % 4 == 0


def nu_simple(d: RealFormDescriptor) -> NuResult:
    """Free subgroup rank of the connected simple Lie group with algebra d.

    The strong orthogonal rank s of the complexification is the size of
    its canonical certificate, which is a closed form for A, B, C and D, so
    no clique search runs; for E, F and G the exact search finds it.
    ``canonical_certificate`` verifies it once per type per process,
    against the one root system it was found on, in O(s^2) pairs.
    """
    cert = canonical_certificate(complexification_type(d))
    s = len(cert.roots)
    if d.kind == "complex":
        return NuResult(s, NuCase.COMPLEX_STRUCTURE, s, cert)
    if is_sopq_exception(d):
        reduced = OrthCertificate(cert.system_type, cert.roots[: s - 1])
        return NuResult(s - 1, NuCase.SOPQ_EXCEPTION, s, reduced)
    return NuResult(s, NuCase.REAL_FORM, s, cert)


def catalog(bound: int = 8) -> Iterator[RealFormDescriptor]:
    """Canonical descriptors with parameters bounded by ``bound``, each
    descriptor once.

    su(1,1) is omitted (it is sl(2,R), already present as the split A1),
    as are the flagged D2/D3 labels for the complex/split/compact series.
    An algebra with two unfolded names, such as so(4,3) and split(B3), is
    listed under both.
    """
    for t in all_types(bound, include_flagged_d=False):
        yield from (complex_simple(t), compact_form(t), split_form(t))
    # least p + q with q >= 1 that gives a canonical, unfolded descriptor
    for build, least in ((su, 3), (so, 5), (sp, 2)):
        for total in range(least, bound + 1):
            for q in range(1, total // 2 + 1):
                yield build(total - q, q)
    yield from (sl_H(n) for n in range(2, bound // 2 + 1))
    yield from (so_star(2 * n) for n in range(3, bound + 1))
    for family, rank, sig in sorted(_EXC_OTHER):
        if rank <= bound:
            yield exceptional_form(family, rank, sig)
