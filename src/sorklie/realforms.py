"""Real simple Lie algebras and the three-case free subgroup rank computation.

``_KINDS`` is the one table of descriptor kinds.  Its row for each of su,
sl_H, so, so_star, sp, complex, split, compact and exc gives the kind's
printer, its complexification and its builder, each called with the base
and then the params of a descriptor.  A parameterised kind complexifies to
a matrix algebra of the family table in ``roots``, and ``_simple`` holds the
one rule for which params are simple: those whose algebra has a type that
is not reducible, so(3,1) = sl(2,C) aside.  The complex, split, compact
and exceptional kinds carry their type as ``base``, and the split
and compact printers name the classical forms by the matrix size of their
type, but sp by half of it (Helgason, Differential Geometry, Lie Groups,
and Symmetric Spaces, 1978, Ch. X).  Beside the printer, ``_SPELLINGS``
maps each spelling (a name and its argument shape) to its builder, and
``spelled`` reads it, so that reparsing ``str(d)`` gives ``d`` back is a
property of this one module.

Descriptors are normalized by their builders: split and compact classical
series fold into split(T)/compact(T), the exceptional split and compact
signatures (the rank, minus the dimension) do the same, su(1,1) becomes
sl(2,R) = split(A1), as sp(1,R) does, and so(3,1) becomes the complex
algebra sl2(C).  Those are the accidental isomorphisms folded; the others
keep both names, such as so(2,1) and sl(2,R), so(3,2) and sp(2,R), or
so(4,3) and split(B3), and both names give one ν.  The constructor checks
every kind, based kinds included: it calls the kind's builder and accepts
only the fields that it makes unchanged, so every descriptor is one that a
builder makes.

The free subgroup rank takes the canonical certificate of the
complexification from ``sork.canonical_certificate``, verified once per
type per process by the checker in ``check`` against the one root system
it was found on, and reads the strong orthogonal rank as its size.  For A,
B, C and D the certificate is a closed form and no clique search runs; for
E, F and G it comes from the exact search.
"""

from collections.abc import Iterator

from .check import OrthCertificate
from .errors import InvalidRealForm, InvalidType
from .roots import RootSystemType, Value, all_types, matrix_size, matrix_type
from .sork import canonical_certificate

# Known exceptional real forms by (family, rank, signature), excluding the
# split and compact signatures which normalize to split()/compact().
_EXC_OTHER = {("E", 6, 2), ("E", 6, -14), ("E", 6, -26), ("E", 7, -5),
              ("E", 7, -25), ("E", 8, -24), ("F", 4, -20)}


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
        if kind not in _KINDS:
            raise InvalidRealForm(f"unknown descriptor kind {kind!r}")
        made = _KINDS[kind][2](base, *params)  # raises for fields it refuses
        if (made.kind, made.params, made.base) != (kind, params, base):
            raise InvalidRealForm(f"params {params} and base {base} of {kind!r} build {made}")
        super().__init__(kind, params, base)

    def __str__(self) -> str:
        return _KINDS[self.kind][0](self.base, *self.params)


class NuResult(Value):
    __slots__ = ("nu", "case", "sork_of_complexification", "certificate")
    nu: int
    case: str
    sork_of_complexification: int
    certificate: OrthCertificate


def complex_simple(t: RootSystemType) -> RealFormDescriptor:
    return _made("complex", base=_require_simple_type(t))


def split_form(t: RootSystemType) -> RealFormDescriptor:
    return _made("split", base=_require_simple_type(t))


def compact_form(t: RootSystemType) -> RealFormDescriptor:
    return _made("compact", base=_require_simple_type(t))


def _require_simple_type(t: RootSystemType) -> RootSystemType:
    """``t``, if it is the type of a simple algebra."""
    if not isinstance(t, RootSystemType):
        raise InvalidRealForm(f"{t!r} is not a root system type")
    if t.is_reducible:
        raise InvalidRealForm(f"{t} is not simple (it is {t.low_rank_alias})")
    return t


def _made(kind: str, *params: int, base: RootSystemType | None = None) -> RealFormDescriptor:
    """The descriptor with these fields as its builder makes it, past the
    constructor, whose check calls that builder."""
    d = object.__new__(RealFormDescriptor)
    Value.__init__(d, kind, params, base)
    return d


def su(p: int, q: int) -> RealFormDescriptor:
    t = _simple("su", p, q)
    p, q = max(p, q), min(p, q)
    if q == 1 == p:
        return sl_R(2)  # su(1,1) = sl(2,R)
    return compact_form(t) if q == 0 else _made("su", p, q)


def sl_R(n: int) -> RealFormDescriptor:
    return split_form(_simple("su", n, 0, name=f"sl({n},R)"))  # complexifies as su(n)


def sl_H(n: int) -> RealFormDescriptor:
    t = _simple("sl_H", n)
    return compact_form(t) if n == 1 else _made("sl_H", n)  # sl(1,H) = su(2)


def so(p: int, q: int) -> RealFormDescriptor:
    t = _simple("so", p, q)
    p, q = max(p, q), min(p, q)
    if (p, q) == (3, 1):  # accidental isomorphism so(3,1) = sl2(C)
        return complex_simple(RootSystemType("A", 1))
    return compact_form(t) if q == 0 else _made("so", p, q)


def so_star(two_n: int) -> RealFormDescriptor:
    if two_n % 2:
        _fail(f"so*({two_n})")
    _simple("so_star", two_n // 2)
    return _made("so_star", two_n // 2)


def sp_R(n: int) -> RealFormDescriptor:
    return split_form(_simple("sp", n, 0, name=f"sp({n},R)"))  # complexifies as sp(n)


def sp(p: int, q: int) -> RealFormDescriptor:
    t = _simple("sp", p, q)
    p, q = max(p, q), min(p, q)
    return compact_form(t) if q == 0 else _made("sp", p, q)


def _simple(kind: str, *params: int, name: str | None = None) -> RootSystemType:
    """The type of the complexification of ``kind(params)`` as written, if
    that is simple: no param is negative, and the type exists and is not
    reducible (Helgason, Ch. X), so(3,1) = sl(2,C) aside, whose type is D2.
    A refusal names it ``name`` or as the kind prints it."""
    name = name or _KINDS[kind][0](None, *params)
    try:
        t = _KINDS[kind][1](None, *params)
    except InvalidType:
        t = None
    if t is None or min(params) < 0:
        _fail(name)
    if t.is_reducible and (kind, sorted(params)) != ("so", [1, 3]):
        raise InvalidRealForm(f"{name} is not simple")
    return t


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
        return _made("exc", rank, signature, base=t)
    raise InvalidRealForm(f"unknown exceptional real form {family}{rank}({signature})")


def _fail(descriptor: str) -> None:
    raise InvalidRealForm(f"{descriptor} does not describe a simple Lie algebra")


def _exc(t: RootSystemType, rank: int, signature: int) -> RealFormDescriptor:
    """The builder of exc, which reads the family and the rank off ``t``."""
    return exceptional_form(_require_simple_type(t).family, t.rank, signature)


def _matrices(algebra: str, times: int):
    """The complexification of a parameterised kind: the ``algebra`` of
    n x n matrices, n the sum of the params times ``times``."""
    return lambda t, *params: matrix_type(algebra, times * sum(params))


def _base(t: RootSystemType, *params: int) -> RootSystemType:
    return t


def _named(kind: str, names: dict):
    """The printer of split or compact: the name in ``names`` of the family
    of the type, called with its matrix size, or else kind(T)."""
    def printer(t: RootSystemType) -> str:
        name = names.get(t.family)
        return name(matrix_size(t.family, t.rank)) if name else f"{kind}({t})"
    return printer


# kind -> (printer, complexification, builder), each called with the base
# and then the params of a descriptor of the kind.
_KINDS = {
    "su": (lambda t, p, q: f"su({p},{q})", _matrices("sl", 1), lambda t, p, q: su(p, q)),
    "sl_H": (lambda t, n: f"sl({n},H)", _matrices("sl", 2), lambda t, n: sl_H(n)),
    "so": (lambda t, p, q: f"so({p},{q})", _matrices("so", 1), lambda t, p, q: so(p, q)),
    "so_star": (lambda t, n: f"so*({2 * n})", _matrices("so", 2),
                lambda t, n: so_star(2 * n)),
    "sp": (lambda t, p, q: f"sp({p},{q})", _matrices("sp", 2), lambda t, p, q: sp(p, q)),
    "complex": (lambda t: f"complex({t})", _base, complex_simple),
    "split": (_named("split", {"A": lambda n: f"sl({n},R)",
                               "C": lambda n: f"sp({n // 2},R)"}), _base, split_form),
    "compact": (_named("compact", {"A": lambda n: f"su({n})", "B": lambda n: f"so({n})",
                                   "C": lambda n: f"sp({n // 2})",
                                   "D": lambda n: f"so({n})"}), _base, compact_form),
    "exc": (lambda t, rank, signature: f"{t}({signature})", _base, _exc),
}


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
    return _KINDS[d.kind][1](d.base, *d.params)


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

    su(1,1) is omitted (its builder makes sl(2,R), the split A1), as are
    the flagged D2/D3 labels for the complex/split/compact series.
    An algebra with two unfolded names, such as so(4,3) and split(B3), is
    listed under both, but for so(2,1): it is sl(2,R), listed as the split
    A1, and the so family starts at so(4,1).
    """
    for t in all_types(bound, include_flagged_d=False):
        yield from (complex_simple(t), compact_form(t), split_form(t))
    # least p + q with q >= 1 that gives a canonical, unfolded descriptor,
    # but for so(2,1) = sl(2,R), which so skips
    for build, least in ((su, 3), (so, 5), (sp, 2)):
        for total in range(least, bound + 1):
            for q in range(1, total // 2 + 1):
                yield build(total - q, q)
    yield from (sl_H(n) for n in range(2, bound // 2 + 1))
    yield from (so_star(2 * n) for n in range(3, bound + 1))
    for family, rank, sig in sorted(_EXC_OTHER):
        if rank <= bound:
            yield exceptional_form(family, rank, sig)
