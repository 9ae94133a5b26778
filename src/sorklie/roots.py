"""Irreducible root systems in exact doubled-integer coordinates.

A root is the tuple of its doubled coordinates: twice the true Euclidean
coordinates, so the half-integer entries of E8 and F4 become odd integers
and all predicates reduce to integer comparisons.  Every layer passes roots
as these plain tuples, and ``coords in phi`` is the one membership test.

Every family is built from three root shapes (Humphreys, *Introduction to
Lie Algebras and Representation Theory*, §12.1): ±e_i ± e_j for i < j, with
all four sign pairs or only opposite signs; ±e_i or ±2e_i; and the
half-spin vectors (±1/2, ..., ±1/2), all of them or those with an even
number of minus signs.  A-D come straight from the shapes.  E8 is D8 plus
the even half-spin vectors, and E7 and E6 are its roots orthogonal to
e7 + e8, then also to e6 + e8.  F4 is B4 plus all half-spin vectors, and
G2 is A2 plus ±(2e_i - e_j - e_k).
"""

import itertools
from collections.abc import Iterable, Iterator

from .errors import MAX_BUILD_RANK, MAX_DIGITS, InvalidType

# Root counts, used as a construction self-check: a formula in the rank for
# a classical family, the count at each rank for an exceptional one.
_CARDINALITY = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}

# The classical families as matrix algebras: X_r is the algebra named here of
# n x n complex matrices, n = c*r + e.  So C_r is sp(2r): sp(n) is n x n.
_MATRICES = {"A": ("sl", 1, 1), "B": ("so", 2, 1), "C": ("sp", 2, 0), "D": ("so", 2, 0)}

# The family table: each family letter, in order, with its valid ranks.  A
# classical family has every rank from the smallest one given here, an
# exceptional family the ranks it has a root count for.
_FAMILY_TABLE = {"A": 1, "B": 2, "C": 2, "D": 2, **{f: _CARDINALITY[f] for f in "EFG"}}


def _ranks(family: str, max_rank: int) -> Iterable[int]:
    """The valid ranks of ``family`` up to ``max_rank``, ascending."""
    ranks = _FAMILY_TABLE[family]
    if isinstance(ranks, int):
        return range(ranks, max_rank + 1)
    return [r for r in ranks if r <= max_rank]


_set = object.__setattr__  # how Value.__init__ writes the fields


class Value:
    """Base of the immutable records of every layer.

    A subclass lists its fields in ``__slots__``, and ``Value.__init__``
    binds its arguments to them in slot order, as a dataclass would: a
    missing field, an extra argument or an unknown keyword is a
    :class:`TypeError`.  A subclass that checks, normalises or defaults an
    argument does so in its own ``__init__``, which ends in
    ``super().__init__``.  Equality, hashing, order and ``repr`` are keyed
    on the tuple of the fields, and an instance equals or orders only
    against one of the same class.  Only ``<`` and ``<=`` are defined:
    Python answers ``a > b`` and ``a >= b`` as ``b < a`` and ``b <= a``.
    Fields whose names start with an underscore are left out of ``repr``.
    Assigning or deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:  # the fields after the positional ones, in slot order
            args += tuple([kwargs.pop(name) for name in names[len(args):]
                           if name in kwargs])
        if kwargs or len(args) != len(names):  # a field left over or missing
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields "
                            f"{', '.join(names)}, once each")
        for name, value in zip(names, args):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._key() <= other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment refuses
        return self.__class__, self._key()


class RootSystemType(Value):
    """A family letter A-G together with a rank.

    Low rank aliases are normalized at construction: B1 and C1 become A1.
    D2 and D3 are constructible but flagged (D2 is reducible of type A1 x A1,
    D3 is isomorphic to A3).
    """

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __init__(self, family: str, rank: int):
        if family not in _FAMILY_TABLE:
            raise InvalidType(f"unknown family {family!r}; expected one of A-G")
        if rank < 1:
            raise InvalidType(f"rank must be positive, got {rank}")
        if family in ("B", "C") and rank == 1:
            family = "A"  # low rank isomorphism B1 = C1 = A1
        elif rank not in _ranks(family, rank):
            raise InvalidType(f"rank {rank} out of bounds for family {family}")
        super().__init__(family, rank)

    @property
    def is_reducible(self) -> bool:
        """D2 is not irreducible (it is A1 x A1)."""
        return self.family == "D" and self.rank == 2

    @property
    def low_rank_alias(self) -> str | None:
        if self.family == "D" and self.rank == 2:
            return "A1 x A1"
        if self.family == "D" and self.rank == 3:
            return "A3"
        return None

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "RootSystemType":
        text = text.strip()
        rank = text[1:]
        if (len(text) < 2 or text[0].upper() not in _FAMILY_TABLE
                or not (rank.isascii() and rank.isdigit())):
            raise InvalidType(f"cannot parse root system type {text!r}")
        if len(rank) > MAX_DIGITS:
            raise InvalidType(f"rank has more than {MAX_DIGITS} digits")
        return cls(text[0].upper(), int(rank))

    def root_count(self) -> int:
        entry = _CARDINALITY[self.family]
        return entry(self.rank) if callable(entry) else entry[self.rank]


def matrix_size(family: str, rank: int) -> int:
    """The n of the n x n matrices of the classical type family_rank."""
    _, c, e = _MATRICES[family]
    return c * rank + e


def matrix_rank(family: str, n: int) -> int | None:
    """The rank r of family_r on n x n matrices, or None where ``RootSystemType``
    refuses family_r, read before the low rank aliases fold: so(3) gives B1."""
    _, c, e = _MATRICES[family]
    r, rest = divmod(n - e, c)
    return r if not rest and (r >= _FAMILY_TABLE[family] or family in "BC" and r == 1) else None


def matrix_type(algebra: str, n: int) -> RootSystemType:
    """The type of sl(n), so(n) or sp(n), the algebra of n x n matrices."""
    for family, (name, _, _) in _MATRICES.items():
        if name == algebra and (r := matrix_rank(family, n)):
            return RootSystemType(family, r)
    raise InvalidType(f"{algebra}({n}) has no root system type")


class RootSystem(Value):
    """The full set of roots of one type, sorted; ``coords in phi`` tests
    membership of a tuple."""

    __slots__ = ("type", "roots", "ambient_dim", "_coord_set")
    type: RootSystemType
    roots: tuple[tuple[int, ...], ...]
    ambient_dim: int
    _coord_set: frozenset[tuple[int, ...]]

    def __contains__(self, coords: tuple[int, ...]) -> bool:
        return coords in self._coord_set

    def positive_representatives(self) -> tuple[tuple[int, ...], ...]:
        """One root per antipodal pair, the lexicographically greater one,
        returned in ascending lexicographic order.

        The roots are sorted and negation reverses lexicographic order, so
        the greater root of each pair lies above the zero tuple and these
        are exactly the upper half of ``roots``."""
        return self.roots[len(self.roots) // 2:]

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.type),
            "ambient_dim": self.ambient_dim,
            "doubled_coords": [list(r) for r in self.roots],
        }


def _vec(dim: int, *entries: tuple[int, int]) -> tuple[int, ...]:
    """The vector of length ``dim`` with the given (index, value) entries
    and zeros elsewhere."""
    v = [0] * dim
    for i, c in entries:
        v[i] = c
    return tuple(v)


def _pairs(dim: int, signs=((1, 1), (1, -1), (-1, 1), (-1, -1))) -> list[tuple[int, ...]]:
    """±e_i ± e_j for i < j, with each (sign of e_i, sign of e_j) in ``signs``."""
    return [_vec(dim, (i, 2 * si), (j, 2 * sj))
            for i in range(dim) for j in range(i + 1, dim) for si, sj in signs]


def _axes(dim: int, c: int) -> list[tuple[int, ...]]:
    """±(c/2) e_i."""
    return [_vec(dim, (i, s)) for i in range(dim) for s in (c, -c)]


def _half_spin(dim: int, even: bool) -> list[tuple[int, ...]]:
    """(±1/2, ..., ±1/2); with ``even``, only those with an even number of
    minus signs."""
    return [v for v in itertools.product((1, -1), repeat=dim)
            if not even or v.count(-1) % 2 == 0]


def _roots(t: RootSystemType) -> list[tuple[int, ...]]:
    """The roots of ``t``, unsorted."""
    fam, r = t.family, t.rank
    if fam == "A":
        return _pairs(r + 1, ((1, -1), (-1, 1)))
    if fam in "BC":  # the short roots ±e_i of B, the long roots ±2e_i of C
        return _pairs(r) + _axes(r, 2 if fam == "B" else 4)
    if fam == "D":
        return _pairs(r)
    if fam == "E":
        # E7 is orthogonal to e7 + e8, E6 also to e6 + e8
        e8 = _pairs(8) + _half_spin(8, even=True)
        return [v for v in e8
                if r == 8 or v[6] + v[7] == 0 and (r == 7 or v[5] + v[7] == 0)]
    if fam == "F":
        return _roots(RootSystemType("B", 4)) + _half_spin(4, even=False)
    g2 = [_vec(3, (i, 4 * s), ((i + 1) % 3, -2 * s), ((i + 2) % 3, -2 * s))
          for i in range(3) for s in (1, -1)]
    return _roots(RootSystemType("A", 2)) + g2


def build_root_system(t: RootSystemType) -> RootSystem:
    """Construct the root system of type ``t``.

    Deterministic: roots come out sorted lexicographically on doubled
    coordinates.  Raises :class:`InvalidType` for out-of-bounds ranks and,
    before anything of that size is allocated, for ranks above
    :data:`MAX_BUILD_RANK`.
    """
    if t.rank > MAX_BUILD_RANK:
        raise InvalidType(
            f"rank {t.rank} of {t} exceeds the construction limit "
            f"{MAX_BUILD_RANK}"
        )
    coords = sorted(set(_roots(t)))
    if len(coords) != t.root_count():
        raise AssertionError(
            f"construction bug: {t} produced {len(coords)} roots, "
            f"expected {t.root_count()}"
        )
    return RootSystem(
        type=t,
        roots=tuple(coords),
        ambient_dim=len(coords[0]),
        _coord_set=frozenset(coords),
    )


def all_types(max_rank: int, include_flagged_d: bool = True) -> Iterator[RootSystemType]:
    """All constructible types with rank <= max_rank, family by family in
    the order A-G; D2 and D3 only with ``include_flagged_d``."""
    for fam in _FAMILY_TABLE:
        for r in _ranks(fam, max_rank):
            t = RootSystemType(fam, r)
            if include_flagged_d or t.low_rank_alias is None:
                yield t
