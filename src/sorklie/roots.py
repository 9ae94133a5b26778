"""Irreducible root systems in exact doubled-integer coordinates.

Every coordinate stored here is twice the true Euclidean coordinate, so the
half-integer entries of the E family become odd integers and all predicates
reduce to integer comparisons.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import InvalidType, MembershipError

_FAMILIES = "ABCDEFG"

# Largest rank that build_root_system materialises.  Labels of any rank
# still parse, since closed formulas and table audits need no roots; above
# this cap construction is refused before a single root is built (B64 has
# 8192 roots, while A99999999 would never finish).
MAX_BUILD_RANK = 64

# Classical root counts, used as a construction self-check.
_CARDINALITY = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": {6: 72, 7: 126, 8: 240},
    "F": {4: 48},
    "G": {2: 12},
}


_set = object.__setattr__  # how a Value's __init__ writes its fields


class Value:
    """Base of the immutable records of every layer.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``object.__setattr__``; its arguments are the
    fields in slot order.  Equality, hashing, order and ``repr`` are keyed
    on the tuple of the fields, and an instance equals or orders only
    against one of the same class.  Fields whose names start with an
    underscore are left out of ``repr``.  Assigning or deleting a field
    raises :class:`AttributeError`.
    """

    __slots__ = ()

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

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._key() > other._key()
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._key() >= other._key()
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
        if family not in _FAMILIES:
            raise InvalidType(f"unknown family {family!r}; expected one of A-G")
        if rank < 1:
            raise InvalidType(f"rank must be positive, got {rank}")
        if family in ("B", "C") and rank == 1:
            family = "A"  # low rank isomorphism B1 = C1 = A1
        elif not {
            "A": rank >= 1,
            "B": rank >= 2,
            "C": rank >= 2,
            "D": rank >= 2,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }[family]:
            raise InvalidType(f"rank {rank} out of bounds for family {family}")
        _set(self, "family", family)
        _set(self, "rank", rank)

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
        if (len(text) < 2 or text[0].upper() not in _FAMILIES
                or not (rank.isascii() and rank.isdigit())):
            raise InvalidType(f"cannot parse root system type {text!r}")
        return cls(text[0].upper(), int(rank))

    def root_count(self) -> int:
        entry = _CARDINALITY[self.family]
        return entry(self.rank) if callable(entry) else entry[self.rank]


class Root(Value):
    """A root stored as doubled coordinates (all entries are integers)."""

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        if not any(coords):
            raise InvalidType("a root cannot be the zero vector")
        _set(self, "coords", coords)

    # Hot in sets and lookups: read the one field directly.

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        """The true coordinates: an integer, or an odd numerator over 2."""
        return "(" + ", ".join(str(c // 2) if c % 2 == 0 else f"{c}/2"
                               for c in self.coords) + ")"


def _vadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


class RootSystem(Value):
    """The full set of roots of one type, with simple roots in Bourbaki order."""

    __slots__ = ("type", "roots", "simple_roots", "ambient_dim", "_coord_set")
    type: RootSystemType
    roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]
    ambient_dim: int
    _coord_set: frozenset[tuple[int, ...]]

    def __init__(self, type: RootSystemType, roots: tuple[Root, ...],
                 simple_roots: tuple[Root, ...], ambient_dim: int,
                 _coord_set: frozenset[tuple[int, ...]]):
        _set(self, "type", type)
        _set(self, "roots", roots)
        _set(self, "simple_roots", simple_roots)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "_coord_set", _coord_set)

    def __contains__(self, root: Root) -> bool:
        return root.coords in self._coord_set

    def contains_coords(self, coords: tuple[int, ...]) -> bool:
        return coords in self._coord_set

    def require_member(self, root: Root) -> None:
        if root not in self:
            raise MembershipError(f"{root} is not a root of {self.type}")

    def positive_representatives(self) -> tuple[Root, ...]:
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
            "doubled_coords": [list(r.coords) for r in self.roots],
        }


def _classical_roots(t: RootSystemType) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    fam, r = t.family, t.rank

    def unit(i: int, dim: int, scale: int = 2) -> tuple[int, ...]:
        v = [0] * dim
        v[i] = scale
        return tuple(v)

    def pair(i: int, j: int, si: int, sj: int, dim: int) -> tuple[int, ...]:
        v = [0] * dim
        v[i] = 2 * si
        v[j] = 2 * sj
        return tuple(v)

    if fam == "A":
        dim = r + 1
        roots = [pair(i, j, 1, -1, dim) for i in range(dim) for j in range(dim) if i != j]
        simple = [pair(i, i + 1, 1, -1, dim) for i in range(r)]
        return roots, simple

    dim = r
    pm = [(i, j, si, sj) for i in range(r) for j in range(i + 1, r)
          for si in (1, -1) for sj in (1, -1)]
    long_short = [pair(*p, dim) for p in pm]
    chain = [pair(i, i + 1, 1, -1, dim) for i in range(r - 1)]

    if fam == "B":
        roots = long_short + [unit(i, dim, s) for i in range(r) for s in (2, -2)]
        simple = chain + [unit(r - 1, dim, 2)]
    elif fam == "C":
        roots = long_short + [unit(i, dim, s) for i in range(r) for s in (4, -4)]
        simple = chain + [unit(r - 1, dim, 4)]
    elif fam == "D":
        roots = long_short
        simple = chain + [pair(r - 2, r - 1, 1, 1, dim)]
    else:  # pragma: no cover
        raise InvalidType(f"not a classical family: {fam}")
    return roots, simple


def _e8_roots() -> list[tuple[int, ...]]:
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    return roots


# Bourbaki simple roots of E8, doubled.
_E8_SIMPLE = [
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
]


def _exceptional_roots(t: RootSystemType) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    fam, r = t.family, t.rank
    if fam == "E":
        e8 = _e8_roots()
        if r == 8:
            return e8, list(_E8_SIMPLE)
        if r == 7:
            # roots of E8 orthogonal to e7 + e8
            roots = [v for v in e8 if v[6] + v[7] == 0]
            return roots, list(_E8_SIMPLE[:7])
        # E6: additionally orthogonal to e6 + e8
        roots = [v for v in e8 if v[6] + v[7] == 0 and v[5] + v[7] == 0]
        return roots, list(_E8_SIMPLE[:6])
    if fam == "F":
        roots: list[tuple[int, ...]] = []
        for i in range(4):
            for s in (2, -2):
                v = [0] * 4
                v[i] = s
                roots.append(tuple(v))
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (2, -2):
                    for sj in (2, -2):
                        v = [0] * 4
                        v[i], v[j] = si, sj
                        roots.append(tuple(v))
        roots.extend(itertools.product((1, -1), repeat=4))
        simple = [
            (0, 2, -2, 0),
            (0, 0, 2, -2),
            (0, 0, 0, 2),
            (1, -1, -1, -1),
        ]
        return roots, simple
    if fam == "G":
        roots = []
        for i, j in itertools.permutations(range(3), 2):
            v = [0] * 3
            v[i], v[j] = 2, -2
            roots.append(tuple(v))
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            for s in (1, -1):
                v = [0] * 3
                v[i], v[j], v[k] = 4 * s, -2 * s, -2 * s
                roots.append(tuple(v))
        simple = [(2, -2, 0), (-4, 2, 2)]
        return roots, simple
    raise InvalidType(f"not an exceptional family: {fam}")  # pragma: no cover


def require_buildable(t: RootSystemType) -> None:
    """Raise :class:`InvalidType` if the rank of ``t`` exceeds
    :data:`MAX_BUILD_RANK`, before anything of that size is allocated."""
    if t.rank > MAX_BUILD_RANK:
        raise InvalidType(
            f"rank {t.rank} of {t} exceeds the construction limit "
            f"{MAX_BUILD_RANK}"
        )


@lru_cache(maxsize=None)
def build_root_system(t: RootSystemType) -> RootSystem:
    """Construct the root system of type ``t`` with Bourbaki simple roots.

    Deterministic: roots come out sorted lexicographically on doubled
    coordinates.  Raises :class:`InvalidType` for out-of-bounds ranks and
    for ranks above :data:`MAX_BUILD_RANK`.
    """
    require_buildable(t)
    if t.family in "ABCD":
        raw, simple = _classical_roots(t)
    else:
        raw, simple = _exceptional_roots(t)
    coords = sorted(set(raw))
    if len(coords) != t.root_count():
        raise AssertionError(
            f"construction bug: {t} produced {len(coords)} roots, "
            f"expected {t.root_count()}"
        )
    roots = tuple(Root(c) for c in coords)
    dim = len(coords[0])
    return RootSystem(
        type=t,
        roots=roots,
        simple_roots=tuple(Root(c) for c in simple),
        ambient_dim=dim,
        _coord_set=frozenset(coords),
    )


def is_closed_subsystem(sigma: Iterable[Root], phi: RootSystem) -> bool:
    """True iff sigma is closed under addition within phi."""
    sig = set(sigma)
    for r in sig:
        phi.require_member(r)
    coord_sig = {r.coords for r in sig}
    for a, b in itertools.combinations(sig, 2):
        s = _vadd(a.coords, b.coords)
        if phi.contains_coords(s) and s not in coord_sig:
            return False
    return True


def all_types(max_rank: int, include_flagged_d: bool = True) -> Iterator[RootSystemType]:
    """All constructible types with rank <= max_rank, plus E/F/G if in range."""
    for r in range(1, max_rank + 1):
        yield RootSystemType("A", r)
    for fam in ("B", "C"):
        for r in range(2, max_rank + 1):
            yield RootSystemType(fam, r)
    d_start = 2 if include_flagged_d else 4
    for r in range(d_start, max_rank + 1):
        yield RootSystemType("D", r)
    for r in (6, 7, 8):
        if r <= max_rank:
            yield RootSystemType("E", r)
    if max_rank >= 4:
        yield RootSystemType("F", 4)
    if max_rank >= 2:
        yield RootSystemType("G", 2)
