"""Independent oracles used to cross-check the fast paths.

Besides the brute-force clique oracle, this holds a generic full-graph
clique solver (greedy colouring bound, lex-min probes), exact
``Fraction`` predicates on roots, with the ``DimensionError`` that
``inner_product`` raises, Bourbaki's simple roots of every type, pinned,
and the ``Fraction`` coefficients of a root in them, a root membership
check with its ``MembershipError``, the closed-subsystem predicate, the
(A1)^n subsystem of a certificate, the rank-one catalog of the
acceptance criteria, the dimension, complex rank and Killing signature
of each real form by arithmetic, the failed entries of an audit report,
which matrix algebras are simple, by size, a Table 2 row enumerator that
solves each family's dimension relation by hand, the ``argparse`` parser
of the CLI grammar, the regex lexer of group expressions, dense integer
matrices with the Kronecker sum, the bracket identity, its dense basis
proof and seeded random trials, and a ``Fraction`` rank.  The package
ships none of them: its one clique search is the orbit search of
``sorklie.sork``, checked here, its Table 2 rows come from one rule in
``sorklie.tables``, checked against the enumerator here, which real forms
and Table 2 factors are simple comes from one rule on the family table of
``sorklie.roots``, checked against the sizes here, its one command line
parser is ``sorklie.cli._parse``, checked against the argparse parser
here, its lexer is the character loop of ``sorklie.groups._tokenize``,
checked against the regex lexer here, its ν of a real form comes from the
complexification's strong orthogonal rank, checked against the signature
here, and its matrix proofs run on the sparse matrices of
``sorklie.matrixcheck``, checked against the dense ones here.
"""

import argparse
import random
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from operator import add, mul

from sorklie import (
    AuditReport,
    CertificateError,
    OrthCertificate,
    RealFormDescriptor,
    RootSystem,
    RootSystemType,
    ShapeError,
    SorklieError,
    nu_simple,
    verify_certificate,
)
from sorklie import cli
from sorklie.errors import MAX_DIGITS, ExprSyntaxError
from sorklie.groups import _Token
from sorklie.realforms import catalog


def neg(r: tuple[int, ...]) -> tuple[int, ...]:
    """The negative of root ``r``, a tuple of doubled coordinates."""
    return tuple(-c for c in r)


def max_clique_bruteforce(neigh: list[int]) -> int:
    """Largest clique by subset enumeration; only for graphs with <= ~16
    vertices.  Deliberately independent of the branch-and-bound solver."""
    n = len(neigh)
    assert n <= 20, "oracle is exponential; keep graphs small"
    best = 0
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(n), size):
            if all(neigh[a] >> b & 1 for a, b in combinations(subset, 2)):
                best = size
                break
        if best:
            break
    return best


def induced_subgraph(neigh: list[int], vertices: list[int]) -> list[int]:
    """Adjacency bitmasks of the subgraph induced on ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for i, v in enumerate(vertices):
        for w in vertices:
            if neigh[v] >> w & 1:
                out[i] |= 1 << index[w]
    return out


def _greedy_color_order(neigh: Sequence[int], cand: int) -> list[tuple[int, int]]:
    """Greedy coloring of the candidate set; returns (vertex, color) with
    colors nondecreasing.  The color of v bounds the largest clique in cand
    containing v and vertices placed earlier."""
    order: list[tuple[int, int]] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        while q:
            b = q & -q
            v = b.bit_length() - 1
            order.append((v, color))
            uncolored ^= b
            q &= ~neigh[v]
            q ^= b
            q &= uncolored
    return order


def max_clique_size(neigh: Sequence[int], cand: int | None = None,
                    stop_at: int | None = None) -> int:
    """Clique number of the graph given by bitmask adjacency ``neigh``,
    restricted to the vertex set ``cand`` (all vertices if None).

    If ``stop_at`` is given, the search returns early once a clique of that
    size is found (the result is then min(clique number, stop_at) or more
    precisely: >= stop_at iff a clique of size stop_at exists).
    """
    n = len(neigh)
    if cand is None:
        cand = (1 << n) - 1
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        order = _greedy_color_order(neigh, cand)
        local = cand
        for v, color in reversed(order):
            if stop_at is not None and best >= stop_at:
                return
            if size + color <= best:
                return
            expand(size + 1, local & neigh[v])
            local &= ~(1 << v)

    expand(0, cand)
    return best


def lex_min_max_clique(neigh: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Clique number, found by a full search, plus the lexicographically
    least maximum clique (as an increasing tuple of vertex indices)."""
    n = len(neigh)
    full = (1 << n) - 1
    size = max_clique_size(neigh, full)
    chosen: list[int] = []
    cand = full
    for v in range(n):
        if len(chosen) == size:
            break
        if not (cand >> v) & 1:
            continue
        need = size - len(chosen) - 1
        rest = cand & neigh[v]
        if max_clique_size(neigh, rest, stop_at=need) >= need:
            chosen.append(v)
            cand = rest
    if len(chosen) != size:
        raise AssertionError(
            f"search bug: extracted a clique of {len(chosen)} vertices, "
            f"expected {size}"
        )
    return size, tuple(chosen)


def strong_orthogonality_graph(
        phi: RootSystem) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Vertices (antipodal representatives in lexicographic order) and
    bitmask adjacency of the strong orthogonality relation.

    For orthogonal roots a, b the reflection s_b maps a+b to a-b, so a+b is
    a root iff a-b is: one lookup decides strong orthogonality.
    """
    reps = phi.positive_representatives()
    n = len(reps)
    neigh = [0] * n
    for i, a in enumerate(reps):
        for j in range(i + 1, n):
            b = reps[j]
            if sum(map(mul, a, b)) == 0 and tuple(map(add, a, b)) not in phi:
                neigh[i] |= 1 << j
                neigh[j] |= 1 << i
    return reps, neigh


class MembershipError(SorklieError, ValueError):
    """A root was passed that does not belong to the given root system."""


def require_member(phi: RootSystem, root: tuple[int, ...]) -> None:
    if root not in phi:
        raise MembershipError(f"{root} is not a root of {phi.type}")


def is_closed_subsystem(sigma: Iterable[tuple[int, ...]], phi: RootSystem) -> bool:
    """True iff sigma is closed under addition within phi."""
    sig = set(sigma)
    for r in sig:
        require_member(phi, r)
    for a, b in combinations(sig, 2):
        s = tuple(map(add, a, b))
        if s in phi and s not in sig:
            return False
    return True


def a1n_subsystem(cert: OrthCertificate) -> frozenset[tuple[int, ...]]:
    """Union of a valid certificate's roots with their negatives.

    The result is a negation-closed, closed subsystem of type (A1)^n.
    Raises :class:`CertificateError` for invalid certificates.
    """
    check = verify_certificate(cert)
    if not check:
        raise CertificateError(f"invalid certificate: {check.reason}")
    out: set[tuple[int, ...]] = set()
    for r in cert.roots:
        out.add(r)
        out.add(neg(r))
    return frozenset(out)


class DimensionError(SorklieError, ValueError):
    """Two vectors live in ambient spaces of different dimension."""


def inner_product(a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
    """Exact Euclidean inner product of the true (undoubled) coordinates."""
    if len(a) != len(b):
        raise DimensionError(f"ambient dimensions differ: {len(a)} != {len(b)}")
    return Fraction(sum(x * y for x, y in zip(a, b)), 4)


def _vsub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def is_strongly_orthogonal(a: tuple[int, ...], b: tuple[int, ...], phi: RootSystem) -> bool:
    """True iff (a, b) = 0 and neither a+b nor a-b is a root of ``phi``."""
    require_member(phi, a)
    require_member(phi, b)
    if inner_product(a, b) != 0:
        return False
    return not (tuple(map(add, a, b)) in phi or _vsub(a, b) in phi)


# Bourbaki's simple roots of E8, F4 and G2, doubled (Bourbaki, *Lie Groups
# and Lie Algebras*, Ch. VI, plates VII-IX); E7 and E6 take the first 7 and 6.
_E8_BASE = [
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
]
_F4_BASE = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
_G2_BASE = [(2, -2, 0), (-4, 2, 2)]


def bourbaki_base(t: RootSystemType) -> list[tuple[int, ...]]:
    """Bourbaki's simple roots of ``t`` in his order, doubled (plates I-IX).

    For A-D: the chain e_i - e_(i+1), r of them for A_r and r - 1 for the
    others, then e_r for B, 2e_r for C and e_(r-1) + e_r for D."""
    fam, r = t.family, t.rank
    if fam in "EFG":
        return {"E": _E8_BASE[:r], "F": _F4_BASE, "G": _G2_BASE}[fam]
    dim = r + 1 if fam == "A" else r
    rows = [{i: 2, i + 1: -2} for i in range(r if fam == "A" else r - 1)]
    if fam != "A":
        rows.append({r - 2: 2, r - 1: 2} if fam == "D" else {r - 1: 2 if fam == "B" else 4})
    return [tuple(row.get(i, 0) for i in range(dim)) for row in rows]


def simple_root_coefficients(root: tuple[int, ...], phi: RootSystem) -> tuple[Fraction, ...]:
    """Coordinates of ``root`` in Bourbaki's simple-root basis, solved
    exactly."""
    require_member(phi, root)
    basis = bourbaki_base(phi.type)
    n = len(basis)
    # Solve the normal equations G x = b over Q (G is the Gram matrix of the
    # simple roots, which is invertible).
    gram = [[sum(a * b for a, b in zip(basis[i], basis[j])) for j in range(n)]
            for i in range(n)]
    rhs = [sum(a * b for a, b in zip(basis[i], root)) for i in range(n)]
    mat = [[Fraction(gram[i][j]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if mat[i][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def nu_one_catalog(bound: int = 8) -> list[RealFormDescriptor]:
    """All bounded-parameter catalog algebras with free subgroup rank one."""
    out = []
    for d in catalog(bound):
        if nu_simple(d).nu == 1:
            out.append(d)
    return sorted(set(out))


def matrix_algebra_is_simple(algebra: str, n: int) -> bool:
    """Whether the complex algebra ``algebra`` (sl, so or sp) of n x n
    matrices is simple, by hand from its size alone: sl(n) for n >= 2,
    so(n) for n = 3 or n >= 5 (so(2) is abelian, so(4) = sl(2) + sl(2)),
    sp(n) for even n >= 2."""
    if algebra == "sl":
        return n >= 2
    if algebra == "so":
        return n == 3 or n >= 5
    return n >= 2 and n % 2 == 0


# Complex dimension of each exceptional simple type.
_EXCEPTIONAL_DIM = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


def _simple_dim(family: str, r: int) -> int:
    """Complex dimension of the simple algebra of type ``family`` r."""
    if family == "A":
        return r * (r + 2)
    if family in "BC":
        return r * (2 * r + 1)
    if family == "D":
        return r * (2 * r - 1)
    return _EXCEPTIONAL_DIM[family, r]


def dim_rank_signature(d: RealFormDescriptor) -> tuple[int, int, int]:
    """The real dimension, the rank of g ⊗ C and the Killing signature
    σ = dim p - dim k of a descriptor, by arithmetic on its kind and
    parameters alone.  A complex algebra has σ = 0 and twice the dimension
    and rank of its type; su(p,q) has k = s(u(p) + u(q)), sl(n,H) k = sp(n),
    so(p,q) k = so(p) + so(q), so*(2n) k = u(n) and sp(p,q) k = sp(p) + sp(q)."""
    if d.base is not None:
        r = d.base.rank
        dim = _simple_dim(d.base.family, r)
        if d.kind == "complex":
            return 2 * dim, 2 * r, 0
        sigma = {"compact": -dim, "split": r}.get(d.kind)
        return dim, r, d.params[1] if sigma is None else sigma
    if d.kind == "sl_H":
        (n,) = d.params
        return 4 * n * n - 1, 2 * n - 1, -2 * n - 1
    if d.kind == "so_star":
        (n,) = d.params
        return n * (2 * n - 1), n, -n
    p, q = d.params
    n = p + q
    return {
        "su": (n * n - 1, n - 1, 1 - (p - q) ** 2),
        "so": (n * (n - 1) // 2, n // 2, (n - (p - q) ** 2) // 2),
        "sp": (n * (2 * n + 1), n, -2 * (p - q) ** 2 - n),
    }[d.kind]


def failures(report: AuditReport) -> list:
    """The entries of ``report`` that did not pass."""
    return [e for e in report.entries if not e.passed]


# The category III families, sorted: the order their counts are reported in.
_TABLE2_FAMILIES = (
    "A: A(s-1) x A(t-1)", "B: B_s x B_t", "C: C1 x D2", "C: C_s x B_t",
    "C: C_s x D_t", "D: B_s x D_t", "D: C_s x C_t", "D: D_s x B_t",
    "D: D_s x D_t",
)
# named _<ambient>_<factors>
_A_AA, _B_BB, _C_C1D2, _C_CB, _C_CD, _D_BD, _D_CC, _D_DB, _D_DD = _TABLE2_FAMILIES


def table2_rows(family: str, r: int) -> Iterator[tuple]:
    """Yield (family label, row id, factors, encoded n or None) for ambient family_r.

    Each family's dimension relation is solved by hand in its own loop, so
    this is independent of the one rule that ``sorklie.tables`` applies.
    """

    def row(label, a, s, b, t, n_encoded, suffix=""):
        # ids keep the table's labels: RootSystemType("B", 1) prints as A1
        return (label, f"{family}{r}: {a}{s} x {b}{t}{suffix}",
                (RootSystemType(a, s), RootSystemType(b, t)), n_encoded)

    if family == "A":
        # A_{s-1} x A_{t-1}, 2 <= s <= t, st = r + 1
        for s in range(2, r + 2):
            t, rem = divmod(r + 1, s)
            if rem == 0 and t >= s:
                yield row(_A_AA, "A", s - 1, "A", t - 1, s // 2 + t // 2,
                          f" (s={s}, t={t})")
    elif family == "B":
        # B_s x B_t, 1 <= s <= t, (2s+1)(2t+1) = 2r+1
        for s in range(1, r + 1):
            q, rem = divmod(2 * r + 1, 2 * s + 1)
            t = (q - 1) // 2
            if rem == 0 and t >= s:
                yield row(_B_BB, "B", s, "B", t, s + t)
    elif family == "C":
        for s in range(1, r + 1):
            # C_s x B_t with s(2t+1) = r, t >= 1
            q, rem = divmod(r, s)
            t = (q - 1) // 2
            if rem == 0 and q % 2 == 1 and t >= 1:
                yield row(_C_CB, "C", s, "B", t, s + t)
            # C_s x D_t with 2st = r, t >= 3
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= 3:
                yield row(_C_CD, "C", s, "D", t, None)
        if r == 4:
            yield row(_C_C1D2, "C", 1, "D", 2, 3)
    else:
        # C_s x C_t, 1 <= s <= t, 2st = r
        for s in range(1, r + 1):
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= s:
                yield row(_D_CC, "C", s, "C", t, None)
        # B_s x D_t, 1 <= s < t, (2s+1)t = r, t != 2
        for s in range(1, r + 1):
            t, rem = divmod(r, 2 * s + 1)
            if rem == 0 and t > s and t != 2:
                yield row(_D_BD, "B", s, "D", t, None)
        # D_s x B_t, 2 < s <= t, s(2t+1) = r
        for s in range(3, r + 1):
            q, rem = divmod(r, s)
            t = (q - 1) // 2
            if rem == 0 and q % 2 == 1 and t >= s:
                yield row(_D_DB, "D", s, "B", t, None)
        # D_s x D_t, 2 < s <= t, 2st = r
        for s in range(3, r + 1):
            t, rem = divmod(r, 2 * s)
            if rem == 0 and t >= s:
                yield row(_D_DD, "D", s, "D", t, None)


def _in_range(low: int, high: int):
    """argparse's converter of a bounded int option: an integer from
    ``low`` to ``high`` in ASCII digits, ``-?[0-9]+``, else a usage error."""
    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not an ASCII integer: {text!r}")
        value = int(text)
        if low <= value <= high:
            return value
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def argparse_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``cli._GRAMMAR``: help on stdout and exit 0,
    a usage error as the usage and ``error: ...`` on stderr and exit 64."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(cli.EXIT_USAGE)

    # --help shows the first two paragraphs: the summary and the exit codes.
    p = Parser(prog="sorklie", description="\n\n".join(cli.__doc__.split("\n\n")[:2]))
    sub = p.add_subparsers(dest="command", required=True, parser_class=Parser)
    for command, (summary, positional, options, flags) in cli._GRAMMAR.items():
        sp = sub.add_parser(command, help=summary)
        if positional is not None:
            sp.add_argument(positional[0], help=positional[1])
        for flag, low, high, default, help_ in options:
            sp.add_argument(flag, type=_in_range(low, high), default=default, help=help_)
        for flag, help_ in flags:
            sp.add_argument(flag, action="store_true", help=help_)
    return p


# --- the regex lexer: the oracle of sorklie.groups._tokenize -----------------

# Digits are ASCII only, as in names: ``\d`` would match any Unicode digit,
# which int() reads as its value.  Whitespace stays Unicode (no re.ASCII).
# A '*' ends a name only in so*; after any other name it is a free product.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[Ss][Oo]\*|[A-Za-z][A-Za-z0-9]*)|(?P<int>-?[0-9]+)|(?P<sym>[()^/,*]))"
)


def regex_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", off)
        kind = m.lastgroup  # "name", "int" or "sym": the one that matched
        if kind == "int" and len(m.group(kind).lstrip("-")) > MAX_DIGITS:
            raise ExprSyntaxError(f"integer literal has more than {MAX_DIGITS} digits",
                                  m.start(kind))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# --- dense integer matrices: the oracle of sorklie.matrixcheck ---------------

IntMatrix = list[list[int]]


def _check_square(m: Sequence[Sequence[int]], name: str) -> int:
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ShapeError(f"{name} must be a nonempty square matrix")
    return n


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(n: int) -> IntMatrix:
    return [[0] * n for _ in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(b) != len(a[0]):
        raise ShapeError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeError("shapes do not match")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeError("shapes do not match")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(a: Sequence[Sequence[int]]) -> int:
    _check_square(a, "matrix")
    return sum(a[i][i] for i in range(len(a)))


def kronecker(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    # Row i*len(b) + k of a (x) b is the Kronecker product of rows a[i], b[k].
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def kronecker_sum(g: Sequence[Sequence[int]], k: Sequence[Sequence[int]]) -> IntMatrix:
    """g (x) I_t + I_s (x) k for square g (s x s) and k (t x t)."""
    s = _check_square(g, "g")
    t = _check_square(k, "k")
    return mat_add(kronecker(g, identity(t)), kronecker(identity(s), k))


def bracket(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def bracket_split_check(g, gp, k, kp) -> bool:
    """[g(x)I + I(x)k, g'(x)I + I(x)k'] == [g,g'](x)I + I(x)[k,k'], dense."""
    s = _check_square(g, "g")
    if _check_square(gp, "g'") != s:
        raise ShapeError("g and g' must have equal size")
    t = _check_square(k, "k")
    if _check_square(kp, "k'") != t:
        raise ShapeError("k and k' must have equal size")
    lhs = bracket(kronecker_sum(g, k), kronecker_sum(gp, kp))
    rhs = kronecker_sum(bracket(g, gp), bracket(k, kp))
    return lhs == rhs


def _elementary_basis(n: int) -> list[IntMatrix]:
    """The n*n elementary matrices E_ij of gl_n, in row-major order."""
    return [[[int(r == i and c == j) for c in range(n)] for r in range(n)]
            for i in range(n) for j in range(n)]


def dense_basis_proof(s: int, t: int) -> bool:
    """The bracket identity on every pair of basis elements of
    gl_s (+) gl_t, in dense matrices: the proof by bilinearity that
    ``matrixcheck.bracket_split_basis_proof`` runs sparse."""
    basis = ([(e, zeros(t)) for e in _elementary_basis(s)]
             + [(zeros(s), e) for e in _elementary_basis(t)])
    return all(bracket_split_check(g, gp, k, kp)
               for g, k in basis for gp, kp in basis)


def _random_matrix(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> IntMatrix:
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def random_bracket_split_trials(samples: int, max_size: int = 4,
                                seed: int = 0) -> bool:
    """Run the dense bracket identity on seeded random integer quadruples
    with sizes in 2..max_size; True iff every trial passes."""
    if max_size < 2:
        raise ShapeError("sizes must be at least 2")
    rng = random.Random(seed)
    for _ in range(samples):
        s = rng.randint(2, max_size)
        t = rng.randint(2, max_size)
        g, gp = _random_matrix(rng, s), _random_matrix(rng, s)
        k, kp = _random_matrix(rng, t), _random_matrix(rng, t)
        if not bracket_split_check(g, gp, k, kp):
            return False
    return True


def fraction_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of an integer matrix, by Gaussian elimination over
    ``Fraction``."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
