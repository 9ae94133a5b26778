"""Group expressions: parsing, pretty-printing, and free subgroup rank rules.

The parser reads tokens and knows which names take a root system type, a
signature or an argument list; ``realforms.spelled`` says what they spell.
A chain of direct or free products is one flat node, whatever its brackets
and powers: the products' constructor is where associativity is stated.
The evaluator implements the reduction calculus in one walk: products add, a
chain of free products of nontrivial factors (not Z/2 * Z/2) gives max{1, ν
of each factor}, solvable-by-anything split or central extensions are
transparent, and finite index changes nothing.  The free-product hypotheses
are on each factor's least possible order: the product of the parts' orders
through direct products and extensions, and 1 for ``fi`` of a finite group.
The walk reports the first failed hypothesis it meets, left to right.
General extensions only yield an upper bound, kept apart from exact values.
"""

from .errors import (MAX_DIGITS, ExprSyntaxError, InvalidRealForm, InvalidType,
                     RuleNotApplicable)
from .realforms import NuResult, RealFormDescriptor, nu_simple, spelled
from .roots import RootSystemType, Value

# Largest number of atoms that one ``^k`` may expand to: k times the atoms
# of its base.  Counting atoms rather than k alone also bounds nested
# powers such as ``(su(2)^1000)^1000``.
MAX_POWER = 1000

# Deepest nesting an expression may have.  The brackets, ext(...) and
# fi(...) open at one point are counted before the parser recurses into
# another, and the depth of the expression tree (a product, however many
# factors, is one level above its deepest factor) is counted as the tree is
# built.  Both stay far inside Python's recursion limit for the parser, the
# evaluator and ``pretty``; deeper input is an ExprSyntaxError.
MAX_NESTING = 100


class GroupExpr(Value):
    """Base class for AST nodes.  All nodes are immutable values."""

    __slots__ = ()


class SimpleLie(GroupExpr):
    __slots__ = ("descriptor",)
    descriptor: RealFormDescriptor


class SolvableAtom(GroupExpr):
    """An infinite solvable atom with free subgroup rank zero: Z, R^n, or a
    generic solvable group."""

    __slots__ = ("label",)
    label: str  # "Z", "R^3", "solvable"


class FiniteAtom(GroupExpr):
    __slots__ = ("order",)
    order: int

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("finite group order must be >= 1")
        super().__init__(order)


class _Product(GroupExpr):
    """A direct or free product, flat by construction: a factor of the same
    kind of product is replaced by its factors.  A subclass gives its
    operator, the fewest factors it takes and the error for fewer."""

    __slots__ = ()  # each subclass declares its own, which Value._key reads
    factors: tuple[GroupExpr, ...]

    def __init__(self, factors: tuple[GroupExpr, ...]):
        flat = tuple(g for f in factors
                     for g in (f.factors if isinstance(f, type(self)) else (f,)))
        if len(flat) < self._fewest:
            raise ValueError(self._too_few)
        super().__init__(flat)


class DirectProduct(_Product):
    __slots__ = ("factors",)
    _symbol, _fewest, _too_few = "x", 1, "direct product needs at least one factor"


class FreeProduct(_Product):
    __slots__ = ("factors",)
    _symbol, _fewest, _too_few = "*", 2, "free product needs at least two factors"


class Extension(GroupExpr):
    __slots__ = ("kernel", "quotient", "mode")
    kernel: GroupExpr
    quotient: GroupExpr
    mode: str  # "split" | "central" | "general"


class FiniteIndex(GroupExpr):
    __slots__ = ("inner",)
    inner: GroupExpr


def _parts(e: GroupExpr) -> tuple[GroupExpr, ...]:
    """The sub-expressions of a node, left to right; none for an atom."""
    if isinstance(e, _Product):
        return e.factors
    if isinstance(e, Extension):
        return (e.kernel, e.quotient)
    if isinstance(e, FiniteIndex):
        return (e.inner,)
    if isinstance(e, (SimpleLie, SolvableAtom, FiniteAtom)):
        return ()
    raise TypeError(f"not a group expression: {e!r}")


def nu_eval(e: GroupExpr) -> int:
    """Exact free subgroup rank of a well-formed expression.

    Raises :class:`RuleNotApplicable` where the calculus only proves an
    inequality (general-mode extensions) or its hypotheses fail (free
    products with a factor that may be trivial or with two order-two
    factors, extensions with non-solvable kernel).
    """
    value, exact, _ = nu_walk(e)
    if not exact:
        raise RuleNotApplicable(
            "general extensions only give an upper bound; use nu_upper_bound"
        )
    return value


def nu_upper_bound(e: GroupExpr) -> int:
    """Upper bound for the free subgroup rank; equals nu_eval except that
    general-mode solvable-kernel extensions contribute the quotient's bound."""
    return nu_walk(e)[0]


def nu_walk(e: GroupExpr) -> tuple[int, bool, list[tuple[RealFormDescriptor, NuResult]]]:
    """One evaluation of the whole expression: the upper bound, whether it
    is exact (no general-mode extension), and each simple factor with its
    :func:`nu_simple` result, in left-to-right order.

    Raises :class:`RuleNotApplicable` for the first hypothesis of the
    calculus that fails, left to right, as :func:`nu_upper_bound` does.
    """
    factors: list[tuple[RealFormDescriptor, NuResult]] = []
    exact = True

    def walk(e: GroupExpr) -> tuple[int, int | None]:
        """The ν bound of ``e`` and the least order it can have (None: infinite).
        Orders above 2 read as 3: the free-product rule tells only 1, 2 and
        more apart, and large orders multiplied out could take unbounded time."""
        nonlocal exact
        if isinstance(e, SimpleLie):
            res = nu_simple(e.descriptor)
            factors.append((e.descriptor, res))
            return res.nu, None
        if isinstance(e, SolvableAtom):
            return 0, None
        if isinstance(e, FiniteAtom):
            return 0, min(e.order, 3)
        if isinstance(e, FreeProduct):
            nus, orders = [], []
            for f in e.factors:
                nu, order = walk(f)
                if order == 1:
                    raise RuleNotApplicable(
                        "free product rule needs both factors nontrivial"
                    )
                nus.append(nu)
                orders.append(order)
            if orders == [2, 2]:
                raise RuleNotApplicable(
                    "free product rule excludes Z/2 * Z/2 (infinite dihedral)"
                )
            return max(1, *nus), None
        # direct products, extensions and fi: ν adds and orders multiply
        nu, order = 0, 1
        for part in _parts(e):
            if nu and isinstance(e, Extension):  # nu is the kernel's
                raise RuleNotApplicable(
                    "extension rule needs a kernel of free subgroup rank zero"
                )
            part_nu, part_order = walk(part)
            nu += part_nu
            order = None if None in (order, part_order) else min(order * part_order, 3)
        if isinstance(e, Extension) and e.mode == "general":
            exact = False
        if isinstance(e, FiniteIndex) and order is not None:
            order = 1  # the trivial subgroup has finite index in a finite group
        return nu, order

    value, _ = walk(e)
    return value, exact, factors


def _atom_count(e: GroupExpr) -> int:
    """Number of atoms (simple, solvable, finite) in the expanded expression."""
    parts = _parts(e)
    return sum(map(_atom_count, parts)) if parts else 1


def simple_factors(e: GroupExpr) -> list[RealFormDescriptor]:
    """All simple Lie atoms in the expression, in left-to-right order."""
    if isinstance(e, SimpleLie):
        return [e.descriptor]
    return [d for part in _parts(e) for d in simple_factors(part)]


# --- lexer -----------------------------------------------------------------

class _Token(Value):
    __slots__ = ("kind", "text", "offset")
    kind: str  # "name" | "int" | "sym" | "end"
    text: str
    offset: int


def _ascii_digit(c: str) -> bool:
    return c.isascii() and c.isdigit()


def _tokenize(text: str) -> list[_Token]:
    """Whitespace is whatever ``str.isspace()`` accepts.  A name is an ASCII
    letter and then ASCII letters and digits, an integer ASCII digits after
    an optional '-': any Unicode digit would read as its value in int().  A
    '*' ends a name only in so*; after any other name it is a free product."""
    tokens: list[_Token] = []
    pos, end = 0, len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            break
        start, c = pos, text[pos]
        pos += 1
        if c.isascii() and c.isalpha():
            kind = "name"
            if c in "Ss" and text[pos:pos + 2] in ("o*", "O*"):
                pos += 2
            else:
                while pos < end and text[pos].isascii() and text[pos].isalnum():
                    pos += 1
        elif _ascii_digit(c) or c == "-" and _ascii_digit(text[pos:pos + 1]):
            kind = "int"
            while pos < end and _ascii_digit(text[pos]):
                pos += 1
            if pos - start - (c == "-") > MAX_DIGITS:
                raise ExprSyntaxError(
                    f"integer literal has more than {MAX_DIGITS} digits", start)
        elif c in "()^/,*":
            kind = "sym"
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", start)
        tokens.append(_Token(kind, text[start:pos], start))
    tokens.append(_Token("end", "", end))
    return tokens


# --- parser ----------------------------------------------------------------

_PRODUCTS = {cls._symbol: cls for cls in (DirectProduct, FreeProduct)}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # brackets, ext( and fi( not yet closed

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            raise ExprSyntaxError(f"expected {sym!r}", tok.offset)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ExprSyntaxError("expected an integer", tok.offset)
        return int(tok.text)

    def expect_positive(self, what: str) -> int:
        tok = self.peek()
        n = self.expect_int()
        if n < 1:
            raise ExprSyntaxError(f"{what} must be >= 1", tok.offset)
        return n

    def nest(self, depth: int, tok: _Token) -> int:
        """Return ``depth``, or raise if it exceeds :data:`MAX_NESTING`."""
        if depth > MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nests deeper than {MAX_NESTING} levels", tok.offset)
        return depth

    def group(self, tok: _Token) -> tuple[GroupExpr, int]:
        """Parse an expression inside a bracket opened at ``tok``."""
        self.open = self.nest(self.open + 1, tok)
        result = self.parse_expr()
        self.open -= 1
        return result

    def parse(self) -> GroupExpr:
        e, _ = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    # parse_expr, parse_term and parse_atom return the tree and its depth.

    def parse_expr(self) -> tuple[GroupExpr, int]:
        e, depth = self.parse_term()
        # x and * have one precedence and are read left to right; a run of
        # one operator is one node, built once, so a chain parses in linear time
        while (cls := _PRODUCTS.get(self.peek().text)) is not None:
            run, inner = [e], depth - isinstance(e, cls)
            while _PRODUCTS.get(self.peek().text) is cls:
                tok = self.next()
                rhs, rhs_depth = self.parse_term()
                # the product is flat: one level above its deepest factor
                inner = max(inner, rhs_depth - isinstance(rhs, cls))
                depth = self.nest(1 + inner, tok)
                run.append(rhs)
            e = cls(tuple(run))
        return e, depth

    def parse_term(self) -> tuple[GroupExpr, int]:
        atom, depth = self.parse_atom()
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "^":
            self.next()
            power_tok = self.peek()
            power = self.expect_positive("power")
            if power == 1:
                return atom, depth
            if power * _atom_count(atom) > MAX_POWER:
                raise ExprSyntaxError(
                    f"power expands to more than {MAX_POWER} atoms",
                    power_tok.offset)
            return DirectProduct((atom,) * power), self.nest(depth + 1, tok)
        return atom, depth

    def parse_atom(self) -> tuple[GroupExpr, int]:
        tok = self.next()
        if tok.kind == "sym" and tok.text == "(":
            result = self.group(tok)
            self.expect_sym(")")
            return result
        if tok.kind != "name":
            raise ExprSyntaxError(f"expected an atom, got {tok.text!r}", tok.offset)
        name = tok.text
        lname = name.lower()
        if lname == "ext":
            self.expect_sym("(")
            kernel, kernel_depth = self.group(tok)
            self.expect_sym(",")
            quotient, quotient_depth = self.group(tok)
            self.expect_sym(",")
            mode_tok = self.next()
            if mode_tok.kind != "name" or mode_tok.text.lower() not in (
                "split", "central", "general",
            ):
                raise ExprSyntaxError("expected split, central, or general",
                                      mode_tok.offset)
            self.expect_sym(")")
            depth = self.nest(1 + max(kernel_depth, quotient_depth), tok)
            return Extension(kernel, quotient, mode_tok.text.lower()), depth
        if lname == "fi":
            self.expect_sym("(")
            inner, depth = self.group(tok)
            self.expect_sym(")")
            return FiniteIndex(inner), self.nest(depth + 1, tok)
        if name == "Z":
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "/":
                self.next()
                return FiniteAtom(self.expect_positive("finite order")), 1
            return SolvableAtom("Z"), 1
        if name == "R":
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "^":
                self.next()
                n = self.expect_positive("dimension")
                return SolvableAtom(f"R^{n}"), 1
            return SolvableAtom("R^1"), 1
        if lname == "solvable":
            return SolvableAtom("solvable"), 1
        return SimpleLie(self.parse_descriptor(name, tok.offset)), 1

    def parse_descriptor(self, name: str, offset: int) -> RealFormDescriptor:
        lname = name.lower()
        try:
            if lname in ("complex", "split", "compact"):
                self.expect_sym("(")
                args = [self.parse_type()]
                self.expect_sym(")")
            elif name[0].upper() in "EFG" and name[1:].isdigit():  # E8, e08: as sork reads them
                self.expect_sym("(")
                args = [self.expect_int()]
                self.expect_sym(")")
            elif lname in ("su", "so", "sp", "sl", "so*"):
                args = self.parse_args()
            else:
                raise ExprSyntaxError(f"unknown atom {name!r}", offset)
            d = spelled(name, args)
        except (InvalidRealForm, InvalidType) as err:
            raise InvalidRealForm(f"{err} (at offset {offset})") from err
        if d is None:
            raise ExprSyntaxError(f"bad arguments for {lname}{tuple(args)!r}", offset)
        return d

    def parse_args(self) -> list:
        """Argument list: integers or the field markers R / H."""
        self.expect_sym("(")
        args: list = []
        while True:
            tok = self.next()
            if tok.kind == "int":
                args.append(int(tok.text))
            elif tok.kind == "name" and tok.text.upper() in ("R", "H"):
                args.append(tok.text.upper())
            else:
                raise ExprSyntaxError("expected an argument", tok.offset)
            tok = self.next()
            if tok.kind == "sym" and tok.text == ",":
                continue
            if tok.kind == "sym" and tok.text == ")":
                return args
            raise ExprSyntaxError("expected ',' or ')'", tok.offset)

    def parse_type(self) -> RootSystemType:
        tok = self.next()
        if tok.kind != "name":
            raise ExprSyntaxError("expected a root system type like A3", tok.offset)
        try:
            return RootSystemType.parse(tok.text)
        except InvalidType as err:
            raise ExprSyntaxError(str(err), tok.offset) from err


def parse_group_expr(text: str) -> GroupExpr:
    """Parse a group expression.  Deterministic; raises
    :class:`ExprSyntaxError` with a character offset on malformed input.

    Whitespace between tokens is optional, but a name runs on through
    letters and digits, so ``x`` is the direct product only where no letter
    or digit follows it and no name runs into it: ``su(2)x(su(2))`` parses,
    ``su(2)xsu(2)`` (the name ``xsu``) and ``ZxZ`` do not.  Names and
    keywords are case-insensitive (``SU(2)``, ``e8(-24)``, ``Split(g2)``),
    but the atoms ``Z`` and ``R`` and the operator ``x`` are not."""
    return _Parser(text).parse()


def pretty(e: GroupExpr) -> str:
    """Canonical text form, with parse(pretty(e)) == e for every tree the
    parser builds.  Products print flat, their product factors bracketed:
    ``(Z * Z) * Z`` prints as ``Z * Z * Z``, ``(Z x Z)^2`` as ``Z x Z x Z x Z``."""
    if isinstance(e, SimpleLie):
        return str(e.descriptor)
    if isinstance(e, SolvableAtom):
        return e.label
    if isinstance(e, FiniteAtom):
        return f"Z/{e.order}"
    if isinstance(e, _Product):
        return f" {e._symbol} ".join(f"({pretty(f)})" if isinstance(f, _Product)
                                     else pretty(f) for f in e.factors)
    if isinstance(e, Extension):
        return f"ext({pretty(e.kernel)}, {pretty(e.quotient)}, {e.mode})"
    if isinstance(e, FiniteIndex):
        return f"fi({pretty(e.inner)})"
    raise TypeError(f"not a group expression: {e!r}")
