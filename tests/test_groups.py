import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import regex_tokenize
from sorklie import (
    DirectProduct,
    Extension,
    ExprSyntaxError,
    FiniteAtom,
    FiniteIndex,
    FreeProduct,
    InvalidRealForm,
    InvalidType,
    RootSystemType,
    RuleNotApplicable,
    SimpleLie,
    SolvableAtom,
    compact_form,
    complex_simple,
    exceptional_form,
    nu_eval,
    nu_simple,
    nu_upper_bound,
    parse_group_expr,
    pretty,
    sl_H,
    sl_R,
    so,
    so_star,
    sp,
    sp_R,
    split_form,
    su,
)
from sorklie import cli, groups
from sorklie.groups import MAX_NESTING, MAX_POWER, nu_walk, simple_factors
from sorklie.roots import MAX_DIGITS


def _su2():
    return SimpleLie(su(2, 0))


def _sl2r():
    return SimpleLie(sl_R(2))


class TestEval:
    def test_atoms(self):
        assert nu_eval(_su2()) == 1
        assert nu_eval(SolvableAtom("Z")) == 0
        assert nu_eval(FiniteAtom(12)) == 0

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("m", range(6))
    def test_products_add(self, k, m):
        if k + m == 0:
            return
        factors = (_su2(),) * k + (_sl2r(),) * m
        assert nu_eval(DirectProduct(factors)) == k + m

    def test_free_product_of_z(self):
        e = FreeProduct((SolvableAtom("Z"), SolvableAtom("Z")))
        assert nu_eval(e) == 1  # F2 contains F2

    def test_free_product_takes_max(self):
        e = FreeProduct((SimpleLie(so(7, 2)), _su2()))
        assert nu_eval(e) == 4

    def test_infinite_dihedral_rejected(self):
        e = FreeProduct((FiniteAtom(2), FiniteAtom(2)))
        with pytest.raises(RuleNotApplicable):
            nu_eval(e)

    def test_trivial_free_factor_rejected(self):
        e = FreeProduct((FiniteAtom(1), _su2()))
        with pytest.raises(RuleNotApplicable):
            nu_eval(e)

    def test_z2_star_z3_allowed(self):
        assert nu_eval(FreeProduct((FiniteAtom(2), FiniteAtom(3)))) == 1

    # A factor's least order is the product of its parts' orders, through
    # direct products and extensions alike.  A finite-index subgroup of a
    # finite group may be trivial, so fi of a finite group reads as 1.
    @pytest.mark.parametrize("text,message", [
        ("ext(Z/1, Z/1, split) * Z", "nontrivial"),
        ("ext(Z/1, Z/1, central) * Z/5", "nontrivial"),
        ("fi(Z/1 x ext(Z/1, Z/1, general)) * su(2)", "nontrivial"),
        ("ext(Z/1, Z/2, split) * Z/2", "infinite dihedral"),
        ("(Z/2 x Z/1) * Z/2", "infinite dihedral"),
        ("fi(Z/2) * ext(Z/2, fi(Z/1), central)", "nontrivial"),
        ("fi(Z/2) * Z/3", "nontrivial"),
        ("fi(Z/4) * Z/2", "nontrivial"),
    ])
    def test_free_factor_order_seen_through_products_and_extensions(
            self, text, message):
        e = parse_group_expr(text)
        for evaluate in (nu_eval, nu_upper_bound):
            with pytest.raises(RuleNotApplicable, match=message):
                evaluate(e)

    @pytest.mark.parametrize("text", [
        "(Z/2 x Z/2) * Z/2",
        "ext(Z/2, Z/2, split) * Z/2",
        "Z/2 * Z/3",
        "su(2) * Z/2",
        "(Z/2 x Z) * Z/2",
        "Z/99999999999999999999 * Z/2",
        "fi(su(2)) * Z/2",
        "(fi(Z/2) x Z/3) * Z/2",
    ])
    def test_free_factor_of_order_above_two_allowed(self, text):
        e = parse_group_expr(text)
        assert nu_eval(e) == nu_upper_bound(e) == 1

    # The rule runs once over a whole chain of free products, so brackets
    # and factor order do not change the answer.
    @pytest.mark.parametrize("text", [
        "Z/2 * Z/2 * Z/3", "(Z/2 * Z/2) * Z/3", "Z/3 * Z/2 * Z/2",
        "Z/2 * (Z/2 * Z/3)",
    ])
    def test_free_product_chain_independent_of_brackets(self, text):
        e = parse_group_expr(text)
        assert nu_eval(e) == nu_upper_bound(e) == 1

    def test_free_factor_order_of_many_large_finite_factors_is_quick(self):
        # orders above 2 are not multiplied out
        assert nu_eval(parse_group_expr("(Z/5 x ext(Z/7, Z/1, split)) * Z/2")) == 1
        big = "Z/" + "9" * MAX_DIGITS
        e = parse_group_expr(f"({big})^1000 * ({big})^1000")
        assert nu_eval(e) == 1

    def test_split_extension_transparent(self):
        e = Extension(SolvableAtom("R^3"), _sl2r(), "split")
        assert nu_eval(e) == 1

    def test_central_extension_transparent(self):
        e = Extension(SolvableAtom("Z"), DirectProduct((_sl2r(), _sl2r())), "central")
        assert nu_eval(e) == 2

    def test_general_extension_bound_only(self):
        e = Extension(SolvableAtom("solvable"), _sl2r(), "general")
        with pytest.raises(RuleNotApplicable):
            nu_eval(e)
        assert nu_upper_bound(e) == 1

    def test_nonsolvable_kernel_rejected(self):
        e = Extension(_su2(), _sl2r(), "split")
        with pytest.raises(RuleNotApplicable):
            nu_eval(e)

    def test_finite_index_transparent(self):
        assert nu_eval(FiniteIndex(SimpleLie(so(7, 1)))) == 3
        assert nu_eval(FiniteIndex(FiniteIndex(_su2()))) == 1

    def test_upper_bound_matches_eval_when_exact(self):
        e = DirectProduct((_su2(), FiniteIndex(_sl2r()), SolvableAtom("Z")))
        assert nu_eval(e) == nu_upper_bound(e) == 2

    @pytest.mark.parametrize("text,value,exact", [
        ("su(2) x ext(Z, sl(3,R), central) x fi(so(9,1))", 6, True),
        ("(su(2) x Z/3) * ext(solvable, so(7,1), general) x su(2)^2", 5, False),
    ])
    def test_walk_evaluates_each_factor_once(self, monkeypatch, text, value, exact):
        e = parse_group_expr(text)
        calls = []

        def counted(d):
            calls.append(d)
            return nu_simple(d)

        monkeypatch.setattr(groups, "nu_simple", counted)
        got_value, got_exact, factors = nu_walk(e)
        assert (got_value, got_exact) == (value, exact)
        assert calls == [d for d, _ in factors] == simple_factors(e)
        assert [res for _, res in factors] == [nu_simple(d) for d in calls]


class TestParser:
    @pytest.mark.parametrize("text,expected", [
        ("su(2)", 1),
        ("SU(2) x SL(2,R)", 2),
        ("su(2)^3 x sl(2,R)^2", 5),
        ("so(7,1)", 3),
        ("so(3,5)", 3),
        ("Z x su(2)", 1),
        ("Z * Z", 1),
        ("fi(so(7,1))", 3),
        ("ext(R^3, sl(2,R), split)", 1),
        ("ext(Z, su(2,2) x su(2), central)", 3),
        ("complex(E8)", 8),
        ("E6(-26)", 4),
        ("so*(8)", 4),
        ("sl(2,H)", 2),
        ("sp(2,R) x sp(1,1)", 4),
        ("(su(2) x su(2))^2", 4),
        ("Z/2 * Z/3", 1),
    ])
    def test_end_to_end(self, text, expected):
        assert nu_eval(parse_group_expr(text)) == expected

    def test_whitespace_insensitive(self):
        a = parse_group_expr("su(2) x sl(2,R)")
        b = parse_group_expr("  su( 2 ) x sl( 2 , R ) ")
        assert a == b
        assert parse_group_expr("su(2)x(su(2))") == parse_group_expr("su(2) x su(2)")

    def test_direct_product_flattens(self):
        e = parse_group_expr("su(2) x su(3) x su(4)")
        assert isinstance(e, DirectProduct)
        assert len(e.factors) == 3

    def test_free_product_flattens(self):
        e = parse_group_expr("Z * Z * Z")
        assert isinstance(e, FreeProduct)
        assert e.factors == (SolvableAtom("Z"),) * 3

    def test_parens_override(self):
        e = parse_group_expr("Z * (Z x Z)")
        assert isinstance(e.factors[1], DirectProduct)

    def test_power_expansion(self):
        e = parse_group_expr("su(2)^4")
        assert e == DirectProduct((_su2(),) * 4)
        assert parse_group_expr("su(2)^1") == _su2()

    @pytest.mark.parametrize("text", [
        "", "su(", "su)", "su(2,", "so(3,5", "x su(2)", "su(2) x",
        "su(2))", "ext(Z, su(2))", "ext(Z, su(2), weird)", "su(2)^0",
        "Z/0", "foo(3)", "su(2) ? su(3)", "R^-3", "R^0",
        "su(2)^100000000", "(su(2)^1000)^1000",
        "z", "r", "su(2) X su(2)",  # the atoms and the operator are case-sensitive
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_group_expr(text)

    def test_finite_order_zero(self, capsys):
        # the parser refuses Z/0 at the digit; the constructor, which has no
        # text offset to name, refuses order 0 as a plain ValueError
        with pytest.raises(ValueError, match="^finite group order must be >= 1$") as exc:
            FiniteAtom(0)
        assert not isinstance(exc.value, ExprSyntaxError)
        assert cli.main(["nu", "Z/0"]) == 1
        assert capsys.readouterr() == ("", "error: finite order must be >= 1 at offset 2\n")

    def test_power_cap(self):
        assert len(parse_group_expr(f"su(2)^{MAX_POWER}").factors) == MAX_POWER
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr(f"su(2)^{MAX_POWER + 1}")
        assert exc.value.offset == 6
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr("(su(2) x Z)^600")
        assert exc.value.offset == 12

    def test_nesting_cap(self):
        def brackets(k):
            return "(" * k + "su(2)" + ")" * k

        assert parse_group_expr(brackets(MAX_NESTING)) == _su2()
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr(brackets(MAX_NESTING + 1))
        assert exc.value.offset == MAX_NESTING
        # E(k + 1) = (E(k) x Z) * Z is a tree of depth 2k + 1 in k brackets
        deep = "su(2)"
        for _ in range(MAX_NESTING // 2 - 1):
            deep = f"({deep} x Z) * Z"
        assert nu_eval(parse_group_expr(deep)) == 1
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr(f"({deep} x Z) * Z")
        assert exc.value.offset == len(deep) + 7
        fi = "fi(" * (MAX_NESTING - 1) + "Z" + ")" * (MAX_NESTING - 1)
        assert nu_eval(parse_group_expr(fi)) == 0
        with pytest.raises(ExprSyntaxError):
            parse_group_expr(f"fi({fi})")
        # products stay flat, so long ones are not deep
        assert nu_eval(parse_group_expr(" x ".join(["su(2)"] * 1000))) == 1000
        assert nu_eval(parse_group_expr(" * ".join(["su(2)"] * 1000))) == 1

    @pytest.mark.parametrize("text", [
        " x ".join(["su(2)"] * 2000),
        " * ".join(["(Z x Z)"] * 2000),
        " * ".join([" x ".join(["Z"] * 50)] * 40),
    ], ids=["direct", "free_of_bracketed", "alternating_runs"])
    def test_product_chain_stores_each_factor_about_once(self, monkeypatch, text):
        # a chain built one operator at a time copies every factor so far
        # at each step: n^2/2 stored factors for n factors
        stored = 0
        init = groups._Product.__init__

        def counting_init(self, factors):
            nonlocal stored
            init(self, factors)
            stored += len(self.factors)

        monkeypatch.setattr(groups._Product, "__init__", counting_init)
        e = parse_group_expr(text)
        assert stored <= 2 * groups._atom_count(e)

    @pytest.mark.parametrize("text,offset", [
        ("su(\u0663)", 3), ("su(2)^\u0663", 6), ("Z/\u0662", 2), ("so(\uff15,1)", 3),
        ("complex(A\u0663)", 9),
    ])
    def test_non_ascii_digits_are_syntax_errors(self, text, offset):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
            parse_group_expr(text)
        assert exc.value.offset == offset

    # int() reads at least 640 digits under any limit, so the lexer refuses
    # more than MAX_DIGITS itself, the same whatever the limit.
    @pytest.mark.parametrize("template,offset", [
        ("Z/{}", 2), ("Z/{} * Z/2", 2), ("su(2) x sp(-{},1)", 11), ("su(2)^{}", 6),
        ("complex(A{})", 8),
    ])
    def test_integer_of_too_many_digits_is_a_syntax_error(
            self, int_digit_limit, template, offset):
        text = template.format("9" * (MAX_DIGITS + 1))
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_DIGITS} digits") as exc:
            parse_group_expr(text)
        assert exc.value.offset == offset

    def test_unicode_whitespace_still_separates_tokens(self):
        assert parse_group_expr("su(2)\u00a0x\u2003su(2)") == \
            parse_group_expr("su(2) x su(2)")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr("su(2) x ! su(3)")
        assert exc.value.offset == 8
        # a name runs on through letters and digits: "xsu" and "ZxZ" are names
        for text, offset in (("su(2)xsu(2)", 5), ("ZxZ", 0)):
            with pytest.raises(ExprSyntaxError) as exc:
                parse_group_expr(text)
            assert exc.value.offset == offset

    # Each (name, argument shape) of realforms._SPELLINGS, and exceptional
    # labels as sork reads them, any case.
    @pytest.mark.parametrize("text,expected", [
        ("su(3)", su(3, 0)), ("SU(2,1)", su(2, 1)), ("sl(3,R)", sl_R(3)),
        ("Sl(2,h)", sl_H(2)), ("so(5)", so(5, 0)), ("so(3,2)", so(3, 2)),
        ("so*(8)", so_star(8)), ("sp(2)", sp(2, 0)), ("sp(2,R)", sp_R(2)),
        ("sp(1,1)", sp(1, 1)),
        ("complex(A3)", complex_simple(RootSystemType("A", 3))),
        ("Split(g2)", split_form(RootSystemType("G", 2))),
        ("compact(E8)", compact_form(RootSystemType("E", 8))),
        ("E6(-26)", exceptional_form("E", 6, -26)),
        ("e08(8)", split_form(RootSystemType("E", 8))),
        ("F4(-20)", exceptional_form("F", 4, -20)),
    ])
    def test_classical_descriptors(self, text, expected):
        assert parse_group_expr(text) == SimpleLie(expected)

    @pytest.mark.parametrize("text,message", [
        ("sl(3)", "bad arguments for sl(3,)"),
        ("sl(R,3)", "bad arguments for sl('R', 3)"),
        ("su(2,R)", "bad arguments for su(2, 'R')"),
        ("sp(2,H)", "bad arguments for sp(2, 'H')"),
        ("so*(8,1)", "bad arguments for so*(8, 1)"),
        ("so*(R)", "bad arguments for so*('R',)"),
        ("SU(2,2,2)", "bad arguments for su(2, 2, 2)"),
        ("so(1,2,3)", "bad arguments for so(1, 2, 3)"),
    ])
    def test_classical_bad_arguments(self, text, message):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_group_expr(text)
        assert str(exc.value) == f"{message} at offset 0"

    # What the parser reads before the spelling table, and how it reports
    # an invalid algebra: the type, message and offset of each error.
    @pytest.mark.parametrize("text,error,message", [
        ("complex(3)", ExprSyntaxError, "expected a root system type like A3 at offset 8"),
        ("compact()", ExprSyntaxError, "expected a root system type like A3 at offset 8"),
        ("complex(Q2)", ExprSyntaxError, "cannot parse root system type 'Q2' at offset 8"),
        ("split(A3,2)", ExprSyntaxError, "expected ')' at offset 8"),
        ("E8(R)", ExprSyntaxError, "expected an integer at offset 3"),
        ("E8(1,2)", ExprSyntaxError, "expected ')' at offset 4"),
        ("foo(2)", ExprSyntaxError, "unknown atom 'foo' at offset 0"),
        ("su(2,x)", ExprSyntaxError, "expected an argument at offset 5"),
        ("F4(3)", InvalidRealForm, "unknown exceptional real form F4(3) (at offset 0)"),
        ("complex(D2)", InvalidRealForm, "D2 is not simple (it is A1 x A1) (at offset 0)"),
    ])
    def test_descriptor_errors(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_group_expr(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", [
        "so(4)", "so(2,2)", "E8(0)", "su(0)",
        "so*(4)", "so*(2)", "so(1,1)", "split(D2)", "compact(D2)",
    ])
    def test_invalid_algebras(self, text):
        with pytest.raises(InvalidRealForm):
            parse_group_expr(text)

    def test_simple_factors_in_order(self):
        e = parse_group_expr("su(2) x ext(Z, sl(3,R), central) x fi(so(9,1))")
        assert [str(d) for d in simple_factors(e)] == \
            ["su(2)", "sl(3,R)", "so(9,1)"]


def _lexed(tokenize, text):
    """The tokens of ``text``, or the message and offset of its error."""
    try:
        return tokenize(text)
    except ExprSyntaxError as err:
        return str(err), err.offset


# Pieces at the edges of the lexer's classes: so* against other names, a
# '-' that starts an integer or nothing, non-ASCII digits, letters that case
# folding maps to ASCII ones (the Kelvin sign, the long s), Unicode
# whitespace with the separators \x1c-\x1f, which str.isspace() accepts,
# and literals on both sides of MAX_DIGITS.
_LEXER_PIECES = st.sampled_from([
    "so*", "SO*", "so *", "also*", "sO*5", "-", "--5", "5-3", "\u0663", "\uff15",
    "\u00a0", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u212a", "\u017f",
    "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), " ", "\t", "\n", "su", "E8", "x", "Z",
    "(", ")", ",", "^", "/", "*", "0", "7", "a", "?", "!",
])


class TestLexer:
    """The character loop of ``groups._tokenize`` against the regex lexer
    it replaced, kept in ``oracle_utils``."""

    @settings(max_examples=2000, deadline=None)
    @given(st.text() | st.lists(_LEXER_PIECES | st.characters(), max_size=12).map("".join))
    @example("-" + "9" * MAX_DIGITS)
    @example("-" + "9" * (MAX_DIGITS + 1))
    @example("  so*(8)x so *  ")
    def test_same_tokens_as_the_regex_lexer(self, text):
        assert _lexed(groups._tokenize, text) == _lexed(regex_tokenize, text)

    def test_character_classes_match_the_regexes(self):
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        for pattern, test in (
                (r"\s", str.isspace),
                ("[A-Za-z]", lambda c: c.isascii() and c.isalpha()),
                ("[A-Za-z0-9]", lambda c: c.isascii() and c.isalnum()),
                ("[0-9]", lambda c: c.isascii() and c.isdigit())):
            assert re.findall(pattern, everything) == list(filter(test, everything)), pattern


# Every label of an exceptional atom reads as RootSystemType.parse reads it.
_LABELS = [f"E{r}" for r in range(11)] + ["E08", "e8", "F3", "F4", "F04", "G1", "G2", "G3"]


class TestExceptionalLabels:
    @pytest.mark.parametrize("prefix", ["", "Z x "])
    @pytest.mark.parametrize("sig", ["rank", -26, -20, -14, 3])
    @pytest.mark.parametrize("label", _LABELS)
    def test_nu_answers_as_the_label_parser_and_the_forms_do(
            self, capsys, label, sig, prefix):
        if sig == "rank":
            sig = int(label[1:])
        try:
            t = RootSystemType.parse(label)
            nu = nu_simple(exceptional_form(t.family, t.rank, sig)).nu
            expected = (cli.EXIT_OK, f"nu = {nu}\n", "")
        except (InvalidType, InvalidRealForm) as err:
            expected = (cli.EXIT_ERROR, "", f"error: {err} (at offset {len(prefix)})\n")
        code = cli.main(["nu", f"{prefix}{label}({sig})"])
        assert (code, *capsys.readouterr()) == expected

    @pytest.mark.parametrize("text,code,out,err", [
        ("E08(8)", cli.EXIT_OK, "nu = 8\n", ""),
        ("E9(3)", cli.EXIT_ERROR, "",
         "error: rank 9 out of bounds for family E (at offset 0)\n"),
        ("E10(3)", cli.EXIT_ERROR, "",
         "error: rank 10 out of bounds for family E (at offset 0)\n"),
        ("G3(1)", cli.EXIT_ERROR, "",
         "error: rank 3 out of bounds for family G (at offset 0)\n"),
    ])
    def test_labels_that_sork_reads(self, capsys, text, code, out, err):
        assert (cli.main(["nu", text]), *capsys.readouterr()) == (code, out, err)


class TestPretty:
    @pytest.mark.parametrize("text", [
        "su(2)", "su(2) x sl(2,R)", "Z * Z", "Z/2 * Z/3",
        "fi(so(7,1))", "ext(R^3, sl(2,R), split)",
        "(Z x Z) * su(2)", "su(2) x su(2) x su(2)",
        "so*(8) x sl(2,H)", "E6(-26) x complex(E8)", "sp(3,R)",
    ])
    def test_round_trip(self, text):
        e = parse_group_expr(text)
        assert parse_group_expr(pretty(e)) == e

    def test_canonical_forms(self):
        assert pretty(parse_group_expr("SU(2) x SU(3)")) == "su(2) x su(3)"
        assert pretty(parse_group_expr("su(2)^2")) == "su(2) x su(2)"
        assert pretty(parse_group_expr("sl(4,R)")) == "sl(4,R)"
        assert pretty(parse_group_expr("so(5)")) == "so(5)"
        assert pretty(parse_group_expr("(Z * Z) * Z")) == "Z * Z * Z"
        assert pretty(parse_group_expr("(su(2) x Z)^2")) == "su(2) x Z x su(2) x Z"
        assert pretty(parse_group_expr("(Z * Z) x Z")) == "(Z * Z) x Z"


_ATOMS = st.sampled_from([
    "su(2)", "su(3)", "su(2,1)", "sl(2,R)", "sl(3,R)", "sl(2,H)",
    "so(5)", "so(7,1)", "so(3,5)", "so*(8)", "sp(2)", "sp(3,R)", "sp(1,1)",
    "complex(A3)", "split(D4)", "compact(B2)", "E8(8)", "F4(-20)", "G2(2)",
    "Z", "Z/2", "Z/6", "R", "R^3", "solvable",
])


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        return draw(_ATOMS)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(_ATOMS)
    if kind == 1:
        parts = draw(st.lists(_exprs(depth=depth - 1), min_size=2, max_size=3))
        return "(" + " x ".join(parts) + ")"
    if kind == 2:
        left = draw(_exprs(depth=depth - 1))
        right = draw(_exprs(depth=depth - 1))
        return f"({left} * {right})"
    if kind == 3:
        return f"fi({draw(_exprs(depth=depth - 1))})"
    mode = draw(st.sampled_from(["split", "central", "general"]))
    return f"ext(Z, {draw(_exprs(depth=depth - 1))}, {mode})"


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_parse_pretty_round_trip(text):
    e = parse_group_expr(text)
    assert parse_group_expr(pretty(e)) == e


@st.composite
def _regrouped(draw, depth=2):
    """A run of x and * over smaller expressions, some of its prefixes
    bracketed, and maybe raised to a power."""
    if depth == 0:
        return draw(st.one_of(_ATOMS, _exprs(depth=1)))
    parts = draw(st.lists(_regrouped(depth=depth - 1), min_size=1, max_size=3))
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" x ", " * "])) + part
        if draw(st.booleans()):
            text = f"({text})"
    if draw(st.booleans()):
        text = f"({text})^{draw(st.integers(1, 3))}"
    return text


def _products_are_flat(e):
    """No product in ``e`` has a factor that is a product of its own kind."""
    product = isinstance(e, (DirectProduct, FreeProduct))
    return all(not (product and type(part) is type(e)) and _products_are_flat(part)
               for part in groups._parts(e))


@settings(max_examples=200, deadline=None)
@given(_regrouped())
@example("(su(2) x Z)^2")
@example("(su(2)^2)^2")
@example("(Z * Z) * Z x (Z x Z) * Z")
def test_parse_pretty_round_trip_through_powers_and_brackets(text):
    e = parse_group_expr(text)
    assert _products_are_flat(e)
    assert parse_group_expr(pretty(e)) == e


@settings(max_examples=50, deadline=None)
@given(st.lists(_exprs(), min_size=2, max_size=4))
@example(["Z/2", "Z/2", "Z/3"])
def test_free_product_chain_independent_of_nesting_and_order(factors):
    def outcome(text):
        try:
            value, exact, _ = nu_walk(parse_group_expr(text))
        except RuleNotApplicable as err:
            return type(err)
        return value, exact

    right = factors[-1]
    for f in reversed(factors[:-1]):
        right = f"{f} * ({right})"
    left = " * ".join(factors)
    backward = " * ".join(reversed(factors))
    assert outcome(left) == outcome(right) == outcome(backward)


@settings(max_examples=50, deadline=None)
@given(_exprs())
def test_upper_bound_dominates_eval(text):
    e = parse_group_expr(text)
    bound = None
    try:
        bound = nu_upper_bound(e)
    except RuleNotApplicable:
        pass
    try:
        exact = nu_eval(e)
    except RuleNotApplicable:
        return
    assert bound is not None and exact <= bound
