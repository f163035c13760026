"""Type-expression grammar: parsing, rendering, round-trips."""

import pytest
from hypothesis import given, strategies as st

from dsdl.diagnostics import GrammarError
from dsdl.typeexpr import (
    MAX_TYPE_DEPTH,
    Arg,
    NumberLit,
    ParamRef,
    TypeExpr,
    parse_sample_type_spec,
    parse_type_expression,
    render_type_expression,
)


def test_bare_identifier():
    assert parse_type_expression("Image") == TypeExpr("Image")


def test_keyed_domain_argument():
    expr = parse_type_expression("Label[dom=MyClassDom]")
    assert expr == TypeExpr("Label", (Arg("dom", TypeExpr("MyClassDom")),))


def test_nested_parametric_argument():
    expr = parse_type_expression("List[etype=LocalObjectEntry[cdom=$cdom]]")
    inner = TypeExpr("LocalObjectEntry", (Arg("cdom", ParamRef("cdom")),))
    assert expr == TypeExpr("List", (Arg("etype", inner),))


def test_string_argument():
    expr = parse_type_expression('Time[fmt="%H:%M"]')
    assert expr == TypeExpr("Time", (Arg("fmt", "%H:%M"),))


def test_number_and_bool_arguments():
    expr = parse_type_expression("List[etype=Int, ordered=true]")
    assert expr.args[1] == Arg("ordered", True)
    expr = parse_type_expression("T[x=1.25e-6]")
    assert expr.args[0] == Arg("x", NumberLit("1.25e-6"))
    assert expr.args[0].value.as_number() == pytest.approx(1.25e-6)


def test_whitespace_is_ignored():
    assert parse_type_expression("List[ Int ]") == parse_type_expression("List[Int]")


def test_unbalanced_bracket_reports_offset():
    with pytest.raises(GrammarError) as exc:
        parse_type_expression("List[Int")
    assert exc.value.offset == 8


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("", "expected identifier", 0),
        ("T[]", "empty argument list", 2),
        ("T[ ]", "empty argument list", 3),
        ("List[Int,]", "trailing comma", 9),
        ("List[Int, ]", "trailing comma", 10),
        ("T[a=1, 2]", "positional argument after keyed argument", 8),
        ("T[a=1 , Int ]", "positional argument after keyed argument", 12),
        ("T[,Int]", "expected a value", 2),
        ("T[a=@]", "expected a value", 4),
        ("List[Int]]", "unexpected trailing input", 9),
        ("List[Int", "expected ',' or ']'", 8),
        ("3Head", "expected identifier", 0),
        ("$param", "expected identifier", 0),
        ("T[$1]", "expected identifier", 3),
        ("true", "boolean literal cannot head a type expression", 4),
        ('T[fmt="unterminated]', "unterminated string", 6),
        ('T[a="x]', "unterminated string", 4),
        ('T[a="x\\', "unterminated escape", 6),
        ("T[a=\u00b2]", "expected number", 4),
        ("L[" * (MAX_TYPE_DEPTH + 1), "type expression nested too deeply", 201),
    ],
)
def test_malformed_inputs_raise_grammar_errors(text, message, offset):
    with pytest.raises(GrammarError) as exc:
        parse_type_expression(text)
    assert exc.value.diagnostic.message == f"{message} (at offset {offset})"
    assert exc.value.offset == offset


def test_a_unicode_decimal_digit_is_a_number():
    assert parse_type_expression("T[a=\u0663]").args[0] == Arg("a", NumberLit("\u0663"))


def test_parsing_bytes_is_a_type_error():
    with pytest.raises(TypeError, match="text must be str, not bytes"):
        parse_type_expression(b"Int")


@pytest.mark.parametrize(
    "number, message",
    [
        (10**5000, "integer argument has too many digits"),
        (float("nan"), "number nan has no type-expression literal"),
        (float("inf"), "number inf has no type-expression literal"),
        (float("-inf"), "number -inf has no type-expression literal"),
    ],
    ids=["past-digit-limit", "nan", "inf", "-inf"],
)
def test_a_mapping_number_the_text_form_cannot_write_is_a_grammar_error(number, message):
    with pytest.raises(GrammarError) as exc:
        parse_sample_type_spec({"$type": "T", "x": number})
    assert exc.value.code == "GRAMMAR_ERROR"
    assert exc.value.diagnostic.message == f"{message} (at offset 0)"


def test_render_no_args():
    assert render_type_expression(TypeExpr("Int")) == "Int"


def test_rendering_a_str_is_a_type_error():
    with pytest.raises(TypeError, match="takes a TypeExpr, not str"):
        render_type_expression("Int")


def test_render_emits_what_the_ast_holds():
    assert render_type_expression(parse_type_expression("List[ Int ]")) == "List[Int]"
    assert render_type_expression(parse_type_expression("Label[dom=$cdom]")) == "Label[dom=$cdom]"


def test_render_escapes_strings():
    expr = TypeExpr("T", (Arg("s", 'a"b\\c'),))
    assert parse_type_expression(render_type_expression(expr)) == expr


def test_mapping_spec_equivalent_to_string_spec():
    mapping = {"$type": "ObjectDetectionSample", "cdom": "MyClassDom"}
    assert parse_sample_type_spec(mapping) == parse_type_expression(
        "ObjectDetectionSample[cdom=MyClassDom]"
    )


def test_string_spec_passthrough():
    expr = parse_sample_type_spec("ClassificationSample[cdom=Cifar10ImageClassificationClassDom]")
    assert expr.head == "ClassificationSample"
    assert expr.args[0].key == "cdom"


def test_mapping_spec_without_type_key():
    with pytest.raises(GrammarError) as exc:
        parse_sample_type_spec({"cdom": "X"})
    assert exc.value.code == "MISSING_TYPE_KEY"


def test_mapping_spec_plain_string_value_stays_literal():
    expr = parse_sample_type_spec({"$type": "Time", "fmt": "%H:%M"})
    assert expr.args[0] == Arg("fmt", "%H:%M")


def _nested(levels: int, mapping_levels: int):
    """``List[etype=...Int]`` nested ``levels`` deep; the outer ``mapping_levels``
    levels use the ``{$type: ...}`` form, the rest the string form."""
    text = "Int"
    for _ in range(levels - mapping_levels - 1):
        text = f"List[etype={text}]"
    spec = text
    for _ in range(mapping_levels):
        spec = {"$type": "List", "etype": spec}
    return spec


@pytest.mark.parametrize("mapping_levels", [0, 1, 50, MAX_TYPE_DEPTH - 1])
def test_nesting_limit_counts_both_forms(mapping_levels):
    expr = parse_sample_type_spec(_nested(MAX_TYPE_DEPTH, mapping_levels))
    for _ in range(MAX_TYPE_DEPTH - 1):
        expr = expr.args[0].value
    assert expr == TypeExpr("Int")
    for levels in (MAX_TYPE_DEPTH + 1, 400):
        with pytest.raises(GrammarError) as exc:
            parse_sample_type_spec(_nested(levels, mapping_levels))
        assert exc.value.code == "GRAMMAR_ERROR"
        assert exc.value.diagnostic.message.startswith("type expression nested too deeply")


def test_nesting_limit_applies_to_a_mapping_type_head():
    head = "List[etype=" * (MAX_TYPE_DEPTH - 2) + "Int" + "]" * (MAX_TYPE_DEPTH - 2)
    parse_sample_type_spec({"$type": "List", "etype": {"$type": head}})
    with pytest.raises(GrammarError, match="nested too deeply"):
        parse_sample_type_spec({"$type": "List", "etype": {"$type": "List", "etype": {"$type": head}}})


# hypothesis strategy mirrors the generated-AST corpus used in acceptance

_idents = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in ("true", "false")
)
_strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_numbers = st.one_of(
    st.integers(-10**6, 10**6).map(lambda n: NumberLit(str(n))),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda f: NumberLit(repr(f))),
)


def _exprs(depth: int):
    leaf_values = st.one_of(
        _strings,
        st.booleans(),
        _numbers,
        _idents.map(ParamRef),
        _idents.map(TypeExpr),
    )
    if depth <= 0:
        values = leaf_values
    else:
        values = st.one_of(leaf_values, st.deferred(lambda: _exprs(depth - 1)))

    def build(head, positional, keyed):
        args = tuple(Arg(None, v) for v in positional) + tuple(Arg(k, v) for k, v in keyed)
        return TypeExpr(head, args)

    return st.builds(
        build,
        _idents,
        st.lists(values, max_size=2),
        st.lists(st.tuples(_idents, values), max_size=2),
    )


@given(_exprs(3))
def test_parse_render_round_trip(expr):
    assert parse_type_expression(render_type_expression(expr)) == expr


_grammar_text = st.lists(
    st.one_of(
        st.sampled_from(["T", "a", "[", "]", ",", "=", "$", '"', "\\", " ", "\n", "1", "-.5e3", "true"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=24,
).map("".join)


@given(_grammar_text)
def test_any_text_parses_and_round_trips_or_is_a_grammar_error(text):
    try:
        expr = parse_type_expression(text)
    except GrammarError:
        return
    assert parse_type_expression(render_type_expression(expr)) == expr
