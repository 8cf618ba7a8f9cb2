"""The parsed guards, actions and stop conditions that the parser hands
over, read from its file's own tokens, are what parsing their stored
text alone gives; and their compiled forms give what the AST
interpreter below gives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import exprs
from tmflow.exprs import (
    Assign,
    BinOp,
    Cmp,
    ExprSyntaxError,
    GuardTypeError,
    Lit,
    Name,
    compile_actions,
    compile_guard,
    eval_guard,
    parse_guard,
    parse_statements,
)
from tmflow.parser import _Fail, _Parser

from conftest import MODEL_FILES, SCENARIO_FILES, perfbench_gen


def from_text(kind: str, text: str):
    """``parse_guard`` or ``parse_statements`` of a text: its AST, or the
    message of the ExprSyntaxError it raises."""
    try:
        return parse_guard(text) if kind == "guard" else parse_statements(text)
    except ExprSyntaxError as exc:
        return str(exc)


def handed_over(source: str, scenario: bool = False) -> _Parser:
    """The parser after reading a model (or scenario) file."""
    parser = _Parser(source)
    try:
        parser.parse_scenario() if scenario else parser.parse_document()
    except _Fail:
        pass
    return parser


def check_table(parser: _Parser) -> None:
    """Each filed expression equals its text parsed alone, and each one
    that does not parse is reported with the same message."""
    reported = {d.message for d in parser.diagnostics if d.code == "GUARD_SYNTAX"}
    for (kind, text), node in parser.exprs.items():
        if isinstance(node, ExprSyntaxError):
            assert from_text(kind, text) == str(node), text
            assert any(message.endswith(f": {node}") for message in reported), text
        else:
            assert from_text(kind, text) == node, text


_PIECES = st.sampled_from([
    "n", "hop", "x1", "label", "0", "42", '"a"', '"q\\"x"', '"',
    "=", "!=", "<", "<=", ">", ">=", "+", "-", "(", ")", ";", ":=",
    ".", ",", ":", "->", "=>", "@",
])
_TEXTS = st.lists(st.tuples(_PIECES, st.sampled_from(["", " ", "\t"])),
                  max_size=8).map(lambda items: "".join(p + s for p, s in items))

MODEL = "thing job {{ n: int }}\nmachine a {{ stages Create, Process }}\n" \
        "flow f1: a.Create -> a.Process on job when {} label \"x\"\n"
ACTION = "scenario s {{\n  action a.Process {{ {} }}\n}}\n"
STOP = "scenario s {{\n  stop when {}\n}}\n"


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_generated_texts_parse_alike_on_both_paths(text):
    for source, scenario in ((MODEL, False), (ACTION, True), (STOP, True)):
        parser = handed_over(source.format(text), scenario)
        assert len(parser.exprs) == 1 or parser.diagnostics
        check_table(parser)


def test_filed_text_is_the_verbatim_source():
    parser = handed_over(MODEL.format("n  >=(1 -  x1)"))
    assert list(parser.exprs) == [("guard", "n  >=(1 -  x1)")]
    assert not parser.diagnostics


def generated_files():
    gen = perfbench_gen()
    for seed in range(1, 21):
        for chain in (gen["static_large"](seed), gen["sim_tokens"](seed)):
            yield f"seed {seed}", chain.model, chain.scenario


@pytest.mark.parametrize("path", MODEL_FILES + SCENARIO_FILES, ids=lambda p: p.name)
def test_corpus_expressions_parse_alike(path):
    parser = handed_over(path.read_text(encoding="utf-8"), path.suffix == ".tms")
    assert not parser.diagnostics
    check_table(parser)


def test_generated_model_expressions_parse_alike():
    filed = 0
    for name, model, scenario in generated_files():
        for source, is_scenario in ((model, False), (scenario, True)):
            parser = handed_over(source, is_scenario)
            assert not parser.diagnostics, name
            check_table(parser)
            filed += len(parser.exprs)
    assert filed > 1000


# ---------------------------------------------------------------------------
# Compiled guards and actions against the AST interpreter they replace.

def reference_expr(node, attrs):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Name):
        if node.ident not in attrs:
            raise GuardTypeError(f"token has no attribute '{node.ident}'")
        return attrs[node.ident]
    if isinstance(node, BinOp):
        left = reference_expr(node.left, attrs)
        right = reference_expr(node.right, attrs)
        if not isinstance(left, int) or not isinstance(right, int):
            raise GuardTypeError(f"operator '{node.op}' needs integer operands")
        return left + right if node.op == "+" else left - right
    raise GuardTypeError(f"cannot evaluate {node!r}")


def reference_guard(node, attrs):
    left = reference_expr(node.left, attrs)
    right = reference_expr(node.right, attrs)
    if node.op == "=":
        return left == right
    if node.op == "!=":
        return left != right
    if type(left) is not type(right):
        raise GuardTypeError(
            f"cannot order {type(left).__name__} against {type(right).__name__}"
        )
    if node.op == "<":
        return left < right
    if node.op == "<=":
        return left <= right
    if node.op == ">":
        return left > right
    return left >= right


def reference_statements(stmts, attrs):
    for stmt in stmts:
        attrs[stmt.name] = reference_expr(stmt.expr, attrs)


def outcome(fn, *args):
    """A call's value, or the message of the GuardTypeError it raises."""
    try:
        return "value", fn(*args)
    except GuardTypeError as exc:
        return "error", str(exc)


_IDENTS = ["a", "b", "c"]  # "c" is never in the generated attributes
_VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(["", "x", "y"]))
_ATTRS = st.dictionaries(st.sampled_from(_IDENTS[:2]), _VALUES)
_LEAVES = st.one_of(st.builds(Lit, _VALUES), st.builds(Name, st.sampled_from(_IDENTS)))
_EXPRS = st.recursive(
    _LEAVES,
    lambda inner: st.builds(BinOp, st.sampled_from(["+", "-"]), inner, inner),
    max_leaves=6,
)
_GUARDS = st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                    _EXPRS, _EXPRS)


@settings(max_examples=600, deadline=None)
@given(_GUARDS, _ATTRS)
def test_compiled_guards_match_the_interpreter(guard, attrs):
    want = outcome(reference_guard, guard, attrs)
    assert outcome(compile_guard(guard), attrs) == want
    assert outcome(eval_guard, guard, attrs) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Assign, st.sampled_from(_IDENTS), _EXPRS),
                min_size=1, max_size=3), _ATTRS)
def test_compiled_actions_match_the_interpreter(stmts, attrs):
    want_attrs, got_attrs = dict(attrs), dict(attrs)
    want = outcome(reference_statements, stmts, want_attrs)
    assert outcome(compile_actions(stmts), got_attrs) == want
    assert got_attrs == want_attrs  # assignments before a failing one stay


@pytest.mark.parametrize("text, attrs, message", [
    ("n > 1", {}, "token has no attribute 'n'"),
    ("n + 1 > 1", {"n": "x"}, "operator '+' needs integer operands"),
    ("1 - n > 1", {"n": 2, "m": 1}, None),
    ('m - "x" > n', {"n": 1}, "token has no attribute 'm'"),
    ('n - "x" > 1', {"n": 1}, "operator '-' needs integer operands"),
    ("n < 1", {"n": "x"}, "cannot order str against int"),
    ('"a" >= n', {"n": 0}, "cannot order str against int"),
    ("n = 1", {"n": "x"}, None),
])
def test_guard_type_error_messages(text, attrs, message):
    """Each message, and the operand that raises first: left before right,
    then the operator's own test."""
    guard = compile_guard(parse_guard(text))
    if message is None:
        assert outcome(guard, attrs)[0] == "value"
    else:
        assert outcome(guard, attrs) == ("error", message)


def test_the_interpreter_is_gone():
    assert not hasattr(exprs, "eval_expr")
    assert not hasattr(exprs, "exec_statements")


def test_ast_records_keep_the_dataclass_behaviour():
    """The AST nodes are plain slotted classes: shown, compared and
    hashed as the frozen dataclasses they replaced."""
    node = parse_guard('n + 1 >= "x"')
    assert repr(node) == ("Cmp(op='>=', left=BinOp(op='+', left=Name(ident='n'), "
                          "right=Lit(value=1)), right=Lit(value='x'))")
    assert repr(parse_statements("a := -b")) == (
        "[Assign(name='a', expr=BinOp(op='-', left=Lit(value=0), right=Name(ident='b')))]")
    assert node == Cmp(">=", BinOp("+", Name("n"), Lit(1)), Lit(value="x"))
    assert node != Cmp(">", BinOp("+", Name("n"), Lit(1)), Lit("x"))
    assert Lit("x") != Name("x") and Name("x") != Lit("x")
    assert Assign("x", Lit(1)) != ("x", Lit(1))
    assert hash(Lit(1)) == hash((1,)) and hash(node) == hash(parse_guard('n + 1 >= "x"'))
    assert len({Lit(1), Lit(1), Name("n"), Name("n")}) == 2
    for record in (Lit(1), Name("n"), BinOp("+", Lit(1), Lit(2)), node, Assign("a", Lit(1))):
        assert not hasattr(record, "__dict__")
