"""The lexer gives what the match-per-lexeme loop below gives; the parsed
guards, actions and stop conditions that the parser hands over, read
from its file's own lexemes, are what parsing their stored text alone
gives; and their compiled forms give what the AST interpreter below
gives."""

import re
from itertools import accumulate, compress
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import exprs
from tmflow.diagnostics import SourceSpan
from tmflow.exprs import (
    Assign,
    BinOp,
    Cmp,
    ExprSyntaxError,
    ExprTable,
    GuardTypeError,
    LexError,
    Lit,
    Name,
    compile_actions,
    compile_guard,
    eval_guard,
    is_ident,
    parse_guard,
    tokenize,
)
from tmflow.parser import _Fail, _Parser

from conftest import MODEL_FILES, SCENARIO_FILES, fuzz_texts, perfbench_gen

# ---------------------------------------------------------------------------
# The split lexer against the match-per-lexeme loop it replaces.

_REFERENCE_LEXEME = re.compile(
    r"""
    (?P<NEWLINE>\n)
  | (?P<BLANK>[ \t]+|\#.*)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*")
  | (?P<INT>\d+)
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<SYM>->|=>|:=|<=|>=|!=|[{}(),;:.=<>+\-])
  | (?P<UNTERMINATED>".*)
  | (?P<UNEXPECTED>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # IDENT INT STRING SYM NEWLINE EOF
    value: str
    line: int
    column: int
    offset: int


def reference_tokenize(text: str) -> list[Token]:
    """One match per lexeme, blank or comment: the tokens, ending with
    EOF, each with its kind, line and column; or the LexError raised."""
    tokens: list[Token] = []
    line, line_start, pos, size = 1, 0, 0, len(text)
    while pos < size:
        match = _REFERENCE_LEXEME.match(text, pos)
        kind, start, pos = match.lastgroup, pos, match.end()
        if kind == "BLANK":
            continue
        if kind == "NEWLINE":
            if tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token(kind, "\n", line, start - line_start + 1, start))
            line, line_start = line + 1, pos
            continue
        value, column = match.group(), start - line_start + 1
        if kind in ("UNTERMINATED", "UNEXPECTED"):
            raise LexError(kind, value, SourceSpan(line, column, len(value)))
        tokens.append(Token(kind, value, line, column, start))
    tokens.append(Token("EOF", "", line, pos - line_start + 1, pos))
    return tokens


def first_character_kind(value: str) -> str:
    """A lexeme's kind, read from its first character as the parsers do."""
    first = value[:1]
    if not first:
        return "EOF"
    if first == "\n":
        return "NEWLINE"
    if first == '"':
        return "STRING"
    if first.isdecimal():
        return "INT"
    return "IDENT" if is_ident(value) else "SYM"


def split_tokens(text: str) -> list[Token]:
    """``tokenize``'s lexemes and offsets, each with the kind read from
    its first character and the line and column of its offset."""
    values, offsets = tokenize(text)
    assert len(values) == len(offsets)
    tokens = []
    for value, offset in zip(values, offsets):
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        tokens.append(Token(first_character_kind(value), value, line, column, offset))
    return tokens


def lexed(lex, text: str):
    """The token list, or the kind, span and message of the LexError raised."""
    try:
        return lex(text)
    except LexError as exc:
        return "LexError", exc.kind, exc.span, str(exc)


_EDGE_TEXTS = [
    "", "\n", "  \t ", "\n\n  \n", "a \n\n \t\n", "a  \t", "x\n   ",
    "a # last line, no newline", "# only a comment", "a\n# c\n\n# d",
    '"open string', 'a "ok" "open', 'a = "x\\"y" "\\\\"', '"a\\\n"',
    "a\fb", "\f", "a\rb", "a\x0bb", "@", "a.b -> c.d => e := 1 <= 2 >= 3 != 4",
    "é9 ü_x 1a 12 ٣", "\u00a0x", "\t#\n\t#x\n", "²x ₂ _² a² Ⅻ 1²",
    'x "a # b" # c\n\n y',
    "# a\n  # b\n\n  c # d\n\t\n# e\n", 'a "#" "\n', "\ufeffa", "a\r\nb",
]


def lexer_inputs():
    gen = perfbench_gen()
    yield from _EDGE_TEXTS
    yield from fuzz_texts()
    for path in MODEL_FILES + SCENARIO_FILES:
        yield path.read_text(encoding="utf-8")
    for seed in range(1, 21):
        for chain in (gen["static_large"](seed), gen["sim_tokens"](seed)):
            yield chain.model
            yield chain.scenario


def test_tokenize_matches_the_reference_lexer():
    """Lexemes, offsets, each token's kind, line and column, and each
    LexError's kind, span and message are the reference's."""
    errors = {"UNTERMINATED": 0, "UNEXPECTED": 0}
    for text in lexer_inputs():
        want, got = lexed(reference_tokenize, text), lexed(split_tokens, text)
        assert got == want, text
        if want[0] == "LexError":
            errors[want[1]] += 1
    assert min(errors.values()) > 100, errors


def test_parser_spans_are_the_reference_spans():
    """The parser's span of each lexeme, bisected from its file's line
    starts, is the reference token's line, column and length."""
    for text in lexer_inputs():
        want = lexed(reference_tokenize, text)
        if want[0] == "LexError" or "\r" in text or text.startswith("\ufeff"):
            continue  # no lexemes, or ones the parser's normalize moves
        parser = _Parser(text)
        assert [parser.span(pos) for pos in range(len(want))] == [
            SourceSpan(token.line, token.column, max(1, len(token.value))) for token in want
        ], text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\n\r\f#\"\\ab1_.-=>:{}é\ufeff²٣;(),!+", max_size=40))
def test_generated_texts_lex_alike(text):
    assert lexed(split_tokens, text) == lexed(reference_tokenize, text)


# ---------------------------------------------------------------------------
# tokenize against the split lexer it replaced: one ``re.split`` over the
# pattern below gave every lexeme with the gap before it, and passes in C
# over all of them gave the offsets, checked the gaps and dropped the
# comments.

_SPLIT_LEXEME = re.compile(
    r"([^\W\d]\w*"
    r"|->|=>|:=|<=|>=|!=|[{}(),;:.=<>+\-]"
    r"|\n(?:[ \t]*(?:\#[^\n]*)?\n)*"
    r"|\d+"
    r'|"(?:[^"\\\n]|\\.)*"'
    r"|\#[^\n]*)"
)


def split_tokenize(text: str) -> tuple[list[str], list[int]]:
    parts = _SPLIT_LEXEME.split(text)  # gap, lexeme, gap, ..., lexeme, gap
    offsets = list(accumulate(map(len, parts), initial=0))[1::2]
    gaps = parts[::2]
    if "".join(gaps).strip(" \t"):
        # At the first character, not a blank, of the first gap holding one.
        gap, end = next((gap, end) for gap, end in zip(gaps, offsets) if gap.strip(" \t"))
        rest = gap.lstrip(" \t")
        offset = end - len(rest)
        kind = "UNTERMINATED" if rest[0] == '"' else "UNEXPECTED"
        value = text[offset:].split("\n", 1)[0] if kind == "UNTERMINATED" else rest[0]
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        raise LexError(kind, value, SourceSpan(line, column, len(value)))
    values = parts[1::2]
    # A line end with more lines becomes "\n", and a comment None.
    fix = {lexeme: None if lexeme[0] == "#" else "\n"
           for lexeme in set(values) if lexeme[0] in "#\n" and lexeme != "\n"}
    if fix:
        values = list(map(fix.get, values, values))
        if None in fix.values():
            offsets = [*compress(offsets, values), len(text)]
            values = list(compress(values, values))
    if values[:1] == ["\n"]:
        del values[0], offsets[0]
    values.append("")
    return values, offsets


# Pieces of text the drawn texts are made of: line ends of each kind, blank
# and comment-only lines, a byte-order mark, tabs, strings with escapes,
# non-ASCII identifiers and digits, every symbol, characters no lexeme
# starts with, and strings left open.
_PIECES = [
    "\n", "\r\n", "\r", "\n\n", "\n  \n", "\n\t# only a comment\n", "# note", "#", " ", "\t",
    "  ", "\ufeff", '"a"', '"a\\"b"', '"\\\\"', '"# kept"', '"é\\t"', '"open', '"\\', "x",
    "_y1", "größe", "²x", "ü_", "7", "12", "٣", "1²", "->", "=>", ":=", "<=", ">=", "!=", "=",
    "<", ">", "-", "+", ".", ",", ";", ":", "{", "}", "(", ")", "!", "@", "$", "\f", "\x0b",
    "\u00a0", "\\",
]


def lex_result(tokenize_text, text: str):
    """The lexemes and offsets, or the kind and span of the LexError."""
    try:
        return tokenize_text(text)
    except LexError as exc:
        return exc.kind, exc.span


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES) | st.text(max_size=2), max_size=40).map("".join))
def test_tokenize_matches_the_split_lexer(text):
    assert lex_result(tokenize, text) == lex_result(split_tokenize, text)


def test_tokenize_matches_the_split_lexer_on_every_input():
    for text in lexer_inputs():
        assert lex_result(tokenize, text) == lex_result(split_tokenize, text), text


def from_text(kind: str, text: str):
    """The AST of a guard or an action text, parsed from the text alone
    as a hand-built model's are, or the message of its ExprSyntaxError."""
    try:
        return ExprTable().ast(kind, text)
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


_NESTED = {
    "parentheses": ("guard", lambda depth: "(" * depth + "n" + ")" * depth + " < 1"),
    "minuses": ("guard", lambda depth: "n < " + "- " * depth + "1"),
    "action": ("action", lambda depth: "n := " + "(" * depth + "1" + ")" * depth),
    "chain": ("guard", lambda depth: "n" + " + n - 1" * (depth // 2) + " + n" * (depth % 2) + " > 0"),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_past_the_bound_is_a_syntax_error(shape):
    """Parsed alone, as a model built by hand has it parsed, an expression
    nested 100 deep parses, and one nested deeper is an ExprSyntaxError,
    not a RecursionError."""
    kind, text = _NESTED[shape]
    assert not isinstance(from_text(kind, text(100)), str)
    for depth in (101, 2000):
        assert from_text(kind, text(depth)) == "nesting deeper than 100 levels"

def height(node) -> int:
    """The levels of BinOp and Cmp nodes above an expression's deepest leaf."""
    if isinstance(node, (BinOp, Cmp)):
        return 1 + max(height(node.left), height(node.right))
    return 0


def test_chains_in_parentheses_nest_no_deeper_than_the_bound():
    """A sum's operators nest its operands under one BinOp each, also
    where every operand is a parenthesized sum of its own: such a guard
    parses to an AST at most 100 BinOps deep, which compiles and runs, or
    is the nesting error; it is never a RecursionError."""
    parsed = refused = 0
    for levels in range(1, 60, 4):
        for operators in range(1, 60, 4):
            text = "n"
            for _ in range(levels):
                text = "(" + text + " + n" * operators + ")"
            for guard in (text + " < 1", "n < - " + text, "n < 1 - " + text):
                node = from_text("guard", guard)
                if node == "nesting deeper than 100 levels":
                    refused += 1
                    continue
                assert height(node.right if guard[0] == "n" else node.left) <= 100, guard
                compile_guard(node)({"n": 1})
                parsed += 1
    assert parsed > 100 and refused > 100


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
    assert repr(ExprTable().ast("action", "a := -b")) == (
        "[Assign(name='a', expr=BinOp(op='-', left=Lit(value=0), right=Name(ident='b')))]")
    assert node == Cmp(">=", BinOp("+", Name("n"), Lit(1)), Lit(value="x"))
    assert node != Cmp(">", BinOp("+", Name("n"), Lit(1)), Lit("x"))
    assert Lit("x") != Name("x") and Name("x") != Lit("x")
    assert Assign("x", Lit(1)) != ("x", Lit(1))
    assert hash(Lit(1)) == hash((1,)) and hash(node) == hash(parse_guard('n + 1 >= "x"'))
    assert len({Lit(1), Lit(1), Name("n"), Name("n")}) == 2
    for record in (Lit(1), Name("n"), BinOp("+", Lit(1), Lit(2)), node, Assign("a", Lit(1))):
        assert not hasattr(record, "__dict__")
