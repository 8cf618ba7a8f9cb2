"""The lexer of the tmflow language, and its tiny infix expression language.

One lexical grammar covers models, regions, behavior sections, scenarios
and the guards, actions and stop conditions inside them.  Blanks and
``#`` comments separate tokens.  A string is double-quoted on one line,
with ``\\"`` and ``\\\\`` escapes.  An integer is a run of decimal digits.
An identifier is a run of letters, digits and ``_`` that does not start
with a decimal digit.  Symbols are listed in ``_LEXEME``.

Expression grammar (no boolean connectives, by design):

    guard   := sum cmp sum
    cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="
    sum     := term (("+" | "-") term)*
    term    := INT | STRING | IDENT | "(" sum ")"
    stmt    := IDENT ":=" sum
    stmts   := stmt (";" stmt)*

Expressions are parsed from tokens, which a file's parser hands over
from its one lex of the file.  ``compile_guard`` and ``compile_actions``
turn a parsed guard or action list into one Python callable over a
token's attributes, built from closures (no source text is generated);
a caller compiles each expression once and calls it per evaluation.
Identifiers name attributes of the token under evaluation.  Values are
integers or text; mixing the two in an operator raises GuardTypeError,
as does referencing an attribute the token does not carry.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, NamedTuple

from .diagnostics import SourceSpan


class ExprSyntaxError(Exception):
    pass


class GuardTypeError(Exception):
    pass


Value = int | str


class _Node:
    """An AST record: plain slots (defining and building one costs less
    than a dataclass), equal to a node of its own class with equal fields,
    hashed by its fields, and shown as ``Lit(value=1)``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Lit(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class Name(_Node):
    __slots__ = ("ident",)

    def __init__(self, ident: str):
        self.ident = ident


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # "+" | "-"
        self.left = left
        self.right = right


class Cmp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # "=" "!=" "<" "<=" ">" ">="
        self.left = left
        self.right = right


Expr = Lit | Name | BinOp


class Assign(_Node):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr


# ---------------------------------------------------------------------------
# Lexer

_LEXEME = re.compile(
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

_EXPR_SYMBOLS = frozenset(
    {":=", "<=", ">=", "!=", "=", "<", ">", "+", "-", "(", ")", ";"}
)


class Token(NamedTuple):
    kind: str  # IDENT INT STRING SYM NEWLINE EOF; UNTERMINATED UNEXPECTED in LexError
    value: str
    line: int
    column: int
    offset: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.value)))

    @property
    def end(self) -> int:
        return self.offset + len(self.value)


class LexError(Exception):
    """Text where no token starts: an unexpected character or an open string."""

    def __init__(self, token: Token):
        self.token = token
        if token.kind == "UNTERMINATED":
            super().__init__("unterminated string literal")
        else:
            super().__init__(f"unexpected character {token.value!r}")


def tokenize(text: str) -> list[Token]:
    """Split text into tokens, ending with EOF; raise LexError where none starts.

    A NEWLINE token ends each line that holds a token."""
    tokens: list[Token] = []
    line, line_start, pos, size = 1, 0, 0, len(text)
    while pos < size:
        match = _LEXEME.match(text, pos)
        kind, start, pos = match.lastgroup, pos, match.end()
        if kind == "BLANK":
            continue
        if kind == "NEWLINE":
            if tokens and tokens[-1].kind != "NEWLINE":
                tokens.append(Token(kind, "\n", line, start - line_start + 1, start))
            line, line_start = line + 1, pos
            continue
        token = Token(kind, match.group(), line, start - line_start + 1, start)
        if kind in ("UNTERMINATED", "UNEXPECTED"):
            raise LexError(token)
        tokens.append(token)
    tokens.append(Token("EOF", "", line, pos - line_start + 1, pos))
    return tokens


def quote(text: str) -> str:
    """A STRING literal standing for ``text``: what ``unquote`` undoes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unquote(literal: str) -> str:
    """The text a STRING token stands for: quotes dropped, escapes undone."""
    return literal[1:-1].replace('\\"', '"').replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Expressions

class _Parser:
    def __init__(self, tokens: list[Token]):
        # NEWLINEs dropped, ``->``/``=>`` read as ``-``/``=`` then ``>``,
        # and any other symbol the expression grammar lacks refused.
        self.tokens: list[Token] = []
        for tok in tokens:
            if tok.kind == "SYM" and tok.value not in _EXPR_SYMBOLS:
                if tok.value not in ("->", "=>"):
                    raise ExprSyntaxError(
                        f"unexpected character in expression: {tok.value[0]!r}")
                self.tokens.append(tok._replace(value=tok.value[0]))
                tok = tok._replace(value=">")
            if tok.kind != "NEWLINE":
                self.tokens.append(tok)
        self.tokens.append(Token("EOF", "", 0, 0, 0))
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "EOF":
            raise ExprSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def at(self, *symbols: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "SYM" and tok.value in symbols

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok.kind != "SYM" or tok.value != op:
            raise ExprSyntaxError(f"expected '{op}', found {tok.value!r}")

    def sum(self) -> Expr:
        node = self.term()
        while self.at("+", "-"):
            node = BinOp(self.take().value, node, self.term())
        return node

    def term(self) -> Expr:
        tok = self.take()
        if tok.kind == "SYM" and tok.value == "-":
            inner = self.term()
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if tok.kind == "INT":
            return Lit(int(tok.value))
        if tok.kind == "STRING":
            return Lit(unquote(tok.value))
        if tok.kind == "IDENT":
            return Name(tok.value)
        if tok.kind == "SYM" and tok.value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.value!r}")

    def comparison(self) -> Cmp:
        left = self.sum()
        tok = self.take()
        if tok.kind != "SYM" or tok.value not in ("=", "!=", "<", "<=", ">", ">="):
            raise ExprSyntaxError(f"expected comparison operator, found {tok.value!r}")
        return Cmp(tok.value, left, self.sum())

    def assignment(self) -> Assign:
        tok = self.take()
        if tok.kind != "IDENT":
            raise ExprSyntaxError(f"expected attribute name, found {tok.value!r}")
        self.expect_op(":=")
        return Assign(tok.value, self.sum())

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(f"trailing input in expression: {tok.value!r}")


def parse_tokens(kind: str, tokens: list[Token]) -> Cmp | list[Assign] | ExprSyntaxError:
    """A guard (``kind`` "guard") or an action ("action") parsed from its
    tokens, without EOF: its AST, or the ExprSyntaxError they raise."""
    try:
        parser = _Parser(tokens)
        if kind == "guard":
            node = parser.comparison()
        else:
            node = [parser.assignment()]
            while parser.at(";"):
                parser.take()
                node.append(parser.assignment())
        parser.done()
        return node
    except ExprSyntaxError as exc:
        return exc.with_traceback(None)


class ExprTable(dict):
    """Parsed expressions by ``(kind, text)``, as ``parse_tokens`` gives
    them.  The parser files each expression of a file from the file's
    own tokens; ``__missing__`` parses a text no parser filed (in a model
    or scenario built by hand), once per table."""

    def __missing__(self, key: tuple[str, str]):
        kind, text = key
        try:
            self[key] = parse_tokens(kind, tokenize(text)[:-1])
        except LexError as exc:
            self[key] = ExprSyntaxError(
                f"unexpected character in expression: {exc.token.value[0]!r}")
        return self[key]

    def ast(self, kind: str, text: str):
        """The AST of ``text``; raises its ExprSyntaxError."""
        node = self[kind, text]
        if isinstance(node, ExprSyntaxError):
            raise node.with_traceback(None)
        return node


def parse_guard(text: str) -> Cmp:
    return ExprTable().ast("guard", text)


def parse_statements(text: str) -> list[Assign]:
    return ExprTable().ast("action", text)


def names(node) -> set[str]:
    """All attribute names referenced by an expression, guard, or statement."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, (BinOp, Cmp)):
        return names(node.left) | names(node.right)
    if isinstance(node, Assign):
        return {node.name} | names(node.expr)
    return set()


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# A guard or an action list compiles once into nested closures over its
# AST (no text is generated or evaluated).  Evaluation order and errors
# are the same for every form: a sum evaluates its left operand, then
# its right, then tests both for ``int``; a comparison evaluates both
# sides, then (for an ordering) tests that their types are the same.
# Only a literal's own type is decided when compiling: an attribute
# value is tested each time, since nothing yet checks that a token's
# values have their declared kinds.

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _missing(ident: str) -> GuardTypeError:
    return GuardTypeError(f"token has no attribute '{ident}'")


def _unordered(left: Value, right: Value) -> GuardTypeError:
    return GuardTypeError(
        f"cannot order {type(left).__name__} against {type(right).__name__}")


def _compile_expr(node: Expr) -> Callable[[dict[str, Value]], Value]:
    if isinstance(node, Lit):
        value = node.value
        return lambda attrs: value
    if isinstance(node, Name):
        ident = node.ident

        def name(attrs):
            try:
                return attrs[ident]
            except KeyError:
                raise _missing(ident) from None
        return name
    if isinstance(node, BinOp):
        return _compile_sum(node)

    def unknown(attrs):
        raise GuardTypeError(f"cannot evaluate {node!r}")
    return unknown


def _compile_sum(node: BinOp) -> Callable[[dict[str, Value]], int]:
    left, right = _compile_expr(node.left), _compile_expr(node.right)
    combine = operator.add if node.op == "+" else operator.sub
    message = f"operator '{node.op}' needs integer operands"
    if isinstance(node.right, Lit) and isinstance(node.right.value, int):
        value = node.right.value

        def int_literal_operand(attrs):
            operand = left(attrs)
            if isinstance(operand, int):
                return combine(operand, value)
            raise GuardTypeError(message)
        return int_literal_operand

    def operands(attrs):
        a, b = left(attrs), right(attrs)
        if isinstance(a, int) and isinstance(b, int):
            return combine(a, b)
        raise GuardTypeError(message)
    return operands


def compile_guard(node: Cmp) -> Callable[[dict[str, Value]], bool]:
    """A guard as one callable over a token's attributes: its truth, or
    the GuardTypeError the comparison or its operands raise."""
    compare = _COMPARE[node.op]
    ordering = node.op not in ("=", "!=")
    if isinstance(node.left, Name) and isinstance(node.right, Lit):
        # The dominant shape, ``name op literal``, in one closure.
        ident, value = node.left.ident, node.right.value
        kind = type(value)

        def attribute_test(attrs):
            try:
                a = attrs[ident]
            except KeyError:
                raise _missing(ident) from None
            if ordering and type(a) is not kind:
                raise _unordered(a, value)
            return compare(a, value)
        return attribute_test
    left, right = _compile_expr(node.left), _compile_expr(node.right)

    def test(attrs):
        a, b = left(attrs), right(attrs)
        if ordering and type(a) is not type(b):
            raise _unordered(a, b)
        return compare(a, b)
    return test


def compile_actions(stmts: list[Assign]) -> Callable[[dict[str, Value]], None]:
    """Assignments as one callable that applies them left to right,
    mutating the attribute mapping."""
    steps = [(stmt.name, _compile_expr(stmt.expr)) for stmt in stmts]

    def run(attrs):
        for name, expr in steps:
            attrs[name] = expr(attrs)
    return run


def eval_guard(node: Cmp, attrs: dict[str, Value]) -> bool:
    """A guard's truth on one token's attributes, compiled for this call."""
    return compile_guard(node)(attrs)
