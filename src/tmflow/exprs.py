"""The lexer of the tmflow language, and its tiny infix expression language.

One lexical grammar covers models, regions, behavior sections, scenarios
and the guards, actions and stop conditions inside them.  Blanks and
``#`` comments separate lexemes.  A string is double-quoted on one line,
with ``\\"`` and ``\\\\`` escapes.  An integer is a run of decimal digits.
An identifier is a run of letters, digits and ``_`` that does not start
with a decimal digit.  Symbols are listed in ``_LEXEME``.

``tokenize`` lexes a text in two passes made in C: one ``split`` over
``_LEXEME`` gives the lexemes, with the gaps between them, and one
``accumulate`` over their lengths gives each lexeme's offset.  The
comments and the line ends that take in further lines are then found
among the file's few hundred distinct lexemes, not by another pass over
the text: a lexeme that starts with ``#`` is a comment, since a string
starts with ``"``.  No record is kept per lexeme: a lexeme's kind is
read from its first character (a quote starts a STRING, a decimal digit
an INT, ``\\n`` is NEWLINE and the empty lexeme EOF; ``is_ident`` tells
an IDENT from a symbol), and the parser builds a ``SourceSpan`` from an
offset only where it keeps one.  A lexing error is at the first
character, not a blank, of a gap.

Expression grammar (no boolean connectives, by design):

    guard   := sum cmp sum
    cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="
    sum     := term (("+" | "-") term)*
    term    := INT | STRING | IDENT | "(" sum ")"
    stmt    := IDENT ":=" sum
    stmts   := stmt (";" stmt)*

Expressions are parsed from lexemes, which a file's parser hands over
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
from itertools import accumulate, compress
from typing import Callable

from .diagnostics import Record, SourceSpan, _setattr


class ExprSyntaxError(Exception):
    """Text that is no guard or action.  ``at``, for nesting deeper than
    ``_MAX_NESTING``, is the position, among the lexemes parsed, of the
    ``(`` or ``-`` that opens the level too many."""

    def __init__(self, message: str, at: int | None = None):
        super().__init__(message)
        self.at = at


class GuardTypeError(Exception):
    pass


Value = int | str


class _Node(Record):
    """An AST record: frozen, equal to a node of its own class with equal
    fields, hashed by its fields, and shown as ``Lit(value=1)``."""

    __slots__ = ()


class Lit(_Node):
    """A literal: an int or a text."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        _setattr(self, "value", value)


class Name(_Node):
    """An attribute of the token."""

    __slots__ = ("ident",)

    def __init__(self, ident: str):
        _setattr(self, "ident", ident)


class BinOp(_Node):
    """``left + right`` or ``left - right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _setattr(self, "op", op)  # "+" | "-"
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Cmp(_Node):
    """A comparison: the whole of a guard."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _setattr(self, "op", op)  # "=" "!=" "<" "<=" ">" ">="
        _setattr(self, "left", left)
        _setattr(self, "right", right)


Expr = Lit | Name | BinOp


class Assign(_Node):
    """``name := expr``: one statement of an action."""

    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: Expr):
        _setattr(self, "name", name)
        _setattr(self, "expr", expr)


# ---------------------------------------------------------------------------
# Lexer

# One ``split`` finds every lexeme of a text as the group of this pattern;
# what lies between two lexemes must be blanks.  The first five kinds
# start with distinct characters, so they are tried most frequent first.
# A line end takes in the blank and comment-only lines after it, and a
# comment is a lexeme of its own: ``tokenize`` shortens the one, drops
# the other and drops a line end before the first lexeme.  (Written
# without re.VERBOSE, which costs more to compile at import.)
_LEXEME = re.compile(
    r"([^\W\d]\w*"
    r"|->|=>|:=|<=|>=|!=|[{}(),;:.=<>+\-]"
    r"|\n(?:[ \t]*(?:\#[^\n]*)?\n)*"
    r"|\d+"
    r'|"(?:[^"\\\n]|\\.)*"'
    r"|\#[^\n]*)"
)

# The deepest nesting of parentheses and unary minuses in an expression,
# and of machines in a model: each level costs the recursive-descent
# parsers a few Python frames, so a limit far below Python's recursion
# limit turns a model that would exhaust the stack into a SYNTAX error.
_MAX_NESTING = 100

# The symbols outside the expression grammar.
_OTHER_SYMBOLS = frozenset({"->", "=>", "{", "}", ",", ":", "."})


def is_ident(lexeme: str) -> bool:
    """Whether a lexeme is an IDENT, like ``x`` or ``²x``: its first character
    is a word character and not a decimal digit (``str.isdecimal``, as ``\\d``)."""
    first = lexeme[:1]
    return lexeme.isidentifier() or (first.isalnum() or first == "_") and not first.isdecimal()


class LexError(Exception):
    """Text where no lexeme starts: an UNEXPECTED character, or an
    UNTERMINATED string (``value`` runs to the end of its line)."""

    def __init__(self, kind: str, value: str, span: SourceSpan):
        self.kind, self.value, self.span = kind, value, span
        super().__init__("unterminated string literal" if kind == "UNTERMINATED"
                         else f"unexpected character {value!r}")


def tokenize(text: str) -> tuple[list[str], list[int]]:
    """The lexemes of ``text`` and their offsets, both built in C, ending
    with EOF, the empty lexeme at ``len(text)``; raise LexError where none
    starts.  A line that holds a lexeme ends with a ``"\\n"`` lexeme.

    The split yields comments, and line ends that take in the blank and
    comment-only lines after them; both are picked out of the set of
    distinct lexemes, and ``map`` and ``compress`` then shorten or drop
    each of their occurrences in C."""
    parts = _LEXEME.split(text)  # gap, lexeme, gap, ..., lexeme, gap
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


def quote(text: str) -> str:
    """A STRING literal standing for ``text``: what ``unquote`` undoes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unquote(literal: str) -> str:
    """The text a STRING lexeme stands for: quotes dropped, escapes undone."""
    return literal[1:-1].replace('\\"', '"').replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Expressions

class _Parser:
    def __init__(self, lexemes: list[str]):
        # Line ends dropped, ``->``/``=>`` read as ``-``/``=`` then ``>``,
        # and any other symbol the expression grammar lacks refused.
        self.values: list[str] = []
        for value in lexemes:
            if value in _OTHER_SYMBOLS:
                if value not in ("->", "=>"):
                    raise ExprSyntaxError(f"unexpected character in expression: {value[0]!r}")
                self.values += (value[0], ">")
            elif value != "\n":
                self.values.append(value)
        self.values.append("")
        self.pos = 0
        self.depth = 0  # parentheses and unary minuses open

    def take(self) -> str:
        value = self.values[self.pos]
        if not value:
            raise ExprSyntaxError("unexpected end of expression")
        self.pos += 1
        return value

    def at(self, *symbols: str) -> bool:
        return self.values[self.pos] in symbols

    def expect_op(self, op: str) -> None:
        value = self.take()
        if value != op:
            raise ExprSyntaxError(f"expected '{op}', found {value!r}")

    def sum(self) -> Expr:
        node = self.term()
        while self.at("+", "-"):
            node = BinOp(self.take(), node, self.term())
        return node

    def term(self) -> Expr:
        value = self.take()
        if value == "-":
            inner = self.nested(self.term)
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if value[0].isdecimal():
            return Lit(int(value))
        if value[0] == '"':
            return Lit(unquote(value))
        if is_ident(value):
            return Name(value)
        if value == "(":
            node = self.nested(self.sum)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}")

    def nested(self, parse) -> Expr:
        """``parse`` one level deeper than the lexeme just taken."""
        if self.depth == _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", self.pos - 1)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def comparison(self) -> Cmp:
        left = self.sum()
        op = self.take()
        if op not in _COMPARE:
            raise ExprSyntaxError(f"expected comparison operator, found {op!r}")
        return Cmp(op, left, self.sum())

    def assignment(self) -> Assign:
        name = self.take()
        if not is_ident(name):
            raise ExprSyntaxError(f"expected attribute name, found {name!r}")
        self.expect_op(":=")
        return Assign(name, self.sum())

    def done(self) -> None:
        value = self.values[self.pos]
        if value:
            raise ExprSyntaxError(f"trailing input in expression: {value!r}")


def parse_lexemes(kind: str, lexemes: list[str]) -> Cmp | list[Assign] | ExprSyntaxError:
    """A guard (``kind`` "guard") or an action ("action") parsed from its
    lexemes, without EOF: its AST, or the ExprSyntaxError they raise."""
    try:
        parser = _Parser(lexemes)
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
    """Parsed expressions by ``(kind, text)``, as ``parse_lexemes`` gives
    them.  The parser files each expression of a file from the file's
    own lexemes; ``__missing__`` parses a text no parser filed (in a model
    or scenario built by hand), once per table."""

    def __missing__(self, key: tuple[str, str]):
        kind, text = key
        try:
            self[key] = parse_lexemes(kind, tokenize(text)[0][:-1])
        except LexError as exc:
            self[key] = ExprSyntaxError(
                f"unexpected character in expression: {exc.value[0]!r}")
        return self[key]

    def ast(self, kind: str, text: str):
        """The AST of ``text``; raises its ExprSyntaxError."""
        node = self[kind, text]
        if isinstance(node, ExprSyntaxError):
            raise node.with_traceback(None)
        return node


def parse_guard(text: str) -> Cmp:
    return ExprTable().ast("guard", text)


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
    return _compile_sum(node)


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
