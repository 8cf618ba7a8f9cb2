"""The lexer of the tmflow language, and its tiny infix expression language.

One lexical grammar covers models, regions, behavior sections, scenarios
and the guards, actions and stop conditions inside them.  Blanks and
``#`` comments separate lexemes.  A string is double-quoted on one line,
with ``\\"`` and ``\\\\`` escapes.  An integer is a run of decimal digits.
An identifier is a run of letters, digits and ``_`` that does not start
with a decimal digit.  Symbols are listed in ``_LEXEME``.

``tokenize`` lexes a text in two passes made in C: one ``findall`` over
``_LEXEME``, from the end of the text's lead (the blanks, comments and
line ends before its first lexeme), gives every lexeme with the blanks
after it, and one ``accumulate`` over the matches' lengths gives each
lexeme's offset.  Each distinct match, among the file's few hundred, is
then cut to its lexeme once, not once per occurrence: a match that
starts with ``#`` is a comment and is dropped, since a string starts
with ``"``, and one that starts with a line end takes in the blank and
comment-only lines after it.  No record is kept per lexeme: a lexeme's
kind is read from its first character (a quote starts a STRING, a
decimal digit an INT, ``\\n`` is NEWLINE and the empty lexeme EOF;
``is_ident`` tells an IDENT from a symbol), and the parser builds a
``SourceSpan`` from an offset only where it keeps one.  A lexing error
is at the first character, not a blank, that no match holds.  An
integer literal longer than Python converts to ``int``
(``sys.get_int_max_str_digits()``, a setting of the whole process that
is left as it is) is a syntax error at the literal.

Expression grammar (no boolean connectives, by design):

    guard   := sum cmp sum
    cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="
    sum     := term (("+" | "-") term)*
    term    := INT | STRING | IDENT | "(" sum ")"
    stmt    := IDENT ":=" sum
    stmts   := stmt (";" stmt)*

Parentheses, unary minuses and the ``+``/``-`` of a sum each open a
level, and an expression nests at most ``_MAX_NESTING`` levels: a sum
nests its operands one BinOp deeper per operator, so that every pass
that walks an AST recurses at most that deep.  Expressions are parsed
from lexemes, which a file's parser hands over from its one lex of the
file.  ``compile_guard`` and ``compile_actions`` turn a parsed guard or
action list into one Python callable over a token's attributes, built
from closures (no source text is generated); a caller compiles each
expression once and calls it per evaluation.  Identifiers name
attributes of the token under evaluation.  Values are integers or text;
mixing the two in an operator raises GuardTypeError, as does referencing
an attribute the token does not carry.
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import accumulate, compress, repeat
from typing import Callable

from .diagnostics import Record, SourceSpan, _setattr


class ExprSyntaxError(Exception):
    """Text that is no guard or action.  ``at`` is the position, among the
    lexemes parsed, of the lexeme a file's diagnostic points at where that
    is not the first: the ``(``, unary ``-`` or sum's ``+``/``-`` that
    opens a level deeper than ``_MAX_NESTING``, or an integer literal too
    long to convert."""

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

    def __init__(self, value: Value):
        _setattr(self, "value", value)


class Name(_Node):
    """An attribute of the token."""

    def __init__(self, ident: str):
        _setattr(self, "ident", ident)


class BinOp(_Node):
    """``left + right`` or ``left - right``."""

    def __init__(self, op: str, left: Expr, right: Expr):
        _setattr(self, "op", op)  # "+" | "-"
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Cmp(_Node):
    """A comparison: the whole of a guard."""

    def __init__(self, op: str, left: Expr, right: Expr):
        _setattr(self, "op", op)  # "=" "!=" "<" "<=" ">" ">="
        _setattr(self, "left", left)
        _setattr(self, "right", right)


Expr = Lit | Name | BinOp


class Assign(_Node):
    """``name := expr``: one statement of an action."""

    def __init__(self, name: str, expr: Expr):
        _setattr(self, "name", name)
        _setattr(self, "expr", expr)


# ---------------------------------------------------------------------------
# Lexer

# After the text's leading blanks, comments and line ends, one
# ``findall`` finds every lexeme, each with the blanks after it.  A
# lexeme is the first of these kinds that matches: ASCII identifiers, the
# most frequent, come first, and the alternatives that start with a rarer
# character last.  A line end takes in the blank and comment-only lines
# after it and the blanks that indent the next, so that no match is
# followed by a blank: only text where no lexeme starts lies outside every
# match.  A comment after a lexeme is a lexeme of its own, which
# ``tokenize`` drops.  (Written without re.VERBOSE, which costs more to
# compile at import.)
_LEXEME = re.compile(
    r"(?:[a-zA-Z_]\w*+"
    r"|[{}(),;.+]|[-=]>?|[:<>]=?"
    r"|\n(?:[ \t]*+(?:\#[^\n]*+)?\n)*+"
    r"|\d++"
    r'|"(?:[^"\\\n]++|\\.)*+"'
    r"|[^\W\d]\w*+|!=|\#[^\n]*+"
    r")[ \t]*+"
)

# The deepest nesting of parentheses, unary minuses and the operators of
# a sum in an expression, and of machines in a model: each level costs
# the recursive-descent parsers, or each pass that walks an AST, a few
# Python frames, so a limit far below Python's recursion limit turns a
# model that would exhaust the stack into a SYNTAX error.
_MAX_NESTING = 100

_TOO_DEEP = f"nesting deeper than {_MAX_NESTING} levels"


def too_long() -> str:
    """The message for an integer literal longer than Python converts to
    ``int``: its limit is a setting of the whole process, left as it is."""
    return f"integer literal longer than {sys.get_int_max_str_digits()} digits"


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

    The matches add up to the text after its lead unless some text lies
    outside them.  Each distinct match is cut to its lexeme once, a
    comment to None, and one ``map`` then gives each occurrence its
    lexeme; ``compress`` drops the comments, if any."""
    start = len(text) - len(text.lstrip(" \t"))
    while text[start:start + 1] in ("#", "\n"):  # the lead: no lexeme yet
        start = _LEXEME.match(text, start).end()
    matches = _LEXEME.findall(text, start)
    offsets = list(accumulate(map(len, matches), initial=start))
    if offsets[-1] != len(text):
        _lex_error(text, start)
    distinct = set(matches)
    lexemes = dict(zip(distinct, map(str.rstrip, distinct, repeat(" \t"))))
    comments = False
    for match in distinct:
        if match[0] == "\n":
            lexemes[match] = "\n"
        elif match[0] == "#":
            lexemes[match] = None
            comments = True
    values = list(map(lexemes.__getitem__, matches))
    if comments:
        offsets = [*compress(offsets, values), len(text)]
        values = list(compress(values, values))
    values.append("")
    return values, offsets


def _lex_error(text: str, start: int):
    """Raise the LexError of a text where some text after ``start`` lies
    outside the matches: at the first character, not a blank, of the
    first gap between them that holds one."""
    end = start
    for match in _LEXEME.finditer(text, start):
        if text[end:match.start()].strip(" \t"):
            break
        end = match.end()
    rest = text[end:].lstrip(" \t")
    offset = len(text) - len(rest)
    kind = "UNTERMINATED" if rest[0] == '"' else "UNEXPECTED"
    value = rest.split("\n", 1)[0] if kind == "UNTERMINATED" else rest[0]
    line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    raise LexError(kind, value, SourceSpan(line, column, len(value)))


def quote(text: str) -> str:
    """A STRING literal standing for ``text``: what ``unquote`` undoes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unquote(literal: str) -> str:
    """The text a STRING lexeme stands for: quotes dropped, escapes undone."""
    return literal[1:-1].replace('\\"', '"').replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Expressions

class _Parser:
    """One expression's recursive descent.  ``depth`` counts the levels
    open where the next lexeme is read: parentheses, unary minuses, and in
    a sum the height of its operands so far, which each ``+`` or ``-``
    nests one level deeper under a BinOp.  ``height`` is the height of
    the expression parsed last, so that no AST is deeper than the
    bound."""

    def __init__(self, lexemes: list[str]):
        # Line ends dropped, ``->``/``=>`` read as ``-``/``=`` then ``>``,
        # and any other symbol the expression grammar lacks refused.
        self.values = values = []
        for value in lexemes:
            if value in _OTHER_SYMBOLS:
                if value not in ("->", "=>"):
                    raise ExprSyntaxError(f"unexpected character in expression: {value[0]!r}")
                values += (value[0], ">")
            elif value != "\n":
                values.append(value)
        values.append("")
        self.pos = 0
        self.depth = 0
        self.height = 0

    def take(self) -> str:
        value = self.values[self.pos]
        if not value:
            raise ExprSyntaxError("unexpected end of expression")
        self.pos += 1
        return value

    def expect_op(self, op: str) -> None:
        value = self.take()
        if value != op:
            raise ExprSyntaxError(f"expected '{op}', found {value!r}")

    def sum(self) -> Expr:
        values, base = self.values, self.depth
        node = self.term()
        height = self.height
        while values[self.pos] in ("+", "-"):
            if base + height == _MAX_NESTING:
                raise ExprSyntaxError(_TOO_DEEP, self.pos)
            op = values[self.pos]
            self.pos += 1
            self.depth = base + height + 1
            node = BinOp(op, node, self.term())
            height = max(height, self.height) + 1
        self.depth, self.height = base, height
        return node

    def term(self) -> Expr:
        value = self.take()
        self.height = 0
        if value[0].isdecimal():
            try:
                return Lit(int(value))
            except ValueError:
                raise ExprSyntaxError(too_long(), self.pos - 1) from None
        if value[0] == '"':
            return Lit(unquote(value))
        if is_ident(value):
            return Name(value)
        if value == "-":
            inner = self.nested(self.term)
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                self.height = 0
                return Lit(-inner.value)
            self.height += 1
            return BinOp("-", Lit(0), inner)
        if value == "(":
            node = self.nested(self.sum)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}")

    def nested(self, parse) -> Expr:
        """``parse`` one level deeper than the lexeme just taken."""
        if self.depth == _MAX_NESTING:
            raise ExprSyntaxError(_TOO_DEEP, self.pos - 1)
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
            while parser.values[parser.pos] == ";":
                parser.pos += 1
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
    """All attribute names referenced by an expression or guard."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, (BinOp, Cmp)):
        return names(node.left) | names(node.right)
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
