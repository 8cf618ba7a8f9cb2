"""Tiny infix expression language for arc guards and stage actions.

Grammar (no boolean connectives, by design):

    guard   := sum cmp sum
    cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="
    sum     := term (("+" | "-") term)*
    term    := INT | STRING | IDENT | "(" sum ")"
    stmt    := IDENT ":=" sum
    stmts   := stmt (";" stmt)*

Identifiers name attributes of the token under evaluation.  Values are
integers or text; mixing the two in an operator raises GuardTypeError,
as does referencing an attribute the token does not carry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ExprSyntaxError(Exception):
    pass


class GuardTypeError(Exception):
    pass


Value = int | str


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str  # "=" "!=" "<" "<=" ">" ">="
    left: "Expr"
    right: "Expr"


Expr = Lit | Name | BinOp


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<int>\d+)
      | (?P<str>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>:=|<=|>=|!=|[=<>+\-();])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == match.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprSyntaxError(f"unexpected character in expression: {rest[0]!r}")
        pos = match.end()
        for kind in ("int", "str", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ExprSyntaxError(f"expected '{op}', found {tok[1]!r}")

    def sum(self) -> Expr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in ("+", "-"):
                self.take()
                node = BinOp(tok[1], node, self.term())
            else:
                return node

    def term(self) -> Expr:
        kind, value = self.take()
        if kind == "op" and value == "-":
            inner = self.term()
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if kind == "int":
            return Lit(int(value))
        if kind == "str":
            body = value[1:-1]
            return Lit(body.replace('\\"', '"').replace("\\\\", "\\"))
        if kind == "ident":
            return Name(value)
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}")

    def comparison(self) -> Cmp:
        left = self.sum()
        tok = self.take()
        if tok[0] != "op" or tok[1] not in ("=", "!=", "<", "<=", ">", ">="):
            raise ExprSyntaxError(f"expected comparison operator, found {tok[1]!r}")
        right = self.sum()
        return Cmp(tok[1], left, right)

    def assignment(self) -> Assign:
        kind, name = self.take()
        if kind != "ident":
            raise ExprSyntaxError(f"expected attribute name, found {name!r}")
        self.expect_op(":=")
        return Assign(name, self.sum())

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input in expression: {tok[1]!r}")


def parse_guard(text: str) -> Cmp:
    parser = _Parser(_tokenize(text))
    node = parser.comparison()
    parser.done()
    return node


def parse_statements(text: str) -> list[Assign]:
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    stmts = [parser.assignment()]
    while parser.peek() == ("op", ";"):
        parser.take()
        stmts.append(parser.assignment())
    parser.done()
    return stmts


def names(node) -> set[str]:
    """All attribute names referenced by an expression, guard, or statement."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, (BinOp, Cmp)):
        return names(node.left) | names(node.right)
    if isinstance(node, Assign):
        return {node.name} | names(node.expr)
    return set()


def eval_expr(node: Expr, attrs: dict[str, Value]) -> Value:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Name):
        if node.ident not in attrs:
            raise GuardTypeError(f"token has no attribute '{node.ident}'")
        return attrs[node.ident]
    if isinstance(node, BinOp):
        left = eval_expr(node.left, attrs)
        right = eval_expr(node.right, attrs)
        if not isinstance(left, int) or not isinstance(right, int):
            raise GuardTypeError(f"operator '{node.op}' needs integer operands")
        return left + right if node.op == "+" else left - right
    raise GuardTypeError(f"cannot evaluate {node!r}")


def eval_guard(node: Cmp, attrs: dict[str, Value]) -> bool:
    left = eval_expr(node.left, attrs)
    right = eval_expr(node.right, attrs)
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


def exec_statements(stmts: list[Assign], attrs: dict[str, Value]) -> None:
    """Apply assignments left to right, mutating the attribute mapping."""
    for stmt in stmts:
        attrs[stmt.name] = eval_expr(stmt.expr, attrs)
