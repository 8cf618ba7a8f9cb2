"""The parsed guards, actions and stop conditions that the parser hands
over, read from its file's own tokens, are what parsing their stored
text alone gives."""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow.exprs import ExprSyntaxError, parse_guard, parse_statements
from tmflow.parser import _Fail, _Parser

from conftest import MODEL_FILES, SCENARIO_FILES

ROOT = Path(__file__).resolve().parent.parent


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
    gen = runpy.run_path(str(ROOT / "perfbench" / "gen.py"), run_name="perfbench_gen")
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
