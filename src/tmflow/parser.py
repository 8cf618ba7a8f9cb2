"""Parser and canonical serializer for the textual model language.

File layout is line oriented: one declaration per line, nested blocks in
braces.  After ``normalize``, ``exprs.tokenize`` lexes a file once into
lexeme strings and their offsets, which the parser reads by index; it
builds a span only where it keeps one, and a stage ref once per distinct
path of the file.  Guards, actions and stop conditions are parsed by
``exprs`` from those lexemes, each distinct text once, into the
``ExprTable`` handed over with the model or scenario; the text stays
verbatim.  Solid arcs use ``flow``, dashed arcs use ``trigger``, and a
machine-to-machine shorthand ``A => B`` stands for the
Release/Transfer/Transfer/Receive chain (kept as written here; it is
expanded when the model is linked, once per model).

The same grammar also covers ``regions`` and ``behavior`` sections
(inline in a ``.tm`` file or alone in a ``.tmb`` sidecar) and scenario
files (``.tms``).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .behavior import BehaviorGraph, Event, Interval, Region, Subdiagram
from .diagnostics import Diagnostic, Fresh, Record, SourceSpan, error
from .exprs import (
    _MAX_NESTING,
    _TOO_DEEP,
    ExprSyntaxError,
    ExprTable,
    LexError,
    is_ident,
    parse_lexemes,
    quote,
    tokenize,
    too_long,
    unquote,
)
from .model import (
    _STAGE_KINDS,
    FlowArc,
    Machine,
    StageKind,
    StageRef,
    ThingDecl,
    TMModel,
    TriggerArc,
)
from .simulate import Scenario, TokenSeed


class TMParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


class Document(Record, frozen=False):
    """A parsed model file: the static model plus optional dynamic sections."""

    def __init__(self, model: TMModel = Fresh(TMModel), regions: tuple[Region, ...] = (),
                 behavior: BehaviorGraph | None = None):
        self.model = model.make() if isinstance(model, Fresh) else model
        self.regions = regions
        self.behavior = behavior


def merge_documents(base: Document, sidecar: Document) -> Document:
    """Overlay a `.tmb` sidecar's regions/behavior onto a model document."""
    return Document(
        model=base.model,
        regions=base.regions + sidecar.regions,
        behavior=sidecar.behavior if sidecar.behavior is not None else base.behavior,
    )


_ATTR_KINDS = ("int", "text")


def normalize(text: str) -> str:
    """The text without a leading byte-order mark, with ``\\n`` line ends."""
    text = text[1:] if text[:1] == "\ufeff" else text
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# ---------------------------------------------------------------------------
# Parser

class _Fail(Exception):
    """Internal: abort the current statement after recording a diagnostic."""


class _Unclosed(_Fail):
    """Internal: a body's ``}`` is missing; abort every open body."""


# Words that start a statement a machine (or thing) body cannot hold: a
# body that reaches one has lost its closing brace.
_MACHINE_ENDS = frozenset({"flow", "trigger", "thing", "regions", "behavior"})
_THING_ENDS = _MACHINE_ENDS | {"machine"}

# The lexemes that end an expression: a line end, the end of input
# and a brace; a guard also ends at its label clause.
_EXPR_ENDS = frozenset({"\n", "", "{", "}"})
_GUARD_ENDS = _EXPR_ENDS | {"label"}


class _Parser:
    """One file's recursive-descent parse, reading its lexemes
    ``self.values`` at ``self.pos`` directly where it tests the next one.

    A lexeme's text fixes its kind (a STRING keeps its quotes, an INT
    starts with a decimal digit, a NEWLINE is ``"\\n"`` and EOF is
    empty), so the parser tests symbols and keywords by value alone, and
    an IDENT by membership in ``self.idents``, the file's IDENTs found
    once among its distinct lexemes (``self.names`` leaves out the stage
    names).  The statements that fill a file (machine bodies, arcs with
    their dotted paths, region lists, attribute blocks) are read in
    place, with no helper call per lexeme; where one fails, it sets
    ``self.pos`` where recovery starts.  A span is built, from the
    lexeme's offset, only where the parser keeps one.  A dotted path is
    checked and its ``StageRef`` built the first time its text is read;
    every later occurrence in the file shares that ref.

    Machines nest at most ``_MAX_NESTING`` deep, as expressions do: the
    descent recurses once per level, and a deeper model would exhaust
    Python's stack.  The ``machine`` that opens a deeper level gets a
    SYNTAX error, and the parse stops there."""

    def __init__(self, text: str):
        self.text = normalize(text)
        self.diagnostics: list[Diagnostic] = []
        # The offset where each line starts, and one past the end.
        self.lines = list(accumulate(map((1).__add__, map(len, self.text.split("\n"))),
                                     initial=0))
        try:
            self.values, self.offsets = tokenize(self.text)
        except LexError as exc:
            self.diagnostics.append(error("SYNTAX", str(exc), exc.span))
            self.values, self.offsets = [""], [0]
        # Most IDENTs are Python identifiers, which ``str.isidentifier``
        # tells in C; ``is_ident`` tells the rest (``²x``).
        distinct = set(self.values)
        self.idents = set(filter(str.isidentifier, distinct))
        self.idents.update(filter(is_ident, distinct.difference(self.idents)))
        self.names = self.idents.difference(_STAGE_KINDS)
        self.pos = 0
        self.top_start = 0  # diagnostics before the current top-level statement
        self.exprs = ExprTable()  # every expression of the file, parsed
        self.machine_ids: set[str] = set()
        self.thing_names: set[str] = set()
        self.arc_ids: set[str] = set()
        self.auto_ids = {"flow": 0, "trigger": 0}  # positional ids, per keyword
        # Each distinct path's ref, by the path's text: a stage's, and a
        # machine's (the ends of a sugared arc).
        self.stage_refs: dict[str, StageRef] = {}
        self.machine_refs: dict[str, StageRef] = {}

    # -- lexeme helpers --------------------------------------------------
    def span(self, pos: int) -> SourceSpan:
        offset, lines = self.offsets[pos], self.lines
        line = bisect_right(lines, offset)
        return SourceSpan(line, offset - lines[line - 1] + 1, len(self.values[pos]) or 1)

    def take(self) -> str:
        value = self.values[self.pos]
        if value:
            self.pos += 1
        return value

    def fail(self, message: str, at: int | None = None, code: str = "SYNTAX"):
        """Report an error at the lexeme at ``at`` (by default the next one)."""
        self.diagnostics.append(error(code, message, self.span(self.pos if at is None else at)))
        raise _Fail()

    def expect(self, value: str, message: str | None = None) -> None:
        """Take the next lexeme, which must be this symbol or word."""
        if self.values[self.pos] != value:
            self.fail(message or f"expected '{value}'")
        self.pos += 1

    def bad_name(self, pos: int, what: str):
        """Report the lexeme at ``pos``, where a name (an IDENT other than
        a stage name) belongs."""
        value = self.values[pos]
        if value in _STAGE_KINDS:
            self.pos = pos + 1
            self.fail(f"'{value}' is a reserved stage name", pos)
        self.pos = pos
        self.fail(f"expected {what}")

    def ident(self, what: str) -> str:
        """Take the next lexeme, a name."""
        pos = self.pos
        value = self.values[pos]
        if value not in self.names:
            self.bad_name(pos, what)
        self.pos = pos + 1
        return value

    def name_list(self, what: str, names: list[str]) -> None:
        """Take ``name (',' name)*`` into ``names``, one by one, so that a
        failure part way keeps the names before it."""
        values, pos = self.values, self.pos
        while True:
            if values[pos] not in self.names:
                self.bad_name(pos, what)
            names.append(values[pos])
            if values[pos + 1] != ",":
                break
            pos += 2
        self.pos = pos + 1

    def expect_int(self, what: str) -> int:
        """Take the next lexeme, an INT; give its value."""
        value = self.values[self.pos]
        if not value[:1].isdecimal():
            self.fail(f"expected {what}")
        try:
            number = int(value)
        except ValueError:
            self.fail(too_long())
        self.pos += 1
        return number

    def skip_newlines(self):
        while self.values[self.pos] == "\n":
            self.pos += 1

    def end_statement(self):
        value = self.values[self.pos]
        if value == "\n":
            self.pos += 1
        elif value and value != "}":
            self.fail(f"unexpected trailing input '{value}'")

    def recover(self):
        """Skip the rest of a failed statement: to the next line, or to the
        ``}`` of the block it is in, passing over braces opened on its line."""
        depth = 0
        values, pos = self.values, self.pos
        value = values[pos]
        while not (value in ("\n", "") or depth == 0 and value == "}"):
            if value == "{":
                depth += 1
            elif value == "}":
                depth -= 1
            pos += 1
            value = values[pos]
        self.pos = pos + (value == "\n")

    def statements(self, statement, closed: bool) -> None:
        """Run ``statement`` up to the end of input, or with ``closed`` up to
        the ``}`` of a block.  After an error, go on with the next one; an
        error that runs into the end of input closes the enclosing blocks
        without more diagnostics, and so does a missing ``}``, after which
        the top level goes on with the statement that showed it."""
        values = self.values
        while True:
            pos = self.pos
            while values[pos] == "\n":
                pos += 1
            self.pos = pos
            if not values[pos] or closed and values[pos] == "}":
                return
            if not closed:
                self.top_start = len(self.diagnostics)
            try:
                statement()
            except _Unclosed:
                if closed:
                    raise
            except _Fail:
                before = self.pos
                self.recover()
                if closed and not values[self.pos]:
                    raise
                if self.pos == before and not closed:
                    self.take()  # a stray '}' at top level: force progress

    def unclosed(self, words: frozenset[str]) -> None:
        """At a statement starting with one of ``words``, this body has lost
        its ``}``: report that, unless an error earlier in the same
        top-level statement accounts for it, and close every open body."""
        if self.values[self.pos] in words:
            if len(self.diagnostics) == self.top_start:
                self.diagnostics.append(error("SYNTAX", "expected '}'", self.span(self.pos)))
            raise _Unclosed()

    def block(self, statement) -> None:
        """``{ statement* }``, recovering per statement."""
        self.expect("{")
        self.statements(statement, closed=True)
        self.expect("}")

    # -- shared pieces ---------------------------------------------------
    def stage_ref(self, machine: bool = False, sugar: bool = False) -> StageRef:
        """Take ``IDENT ('.' IDENT)*``: a stage, named by a machine path and
        its kind, or a machine (kind None) with ``machine``, or with
        ``sugar`` where ``=>`` follows.  Each distinct path's ref is
        checked and built the first time it is read, and looked up by
        its text after that: the same text holds the same lexemes."""
        values, idents, start = self.values, self.idents, self.pos
        if values[start] not in idents:
            self.fail("expected machine or stage path")
        last = start
        while values[last + 1] == ".":
            last += 2
            if values[last] not in idents:
                self.pos = last
                self.fail("expected path segment after '.'")
        self.pos = last + 1
        offsets = self.offsets
        path = self.text[offsets[start]:offsets[last] + len(values[last])]
        refs = self.machine_refs if machine or sugar and values[last + 1] == "=>" else self.stage_refs
        ref = refs.get(path)
        if ref is None:
            ref = refs[path] = self.new_ref(start, last, refs is self.machine_refs)
        return ref

    def new_ref(self, start: int, last: int, machine: bool) -> StageRef:
        """The ref of the path of IDENTs from ``start`` to ``last``, a
        machine's with ``machine``; fail at a lexeme that names no stage,
        or names one where a machine belongs."""
        values = self.values
        path = values[start:last + 1:2]
        kind = None
        if not machine:
            kind = _STAGE_KINDS.get(path.pop())
            if kind is None:
                self.fail(
                    f"'{values[last]}' is not a stage "
                    f"(one of {', '.join(k.value for k in StageKind)})",
                    last,
                    code="UNKNOWN_STAGE",
                )
            if not path:
                self.fail("stage reference needs a machine path", start)
        if not _STAGE_KINDS.keys().isdisjoint(path):
            pos = next(pos for pos in range(start, last + 1, 2) if values[pos] in _STAGE_KINDS)
            self.fail(f"'{values[pos]}' is a reserved stage name", pos)
        return StageRef(tuple(path), kind)

    def expression(self, kind: str, ends: frozenset[str], what: str) -> str:
        """Consume an expression's lexemes, up to one in ``ends``, file its
        parse in ``exprs`` under its source text and return that text
        verbatim."""
        values, start = self.values, self.pos
        end = start
        while values[end] not in ends:
            end += 1
        if end == start:
            self.fail("expected an expression")
        self.pos = end
        text = self.text[self.offsets[start]:self.offsets[end - 1] + len(values[end - 1])]
        key = kind, text
        node = self.exprs.get(key)
        if node is None:
            node = self.exprs[key] = parse_lexemes(kind, values[start:end])
        if isinstance(node, ExprSyntaxError):
            if str(node) == _TOO_DEEP:
                self.fail(_TOO_DEEP, start + node.at)
            self.fail(f"{what}: {node}", start + (node.at or 0), code="GUARD_SYNTAX")
        return text

    def declare(self, pos: int, names: set[str], what: str, noun: str = "") -> str:
        """Take the lexeme at ``pos``, a name (``expected {what}``) not yet
        in ``names`` (``duplicate {noun or what}``), into ``names``."""
        value = self.values[pos]
        if value not in self.names:
            self.bad_name(pos, what)
        self.pos = pos + 1
        if value in names:
            self.fail(f"duplicate {noun or what} '{value}'", pos, code="DUP_ID")
        names.add(value)
        return value

    # -- model items -----------------------------------------------------
    def parse_document(self) -> Document:
        things: list[ThingDecl] = []
        machines: list[Machine] = []
        flows: list[FlowArc] = []
        triggers: list[TriggerArc] = []
        regions: list[Region] = []
        behavior: BehaviorGraph | None = None

        def statement():
            nonlocal behavior
            word = self.values[self.pos]
            if word == "thing":
                things.append(self.thing_decl())
            elif word == "machine":
                machines.append(self.machine_decl(0))
            elif word == "flow":
                flows.append(self.arc_stmt())
            elif word == "trigger":
                triggers.append(self.arc_stmt())
            elif word == "regions":
                regions.extend(self.regions_block())
            elif word == "behavior":
                behavior = self.behavior_block(behavior)
            else:
                self.fail(f"unexpected '{word}'")

        self.statements(statement, closed=False)

        model = TMModel(
            machines=tuple(machines),
            flows=tuple(flows),
            triggers=tuple(triggers),
            things=tuple(things),
            _exprs=self.exprs,
        )
        return Document(model=model, regions=tuple(regions), behavior=behavior)

    def thing_decl(self) -> ThingDecl:
        name_pos = self.pos + 1  # after 'thing'
        name = self.declare(name_pos, self.thing_names, "thing name", "thing")
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()

        def attribute():
            if self.values[self.pos + 1] != ":":
                self.unclosed(_THING_ENDS)
            attr = self.declare(self.pos, seen, "attribute name", "attribute")
            self.expect(":")
            kind = self.pos
            if self.take() not in _ATTR_KINDS:
                self.fail("attribute kind must be 'int' or 'text'", kind)
            attributes.append((attr, self.values[kind]))
            if self.values[self.pos] == ",":
                self.pos += 1

        if self.values[self.pos] == "{":
            self.block(attribute)
        self.end_statement()
        return ThingDecl(name, tuple(attributes), self.span(name_pos))

    def machine_decl(self, depth: int) -> Machine:
        """A machine nested in ``depth`` others, and its body."""
        values = self.values
        if depth == _MAX_NESTING:
            at, self.pos = self.pos, len(values) - 1  # stop: close every open body
            self.fail(_TOO_DEEP, at)
        id_pos = self.pos + 1  # after 'machine'
        machine_id = self.declare(id_pos, self.machine_ids, "machine id")
        name = None
        if values[self.pos][:1] == '"':
            name = unquote(self.take())
        stages: list[StageKind] = []
        submachines: list[Machine] = []

        def statement():
            pos = self.pos
            word = values[pos]
            if word == "stages":
                while True:
                    pos += 1
                    kind = _STAGE_KINDS.get(values[pos])  # only an IDENT names one
                    if kind is None:
                        self.pos = pos + (values[pos] != "")
                        self.fail(f"unknown stage '{values[pos]}'", pos, code="UNKNOWN_STAGE")
                    stages.append(kind)
                    pos += 1
                    if values[pos] != ",":
                        break
                self.pos = pos
                self.end_statement()
            elif word == "machine":
                submachines.append(self.machine_decl(depth + 1))
            else:
                self.unclosed(_MACHINE_ENDS)
                self.fail(f"unexpected '{word}' in machine body")

        self.block(statement)
        self.end_statement()
        return Machine(machine_id, name, tuple(stages), tuple(submachines), self.span(id_pos))

    def arc_stmt(self) -> FlowArc | TriggerArc:
        """``flow`` or ``trigger``, an optional ``name:`` (otherwise a
        positional id per keyword), then the two ends."""
        values, kw = self.values, self.pos
        keyword = values[kw]
        flow = keyword == "flow"
        arc_id = values[kw + 1]
        if arc_id in self.idents and values[kw + 2] == ":":
            self.declare(kw + 1, self.arc_ids, "arc id")
            self.pos, auto = kw + 3, False
        else:
            self.auto_ids[keyword] += 1
            arc_id, auto = f"_{keyword[0]}{self.auto_ids[keyword]}", True
            self.pos = kw + 1
        first = self.pos
        source = self.stage_ref(sugar=flow)
        if source.kind is None:  # sugared: machine to machine
            self.pos += 1
            target = self.stage_ref(machine=True)
        else:
            if values[self.pos] != "->":
                self.fail("expected '->'")
            self.pos += 1
            target = self.stage_ref()
        if source == target:
            self.fail(f"{keyword} source and target are the same stage", first,
                      code="SELF_LOOP")
        thing = guard = label = None
        pos = self.pos
        word = values[pos]
        if word == "on" and flow:
            thing = values[pos + 1]
            if thing not in self.names:
                self.bad_name(pos + 1, "thing name")
            pos += 2
            word = values[pos]
        if word == "when":
            self.pos = pos + 1
            guard = self.expression("guard", _GUARD_ENDS, "bad guard")
            pos = self.pos
            word = values[pos]
        if word == "label":
            pos += 1
            word = values[pos]
            if word[:1] == '"':
                label = unquote(word)
            elif word[:1].isdecimal():
                label = word
            else:
                self.pos = pos
                self.fail("expected a string or number after 'label'")
            pos += 1
            word = values[pos]
        if word == "\n":
            pos += 1
        elif word and word != "}":
            self.pos = pos
            self.fail(f"unexpected trailing input '{word}'")
        self.pos = pos
        if flow:
            return FlowArc(arc_id, source, target, thing, guard, label, auto, self.span(kw))
        return TriggerArc(arc_id, source, target, guard, label, auto, self.span(kw))

    # -- regions / behavior ----------------------------------------------
    def regions_block(self) -> list[Region]:
        values = self.values
        self.take()  # regions
        regions: list[Region] = []
        seen: set[str] = set()

        def region():
            self.expect("region")
            id_pos = self.pos
            region_id = self.declare(id_pos, seen, "region id")
            label = unquote(self.take()) if values[self.pos][:1] == '"' else ""
            stages: list[StageRef] = []
            arcs: list[str] = []

            def statement():
                word = values[self.pos]
                if word == "stages":
                    self.pos += 1
                    stages.append(self.stage_ref())
                    while values[self.pos] == ",":
                        self.pos += 1
                        stages.append(self.stage_ref())
                elif word == "arcs":
                    self.pos += 1
                    self.name_list("arc id", arcs)
                else:
                    self.fail(f"unexpected '{word}' in region body")
                self.end_statement()

            self.block(statement)
            self.end_statement()
            regions.append(Region(region_id, Subdiagram(frozenset(stages), frozenset(arcs)),
                                  label, self.span(id_pos)))

        self.block(region)
        self.end_statement()
        return regions

    def behavior_block(self, existing: BehaviorGraph | None) -> BehaviorGraph:
        self.take()  # behavior
        if existing is not None:
            self.fail("duplicate behavior section", self.pos - 1, code="DUP_ID")
        events: list[Event] = []
        edges: list[tuple[str, str]] = []
        initial: list[str] = []
        seen: set[str] = set()

        def statement():
            word = self.values[self.pos]
            if word == "event":
                event_id = self.declare(self.pos + 1, seen, "event id")
                self.expect("region", "expected 'region' in event declaration")
                region_id = self.ident("region id")
                interval = None
                if self.values[self.pos] == "interval":
                    self.pos += 1
                    start = self.expect_int("interval start")
                    duration = self.expect_int("interval duration")
                    if duration < 1:
                        self.fail("interval duration must be >= 1", self.pos - 1)
                    interval = Interval(start, duration)
                events.append(Event(event_id, region_id, interval))
            elif word == "edge":
                self.pos += 1
                src = self.ident("event id")
                self.expect("->")
                dst = self.ident("event id")
                edges.append((src, dst))
            elif word == "initial":
                self.pos += 1
                self.name_list("event id", initial)
            else:
                self.fail(f"unexpected '{word}' in behavior body")
            self.end_statement()

        self.block(statement)
        self.end_statement()
        return BehaviorGraph(tuple(events), tuple(edges), tuple(initial))

    # -- scenarios --------------------------------------------------------
    def attrs_block(self) -> dict[str, int | str]:
        """``{ name = value, ... }`` from its ``{``, the next lexeme;
        newlines are allowed after separators."""
        values, names = self.values, self.names
        attrs: dict[str, int | str] = {}
        pos = self.pos + 1
        while True:
            while values[pos] == "\n":
                pos += 1
            name = values[pos]
            if name == "}":
                break
            if name not in names:
                self.bad_name(pos, "attribute name")
            if name in attrs:
                self.pos = pos + 1
                self.fail(f"duplicate attribute '{name}'", pos, code="DUP_ID")
            if values[pos + 1] != "=":
                self.pos = pos + 1
                self.fail("expected '='")
            value = values[pos + 2]
            pos += 3
            if value[:1] == '"':
                attrs[name] = unquote(value)
            else:
                negative = value == "-"
                if negative:
                    value = values[pos]
                    pos += 1
                if not value[:1].isdecimal():
                    self.pos = pos - 1
                    self.fail("expected an integer or string value")
                try:
                    attrs[name] = -int(value) if negative else int(value)
                except ValueError:
                    self.pos = pos - 1
                    self.fail(too_long())
            if values[pos] == ",":
                pos += 1
        self.pos = pos + 1
        return attrs

    def parse_scenario(self) -> Scenario:
        self.skip_newlines()
        self.expect("scenario")
        name = self.ident("scenario name")
        policy = "deterministic"
        seed = 0
        max_steps = 100
        tokens: list[TokenSeed] = []
        injections: list[tuple[int, TokenSeed]] = []
        mints: list[tuple[StageRef, str, dict]] = []
        actions: list[tuple[StageRef, str]] = []
        stop: str | None = None
        token_ids: set[str] = set()

        def statement():
            nonlocal policy, seed, max_steps, stop
            word = self.values[self.pos]
            if word == "policy":
                self.pos += 1
                pos = self.pos
                if self.take() not in ("deterministic", "seeded"):
                    self.fail("policy is 'deterministic' or 'seeded-random'", pos)
                if self.values[pos] == "seeded":
                    self.expect("-")
                    self.expect("random", "policy is 'deterministic' or 'seeded-random'")
                    policy = "seeded-random"
                else:
                    policy = "deterministic"
            elif word == "seed":
                self.pos += 1
                seed = self.expect_int("seed value")
            elif word == "max_steps":
                self.pos += 1
                max_steps = self.expect_int("step count")
                if max_steps < 1:
                    self.fail("max_steps must be >= 1", self.pos - 1)
            elif word in ("token", "inject"):
                injected = word == "inject"
                self.pos += 1
                step = None
                if injected:
                    step = self.expect_int("injection step")
                    self.expect("token")
                token_id = self.declare(self.pos, token_ids, "token id")
                self.expect("of")
                thing = self.ident("thing name")
                self.expect("at")
                at = self.stage_ref()
                attrs = self.attrs_block() if self.values[self.pos] == "{" else {}
                seed_tok = TokenSeed(token_id, thing, at, attrs)
                if injected:
                    injections.append((step, seed_tok))
                else:
                    tokens.append(seed_tok)
            elif word == "mint":
                self.pos += 1
                at = self.stage_ref()
                self.expect("of")
                thing = self.ident("thing name")
                attrs = self.attrs_block() if self.values[self.pos] == "{" else {}
                mints.append((at, thing, attrs))
            elif word == "action":
                self.pos += 1
                at = self.stage_ref()
                self.expect("{")
                text = self.expression("action", _EXPR_ENDS, "bad action")
                self.expect("}")
                actions.append((at, text))
            elif word == "stop":
                self.pos += 1
                self.expect("when")
                stop = self.expression("guard", _EXPR_ENDS, "bad stop condition")
            else:
                self.fail(f"unexpected '{word}' in scenario")
            self.end_statement()

        self.block(statement)
        self.skip_newlines()
        # An earlier error accounts for input after the block: recovering
        # from it may have closed the block at an inner '}'.
        if not (self.values[self.pos] == "" or self.diagnostics):
            self.fail(f"unexpected '{self.values[self.pos]}' after the scenario")
        return Scenario(
            name=name,
            policy=policy,
            seed=seed,
            max_steps=max_steps,
            tokens=tuple(tokens),
            injections=tuple(injections),
            mints=tuple(mints),
            actions=tuple(actions),
            stop=stop,
            _exprs=self.exprs,
        )


# ---------------------------------------------------------------------------
# Public entry points

def parse_with_diagnostics(text: str) -> tuple[Document, list[Diagnostic]]:
    parser = _Parser(text)
    return parser.parse_document(), parser.diagnostics


def parse(text: str) -> Document:
    """Parse model text; raise TMParseError carrying diagnostics on failure."""
    doc, diagnostics = parse_with_diagnostics(text)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise TMParseError(errors)
    return doc


def parse_scenario(text: str) -> Scenario:
    parser = _Parser(text)
    scenario = None
    if not parser.diagnostics:  # a text that fails to lex has its one diagnostic
        try:
            scenario = parser.parse_scenario()
        except _Fail:
            pass
    errors = [d for d in parser.diagnostics if d.severity == "error"]
    if errors or scenario is None:
        raise TMParseError(errors or [error("SYNTAX", "empty scenario")])
    return scenario


# ---------------------------------------------------------------------------
# Canonical serializer

def _thing_lines(thing: ThingDecl) -> str:
    if not thing.attributes:
        return f"thing {thing.name}"
    attrs = ", ".join(f"{name}: {kind}" for name, kind in thing.attributes)
    return f"thing {thing.name} {{ {attrs} }}"


def _machine_lines(machine: Machine, indent: int, out: list[str]):
    pad = "  " * indent
    head = f"{pad}machine {machine.id}"
    if machine.name is not None:
        head += f" {quote(machine.name)}"
    out.append(head + " {")
    if machine.stages:
        stages = ", ".join(kind.value for kind in machine.stages)
        out.append(f"{pad}  stages {stages}")
    for sub in machine.submachines:
        _machine_lines(sub, indent + 1, out)
    out.append(pad + "}")


def _arc_line(keyword: str, arc: FlowArc | TriggerArc) -> str:
    head = keyword
    if not arc.auto_id:
        head += f" {arc.id}:"
    sep = "=>" if isinstance(arc, FlowArc) and arc.sugared else "->"
    line = f"{head} {arc.source} {sep} {arc.target}"
    if isinstance(arc, FlowArc) and arc.thing is not None:
        line += f" on {arc.thing}"
    if arc.guard is not None:
        line += f" when {arc.guard}"
    if arc.label is not None:
        line += f" label {quote(arc.label)}"
    return line


def _region_lines(region: Region, out: list[str]):
    head = f"  region {region.id}"
    if region.label:
        head += f" {quote(region.label)}"
    out.append(head + " {")
    if region.body.stages:
        refs = sorted(region.body.stages, key=StageRef.sort_key)
        out.append("    stages " + ", ".join(str(r) for r in refs))
    if region.body.arcs:
        out.append("    arcs " + ", ".join(sorted(region.body.arcs)))
    out.append("  }")


def behavior_lines(graph: BehaviorGraph) -> list[str]:
    """The statements of a behavior section: events, initial, edges."""
    lines = []
    for event in graph.events:
        line = f"event {event.id} region {event.region}"
        if event.interval is not None:
            line += f" interval {event.interval.start} {event.interval.duration}"
        lines.append(line)
    if graph.initial:
        lines.append("initial " + ", ".join(graph.initial))
    lines.extend(f"edge {src} -> {dst}" for src, dst in graph.edges)
    return lines


def serialize(doc: Document) -> str:
    """Render a document in canonical form; parse(serialize(d)) == d."""
    model = doc.model
    sections: list[list[str]] = []
    if model.things:
        sections.append([_thing_lines(t) for t in model.things])
    if model.machines:
        for machine in model.machines:
            lines: list[str] = []
            _machine_lines(machine, 0, lines)
            sections.append(lines)
    if model.flows:
        sections.append([_arc_line("flow", a) for a in model.flows])
    if model.triggers:
        sections.append([_arc_line("trigger", a) for a in model.triggers])
    if doc.regions:
        lines = ["regions {"]
        for region in doc.regions:
            _region_lines(region, lines)
        lines.append("}")
        sections.append(lines)
    if doc.behavior is not None:
        body = ["  " + line for line in behavior_lines(doc.behavior)]
        sections.append(["behavior {", *body, "}"])
    if not sections:
        return "\n"
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"
