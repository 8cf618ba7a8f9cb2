"""Parser and canonical serializer for the textual model language.

File layout is line oriented: one declaration per line, nested blocks in
braces.  Tokens come from ``exprs.tokenize``, the one lexer of the
language, after line endings are normalized to ``\\n``, once per file.
Guards, actions and stop conditions are parsed by ``exprs`` from those
tokens, each distinct text once, into the ``ExprTable`` handed over with
the model or scenario; the text stays verbatim.  Solid arcs use ``flow``,
dashed arcs use ``trigger``, and a machine-to-machine shorthand
``A => B`` stands for the Release/Transfer/Transfer/Receive chain
(kept as written here; it is expanded when the model is linked, once
per model).

The same grammar also covers ``regions`` and ``behavior`` sections
(inline in a ``.tm`` file or alone in a ``.tmb`` sidecar) and scenario
files (``.tms``).
"""

from __future__ import annotations

from .behavior import BehaviorGraph, Event, Interval, Region, Subdiagram
from .diagnostics import Diagnostic, Fresh, Record, error
from .exprs import (
    ExprSyntaxError,
    ExprTable,
    LexError,
    Token,
    parse_tokens,
    quote,
    tokenize,
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

    __slots__ = ("model", "regions", "behavior")

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
    return text.replace("\r\n", "\n").replace("\r", "\n")


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

# The token values that end an expression: a line end, the end of input
# and a brace; a guard also ends at its label clause.
_EXPR_ENDS = frozenset({"\n", "", "{", "}"})
_GUARD_ENDS = _EXPR_ENDS | {"label"}


class _Parser:
    """One file's recursive-descent parse, reading ``self.tokens`` at
    ``self.pos`` directly where it tests the next token.

    A symbol's or a word's text fixes its token's kind (a STRING keeps its
    quotes, an INT is digits, a NEWLINE is ``"\\n"`` and EOF is empty), so
    the parser tests symbols and keywords by value alone."""

    def __init__(self, text: str):
        self.text = normalize(text)
        self.diagnostics: list[Diagnostic] = []
        try:
            self.tokens = tokenize(self.text)
        except LexError as exc:
            self.diagnostics.append(error("SYNTAX", str(exc), exc.token.span))
            self.tokens = [Token("EOF", "", 1, 1, 0)]
        self.pos = 0
        self.top_start = 0  # diagnostics before the current top-level statement
        self.exprs = ExprTable()  # every expression of the file, parsed
        self.machine_ids: set[str] = set()
        self.thing_names: set[str] = set()
        self.arc_ids: set[str] = set()
        self.auto_ids = {"flow": 0, "trigger": 0}  # positional ids, per keyword

    # -- token helpers ---------------------------------------------------
    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        """Whether the next token is this symbol or word."""
        return self.tokens[self.pos].value == value

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def fail(self, message: str, tok: Token | None = None, code: str = "SYNTAX"):
        tok = tok or self.tokens[self.pos]
        self.diagnostics.append(error(code, message, tok.span))
        raise _Fail()

    def expect(self, value: str, message: str | None = None) -> Token:
        """The next token, which must be this symbol or word."""
        tok = self.tokens[self.pos]
        if tok.value != value:
            self.fail(message or f"expected '{value}'")
        self.pos += 1
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "IDENT":
            self.fail(f"expected {what}")
        self.pos += 1
        if tok.value in _STAGE_KINDS:
            self.fail(f"'{tok.value}' is a reserved stage name", tok)
        return tok

    def expect_int(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        self.pos += 1
        return tok

    def comma_list(self, item) -> None:
        """``item (',' item)*``; each ``item`` keeps what it parsed, so a
        failure part way keeps the items before it."""
        item()
        while self.tokens[self.pos].value == ",":
            self.pos += 1
            item()

    def skip_newlines(self):
        while self.tokens[self.pos].kind == "NEWLINE":
            self.pos += 1

    def end_statement(self):
        tok = self.tokens[self.pos]
        if tok.kind == "NEWLINE":
            self.pos += 1
        elif tok.kind != "EOF" and tok.value != "}":
            self.fail(f"unexpected trailing input '{tok.value}'")

    def recover(self):
        """Skip the rest of a failed statement: to the next line, or to the
        ``}`` of the block it is in, passing over braces opened on its line."""
        depth = 0
        tok = self.tokens[self.pos]
        while not (tok.kind in ("NEWLINE", "EOF") or depth == 0 and tok.value == "}"):
            if tok.value == "{":
                depth += 1
            elif tok.value == "}":
                depth -= 1
            self.pos += 1
            tok = self.tokens[self.pos]
        if tok.kind == "NEWLINE":
            self.pos += 1

    def statements(self, statement, closed: bool) -> None:
        """Run ``statement`` up to the end of input, or with ``closed`` up to
        the ``}`` of a block.  After an error, go on with the next one; an
        error that runs into the end of input closes the enclosing blocks
        without more diagnostics, and so does a missing ``}``, after which
        the top level goes on with the statement that showed it."""
        self.skip_newlines()
        while not (self.at_kind("EOF") or closed and self.at("}")):
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
                if closed and self.at_kind("EOF"):
                    raise
                if self.pos == before and not closed:
                    self.take()  # a stray '}' at top level: force progress
            self.skip_newlines()

    def unclosed(self, words: frozenset[str]) -> None:
        """At a statement starting with one of ``words``, this body has lost
        its ``}``: report that, unless an error earlier in the same
        top-level statement accounts for it, and close every open body."""
        tok = self.tokens[self.pos]
        if tok.value in words:
            if len(self.diagnostics) == self.top_start:
                self.diagnostics.append(error("SYNTAX", "expected '}'", tok.span))
            raise _Unclosed()

    def block(self, statement) -> None:
        """``{ statement* }``, recovering per statement."""
        self.expect("{")
        self.statements(statement, closed=True)
        self.expect("}")

    # -- shared pieces ---------------------------------------------------
    def dotted_path(self) -> list[Token]:
        """``IDENT ('.' IDENT)*``: the path's IDENT tokens."""
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok.kind != "IDENT":
            self.fail("expected machine or stage path")
        path = [tok]
        while tokens[pos + 1].value == ".":
            pos += 2
            tok = tokens[pos]
            if tok.kind != "IDENT":
                self.pos = pos
                self.fail("expected path segment after '.'")
            path.append(tok)
        self.pos = pos + 1
        return path

    def machine_path(self, path: list[Token]) -> tuple[str, ...]:
        for tok in path:
            if tok.value in _STAGE_KINDS:
                self.fail(f"'{tok.value}' is a reserved stage name", tok)
        return tuple([tok.value for tok in path])

    def stage_at(self, path: list[Token]) -> StageRef:
        """The stage a parsed dotted path names: a machine path, then a kind."""
        last = path[-1]
        kind = _STAGE_KINDS.get(last.value)
        if kind is None:
            self.fail(
                f"'{last.value}' is not a stage "
                f"(one of {', '.join(k.value for k in StageKind)})",
                last,
                code="UNKNOWN_STAGE",
            )
        if len(path) == 1:
            self.fail("stage reference needs a machine path", path[0])
        return StageRef(self.machine_path(path[:-1]), kind)

    def stage_ref(self) -> StageRef:
        return self.stage_at(self.dotted_path())

    def expression(self, kind: str, ends: frozenset[str], what: str) -> str:
        """Consume an expression's tokens, up to a token whose value is in
        ``ends``, file its parse in ``exprs`` under its source text and
        return that text verbatim."""
        tokens, start = self.tokens, self.pos
        end = start
        while tokens[end].value not in ends:
            end += 1
        if end == start:
            self.fail("expected an expression")
        self.pos = end
        tokens = tokens[start:end]
        text = self.text[tokens[0].offset:tokens[-1].end]
        key = kind, text
        node = self.exprs[key] = self.exprs.get(key) or parse_tokens(kind, tokens)
        if isinstance(node, ExprSyntaxError):
            self.fail(f"{what}: {node}", tokens[0], code="GUARD_SYNTAX")
        return text

    def string_value(self) -> str:
        return unquote(self.take().value)

    def label_clause(self) -> str | None:
        if not self.at("label"):
            return None
        self.pos += 1
        if self.at_kind("STRING"):
            return self.string_value()
        if self.at_kind("INT"):
            return self.take().value
        self.fail("expected a string or number after 'label'")

    def literal_value(self):
        if self.at_kind("STRING"):
            return self.string_value()
        neg = False
        if self.at("-"):
            self.pos += 1
            neg = True
        if self.at_kind("INT"):
            value = int(self.take().value)
            return -value if neg else value
        self.fail("expected an integer or string value")

    def attrs_block(self) -> dict[str, int | str]:
        """`{ name = value, ... }`, newlines allowed after separators."""
        attrs: dict[str, int | str] = {}
        self.expect("{")
        self.skip_newlines()
        while not self.at("}"):
            name_tok = self.expect_ident("attribute name")
            if name_tok.value in attrs:
                self.fail(f"duplicate attribute '{name_tok.value}'",
                          name_tok, code="DUP_ID")
            self.expect("=")
            attrs[name_tok.value] = self.literal_value()
            if self.at(","):
                self.pos += 1
            self.skip_newlines()
        self.expect("}")
        return attrs

    def declare(self, names: set[str], tok: Token, what: str):
        if tok.value in names:
            self.fail(f"duplicate {what} '{tok.value}'", tok, code="DUP_ID")
        names.add(tok.value)

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
            word = self.tokens[self.pos].value
            if word == "thing":
                things.append(self.thing_decl())
            elif word == "machine":
                machines.append(self.machine_decl())
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
        self.take()  # thing
        name_tok = self.expect_ident("thing name")
        self.declare(self.thing_names, name_tok, "thing")
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()

        def attribute():
            if self.tokens[self.pos + 1].value != ":":
                self.unclosed(_THING_ENDS)
            attr_tok = self.expect_ident("attribute name")
            if attr_tok.value in seen:
                self.fail(f"duplicate attribute '{attr_tok.value}'",
                          attr_tok, code="DUP_ID")
            seen.add(attr_tok.value)
            self.expect(":")
            kind_tok = self.take()
            if kind_tok.kind != "IDENT" or kind_tok.value not in _ATTR_KINDS:
                self.fail("attribute kind must be 'int' or 'text'", kind_tok)
            attributes.append((attr_tok.value, kind_tok.value))
            if self.at(","):
                self.pos += 1

        if self.at("{"):
            self.block(attribute)
        self.end_statement()
        return ThingDecl(name_tok.value, tuple(attributes), span=name_tok.span)

    def machine_decl(self) -> Machine:
        self.take()  # machine
        id_tok = self.expect_ident("machine id")
        self.declare(self.machine_ids, id_tok, "machine id")
        name = self.string_value() if self.at_kind("STRING") else None
        stages: list[StageKind] = []
        submachines: list[Machine] = []

        def stage():
            tok = self.take()
            kind = _STAGE_KINDS.get(tok.value)  # only an IDENT names one
            if kind is None:
                self.fail(f"unknown stage '{tok.value}'", tok, code="UNKNOWN_STAGE")
            stages.append(kind)

        def statement():
            word = self.tokens[self.pos].value
            if word == "stages":
                self.pos += 1
                self.comma_list(stage)
                self.end_statement()
            elif word == "machine":
                submachines.append(self.machine_decl())
            else:
                self.unclosed(_MACHINE_ENDS)
                self.fail(f"unexpected '{word}' in machine body")

        self.block(statement)
        self.end_statement()
        return Machine(
            id=id_tok.value,
            name=name,
            stages=tuple(stages),
            submachines=tuple(submachines),
            span=id_tok.span,
        )

    def arc_stmt(self) -> FlowArc | TriggerArc:
        """``flow`` or ``trigger``, an optional ``name:`` (otherwise a
        positional id per keyword), then the two ends."""
        kw = self.take()
        flow = kw.value == "flow"
        tok = self.tokens[self.pos]
        if tok.kind == "IDENT" and self.tokens[self.pos + 1].value == ":":
            id_tok = self.expect_ident("arc id")
            self.declare(self.arc_ids, id_tok, "arc id")
            self.pos += 1  # ':'
            arc_id, auto = id_tok.value, False
        else:
            self.auto_ids[kw.value] += 1
            arc_id, auto = f"_{kw.value[0]}{self.auto_ids[kw.value]}", True
        first = self.tokens[self.pos]
        path = self.dotted_path()
        if flow and self.at("=>"):  # sugared: machine to machine
            source = StageRef(self.machine_path(path), None)
            self.pos += 1
            target = StageRef(self.machine_path(self.dotted_path()), None)
        else:
            source = self.stage_at(path)
            self.expect("->")
            target = self.stage_ref()
        if source == target:
            self.fail(f"{kw.value} source and target are the same stage", first,
                      code="SELF_LOOP")
        thing = None
        if flow and self.at("on"):
            self.pos += 1
            thing = self.expect_ident("thing name").value
        guard = None
        if self.at("when"):
            self.pos += 1
            guard = self.expression("guard", _GUARD_ENDS, "bad guard")
        label = self.label_clause()
        self.end_statement()
        if flow:
            return FlowArc(arc_id, source, target, thing=thing, guard=guard,
                           label=label, auto_id=auto, span=kw.span)
        return TriggerArc(arc_id, source, target, guard=guard, label=label,
                          auto_id=auto, span=kw.span)

    # -- regions / behavior ----------------------------------------------
    def regions_block(self) -> list[Region]:
        self.take()  # regions
        regions: list[Region] = []
        seen: set[str] = set()

        def region():
            self.expect("region")
            id_tok = self.expect_ident("region id")
            self.declare(seen, id_tok, "region id")
            label = self.string_value() if self.at_kind("STRING") else ""
            stages: list[StageRef] = []
            arcs: list[str] = []

            def statement():
                word = self.tokens[self.pos].value
                if word == "stages":
                    self.pos += 1
                    self.comma_list(lambda: stages.append(self.stage_ref()))
                    self.end_statement()
                elif word == "arcs":
                    self.pos += 1
                    self.comma_list(lambda: arcs.append(self.expect_ident("arc id").value))
                    self.end_statement()
                else:
                    self.fail(f"unexpected '{word}' in region body")

            self.block(statement)
            self.end_statement()
            regions.append(
                Region(
                    id=id_tok.value,
                    body=Subdiagram(frozenset(stages), frozenset(arcs)),
                    label=label,
                    span=id_tok.span,
                )
            )

        self.block(region)
        self.end_statement()
        return regions

    def behavior_block(self, existing: BehaviorGraph | None) -> BehaviorGraph:
        kw = self.take()  # behavior
        if existing is not None:
            self.fail("duplicate behavior section", kw, code="DUP_ID")
        events: list[Event] = []
        edges: list[tuple[str, str]] = []
        initial: list[str] = []
        seen: set[str] = set()

        def statement():
            word = self.tokens[self.pos].value
            if word == "event":
                self.pos += 1
                id_tok = self.expect_ident("event id")
                self.declare(seen, id_tok, "event id")
                self.expect("region", "expected 'region' in event declaration")
                region_id = self.expect_ident("region id").value
                interval = None
                if self.at("interval"):
                    self.pos += 1
                    start = int(self.expect_int("interval start").value)
                    dur_tok = self.expect_int("interval duration")
                    duration = int(dur_tok.value)
                    if duration < 1:
                        self.fail("interval duration must be >= 1", dur_tok)
                    interval = Interval(start, duration)
                events.append(Event(id_tok.value, region_id, interval))
            elif word == "edge":
                self.pos += 1
                src = self.expect_ident("event id").value
                self.expect("->")
                dst = self.expect_ident("event id").value
                edges.append((src, dst))
            elif word == "initial":
                self.pos += 1
                self.comma_list(lambda: initial.append(self.expect_ident("event id").value))
            else:
                self.fail(f"unexpected '{word}' in behavior body")
            self.end_statement()

        self.block(statement)
        self.end_statement()
        return BehaviorGraph(tuple(events), tuple(edges), tuple(initial))

    # -- scenarios --------------------------------------------------------
    def parse_scenario(self) -> Scenario:
        self.skip_newlines()
        self.expect("scenario")
        name = self.expect_ident("scenario name").value
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
            word = self.tokens[self.pos].value
            if word == "policy":
                self.pos += 1
                tok = self.take()
                if tok.value not in ("deterministic", "seeded"):
                    self.fail("policy is 'deterministic' or 'seeded-random'", tok)
                if tok.value == "seeded":
                    self.expect("-")
                    self.expect("random", "policy is 'deterministic' or 'seeded-random'")
                    policy = "seeded-random"
                else:
                    policy = "deterministic"
            elif word == "seed":
                self.pos += 1
                seed = int(self.expect_int("seed value").value)
            elif word == "max_steps":
                self.pos += 1
                tok = self.expect_int("step count")
                max_steps = int(tok.value)
                if max_steps < 1:
                    self.fail("max_steps must be >= 1", tok)
            elif word in ("token", "inject"):
                injected = word == "inject"
                self.pos += 1
                step = None
                if injected:
                    step = int(self.expect_int("injection step").value)
                    self.expect("token")
                id_tok = self.expect_ident("token id")
                self.declare(token_ids, id_tok, "token id")
                self.expect("of")
                thing = self.expect_ident("thing name").value
                self.expect("at")
                at = self.stage_ref()
                attrs = self.attrs_block() if self.at("{") else {}
                seed_tok = TokenSeed(id_tok.value, thing, at, attrs)
                if injected:
                    injections.append((step, seed_tok))
                else:
                    tokens.append(seed_tok)
            elif word == "mint":
                self.pos += 1
                at = self.stage_ref()
                self.expect("of")
                thing = self.expect_ident("thing name").value
                attrs = self.attrs_block() if self.at("{") else {}
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
        if not (self.at_kind("EOF") or self.diagnostics):
            self.fail(f"unexpected '{self.tokens[self.pos].value}' after the scenario")
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


def parse_model(text: str) -> TMModel:
    return parse(text).model


def parse_scenario(text: str) -> Scenario:
    parser = _Parser(text)
    try:
        scenario = parser.parse_scenario()
    except _Fail:
        scenario = None
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


def serialize(doc: Document | TMModel) -> str:
    """Render a document in canonical form; parse(serialize(d)) == d."""
    if isinstance(doc, TMModel):
        doc = Document(model=doc)
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
