"""Discrete-step token execution of a model, plus trace segmentation
and conformance checking against a behavior graph.

Step semantics (synchronous, fully reproducible): per step, scheduled
injections appear first; then every token, in creation order, fires its
stage's outgoing triggers once (the step after arrival) and moves along
the first enabled outgoing flow (declaration order, or a seeded uniform
choice under the ``seeded-random`` policy).  A Process stage holds a
token one extra step before its outgoing flows enable.  A trigger into
a Create stage mints a new token from the scenario's mint seed for that
stage (named ``{thing}_{serial}``, skipping serials whose id a scenario
token declares); a trigger into any other stage enables that stage for the next
step (tokens at a trigger-gated stage wait for that mark before moving
out).  Tokens reaching a Transfer stage with no outgoing flow leave the
system.

``simulate`` links the model, compiles each distinct guard text once
(``exprs.compile_guard``) and builds one plan per stage: its flows and
triggers with their compiled guards and target plans, its hold and gate,
and whether a token there leaves.  ``_bind`` puts the scenario's mint
seeds and compiled actions on their plans, and lists each token and
injection as (step, seed, plan) in entry order.  A ``_Run`` admits and
steps them; only its ``trace`` builds ``Token``s.  None of this changes
the semantics above: a plan is what the loop would otherwise look up
each step, a compiled guard gives the value or the GuardTypeError its
AST gives, and a token that left does nothing in any later step.

Each move appends one ``TraceRecord``, a named tuple that the loop
builds with ``tuple.__new__``, so a record costs no Python-level call.
The other types here are ``diagnostics.Record``s, as on the ``tm
check`` path: loading this module imports no ``dataclasses``.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .behavior import BehaviorGraph, Interval, Region
from .diagnostics import Fresh, Record, ValidationReport, _setattr, error
from .exprs import ExprTable, GuardTypeError, Value, compile_actions, compile_guard
from .model import (
    FlowArc,
    Linked,
    ModelError,
    StageKind,
    StageRef,
    TMModel,
    TriggerArc,
    link,
)


class UnseededCreateError(Exception):
    pass


class TokenSeed(Record):
    """A token a scenario places at a stage, with its attributes."""

    __slots__ = ("id", "thing", "at", "attrs")

    def __init__(self, id: str, thing: str, at: StageRef,
                 attrs: dict[str, Value] = Fresh(dict)):
        _setattr(self, "id", id)
        _setattr(self, "thing", thing)
        _setattr(self, "at", at)
        _setattr(self, "attrs", attrs.make() if isinstance(attrs, Fresh) else attrs)

    def __hash__(self):  # the attrs dict would make the hash fail otherwise
        return hash((self.id, self.thing, self.at))


class Token(Record, frozen=False):
    """A token left at the end of a run: its thing, attributes, stage and arrival step."""

    __slots__ = ("id", "thing", "attrs", "at", "arrived")

    def __init__(self, id: str, thing: str, attrs: dict[str, Value],
                 at: StageRef | None, arrived: int = 0):
        self.id = id
        self.thing = thing
        self.attrs = attrs
        self.at = at
        self.arrived = arrived


class Scenario(Record, uncompared=("_exprs",), unshown=("_exprs",)):
    """What a run starts from and how it chooses, steps and stops."""

    __slots__ = ("name", "policy", "seed", "max_steps", "tokens", "injections",
                 "mints", "actions", "stop", "_exprs")

    def __init__(self, name: str = "scenario", policy: str = "deterministic",
                 seed: int = 0, max_steps: int = 100,
                 tokens: tuple[TokenSeed, ...] = (),
                 injections: tuple[tuple[int, TokenSeed], ...] = (),
                 mints: tuple[tuple[StageRef, str, dict], ...] = (),
                 actions: tuple[tuple[StageRef, str], ...] = (),
                 stop: str | None = None, _exprs: ExprTable = Fresh(ExprTable)):
        _setattr(self, "name", name)
        _setattr(self, "policy", policy)  # or "seeded-random"
        _setattr(self, "seed", seed)
        _setattr(self, "max_steps", max_steps)
        _setattr(self, "tokens", tokens)
        _setattr(self, "injections", injections)
        _setattr(self, "mints", mints)
        _setattr(self, "actions", actions)
        _setattr(self, "stop", stop)
        # The parsed actions and stop condition, by ("action" or "guard", text):
        # filled by ``parse_scenario``, parsed on first use otherwise.
        _setattr(self, "_exprs", _exprs.make() if isinstance(_exprs, Fresh) else _exprs)


class TraceRecord(NamedTuple):
    """One move of a token along an arc at one step.

    A named tuple, so that the step loop builds each record with
    ``tuple.__new__`` and no call of its own, and its fields read in C.
    It keeps the behaviour of the frozen dataclass it replaced: its
    ``repr``, ``==`` and ``hash`` between records, immutability
    (``FrozenInstanceError``), and ``dataclasses.fields``, ``replace``
    and ``asdict``.  As a tuple it also unpacks into its five fields,
    orders by them, and compares equal to the plain tuple of them.
    """

    step: int
    arc: str
    token: str
    source: StageRef
    target: StageRef

    __dataclass_fields__ = vars(Record)["__dataclass_fields__"]
    __dataclass_params__ = vars(Record)["__dataclass_params__"]
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__


class TraceMeta(Record):
    """How a run ended: steps used, whether the limit cut it, and the
    tokens created and consumed."""

    __slots__ = ("steps_used", "step_limit_hit", "created", "consumed")

    def __init__(self, steps_used: int = 0, step_limit_hit: bool = False,
                 created: int = 0, consumed: int = 0):
        _setattr(self, "steps_used", steps_used)
        _setattr(self, "step_limit_hit", step_limit_hit)
        _setattr(self, "created", created)
        _setattr(self, "consumed", consumed)


class Trace(Record):
    """The records of a run, its final tokens and its counts."""

    __slots__ = ("records", "final_tokens", "meta")

    def __init__(self, records: tuple[TraceRecord, ...] = (),
                 final_tokens: tuple[Token, ...] = (), meta: TraceMeta = TraceMeta()):
        _setattr(self, "records", records)
        _setattr(self, "final_tokens", final_tokens)
        _setattr(self, "meta", meta)


Guard = Callable[[dict[str, Value]], bool]


class _Stage:
    """The plan of one stage in one ``simulate`` run."""

    __slots__ = ("ref", "hold", "gated", "leaves", "actions", "mint",
                 "flows", "triggers")

    def __init__(self, ref: StageRef):
        self.ref = ref
        self.hold = 2 if ref.kind == StageKind.PROCESS else 1
        self.gated = False  # a trigger into it marks it for one step
        self.leaves = ref.kind == StageKind.TRANSFER  # until a flow leaves it
        self.actions: Callable[[dict], None] | None = None  # compiled by ``_bind``
        self.mint: tuple[str, dict] | None = None  # (thing, attrs) minted here
        self.flows: list[tuple[FlowArc, Guard | None, _Stage]] = []
        self.triggers: list[tuple[TriggerArc, Guard | None, _Stage]] = []


class _Plans(dict):
    """Stage plans by full-path ref, each made on first use."""

    def __missing__(self, ref: StageRef) -> _Stage:
        stage = self[ref] = _Stage(ref)
        return stage


class _Token:
    """A token in the system, the plan of its stage and its arrival step."""

    __slots__ = ("id", "thing", "attrs", "plan", "arrived")

    def __init__(self, id: str, thing: str, attrs: dict[str, Value], plan: _Stage,
                 arrived: int):
        self.id = id
        self.thing = thing
        self.attrs = attrs
        self.plan = plan
        self.arrived = arrived


def simulate(model: TMModel, scenario: Scenario) -> Trace:
    """Run the model under a scenario; deterministic given (scenario, seed).

    An ``inject N`` token enters at step ``max(N, 1)``, before the tokens
    move, and first fires its triggers and moves at the step after (as
    any token does after it arrives).  An injection later than
    ``max_steps``, or after the stop condition ends the run, never enters.

    Sugared arcs are expanded first; raises ModelError if an arc or a
    scenario stage does not resolve, or if the model declares things and
    a scenario token or mint is of none of them."""
    linked = link(model).require()
    guards: dict[str, Guard] = {}
    for arc in linked.arcs():
        if arc.guard is not None and arc.guard not in guards:
            guards[arc.guard] = compile_guard(linked.model._exprs.ast("guard", arc.guard))

    plans = _Plans()
    for arc in linked.flows:
        source = plans[arc.source]
        source.flows.append((arc, guards.get(arc.guard), plans[arc.target]))
        source.leaves = False
    for arc in linked.triggers:
        target = plans[arc.target]
        target.gated = arc.target.kind != StageKind.CREATE
        plans[arc.source].triggers.append((arc, guards.get(arc.guard), target))
    run = _Run(scenario, *_bind(linked, scenario, plans))

    run.admit(0)
    quiet = False  # whether the last step admitted and recorded nothing
    step_limit_hit = False
    for step in range(1, scenario.max_steps + 1):
        was_quiet, quiet = quiet, not run.step(step)
        if run.stopped() or quiet and was_quiet and not run.pending:
            break  # stopped, or quiescent: two quiet steps and none left to admit
    else:
        step_limit_hit = not quiet

    for stage in plans.values():  # plans point at each other: free them now
        stage.flows = stage.triggers = []
    return run.trace(step_limit_hit)


class _Run:
    """A ``simulate`` run between steps.  Its ``rng`` is None, and the
    first enabled flow is taken, unless the policy is ``seeded-random``."""

    __slots__ = ("rng", "stop_guard", "pending", "declared", "minted_serial", "live",
                 "records", "enabled", "created", "consumed", "steps_used")

    def __init__(self, scenario: Scenario, stop_guard: Guard | None,
                 arrivals: list[tuple[int, TokenSeed, _Stage]]):
        self.rng = random.Random(scenario.seed) if scenario.policy == "seeded-random" else None
        self.stop_guard = stop_guard
        self.pending = arrivals[::-1]  # the next arrival last
        self.declared = {seed.id for _, seed, _ in arrivals}
        self.minted_serial = 0  # a minted token's id skips those the scenario declares
        self.live: list[_Token] = []
        self.records: list[TraceRecord] = []
        self.enabled: set[_Stage] = set()
        self.created = self.consumed = self.steps_used = 0

    def spawn(self, token_id: str, thing: str, attrs: dict, plan: _Stage, step: int) -> str:
        token = _Token(token_id, thing, dict(attrs), plan, step)
        self.live.append(token)
        self.created += 1
        if plan.actions:
            plan.actions(token.attrs)
        return token_id

    def admit(self, step: int) -> bool:
        """Spawn the tokens due by ``step``, in order; whether there were any."""
        pending, created = self.pending, self.created
        while pending and pending[-1][0] <= step:
            _, seed, plan = pending.pop()
            self.spawn(seed.id, seed.thing, seed.attrs, plan, step)
        return self.created > created

    def step(self, step: int) -> bool:
        """Admit the tokens due at ``step``, then fire and move each token
        once, in creation order; whether anything entered or moved."""
        self.steps_used = step
        admitted = self.admit(step)
        records = self.records
        records_before = len(records)
        enabled, marked = self.enabled, set()
        kept: list[_Token] = []
        for token in self.live:  # tokens minted in this loop join it
            plan = token.plan
            if step == token.arrived + 1:
                for trig, guard, target in plan.triggers:
                    if guard is not None and not guard(token.attrs):
                        continue
                    if target.ref.kind == StageKind.CREATE:
                        if target.mint is None:
                            raise UnseededCreateError(
                                f"trigger '{trig.id}' fires into {trig.target} "
                                "but the scenario mints no token there"
                            )
                        thing, attrs = target.mint
                        self.minted_serial += 1
                        while f"{thing}_{self.minted_serial}" in self.declared:
                            self.minted_serial += 1
                        token_id = self.spawn(f"{thing}_{self.minted_serial}", thing,
                                              attrs, target, step)
                    else:
                        marked.add(target)
                        token_id = token.id
                    records.append(tuple.__new__(TraceRecord, (
                        step, trig.id, token_id, trig.source, trig.target)))
                if plan.leaves:  # left the system at a boundary Transfer
                    self.consumed += 1
                    continue
            kept.append(token)
            flows = plan.flows
            if not flows:  # nowhere to go: nothing to test or draw
                continue
            if step < token.arrived + plan.hold:
                continue
            if plan.gated and plan not in enabled:
                continue
            if len(flows) == 1:  # no choice to make: test its guard alone
                arc, guard, target = flows[0]
                if guard is not None and not guard(token.attrs):
                    continue
            else:
                enabled_flows = [flow for flow in flows
                                 if flow[1] is None or flow[1](token.attrs)]
                if not enabled_flows:
                    continue
                if self.rng is not None and len(enabled_flows) > 1:
                    arc, _, target = enabled_flows[self.rng.randrange(len(enabled_flows))]
                else:
                    arc, _, target = enabled_flows[0]
            records.append(tuple.__new__(TraceRecord, (
                step, arc.id, token.id, arc.source, arc.target)))
            token.plan = target
            token.arrived = step
            if target.actions:
                target.actions(token.attrs)

        self.live = kept
        self.enabled = marked
        return admitted or len(records) > records_before

    def stopped(self) -> bool:
        """Whether the stop condition holds for some token in the system
        (not for one it cannot be evaluated on)."""
        if self.stop_guard is not None:
            for token in self.live:
                try:
                    if self.stop_guard(token.attrs):
                        return True
                except GuardTypeError:
                    pass
        return False

    def trace(self, step_limit_hit: bool) -> Trace:
        """The trace so far, with a public ``Token`` per token in the system."""
        final = tuple(Token(t.id, t.thing, t.attrs, t.plan.ref, t.arrived) for t in self.live)
        meta = TraceMeta(self.steps_used, step_limit_hit, self.created, self.consumed)
        return Trace(tuple(self.records), final, meta)


def _bind(linked: Linked, scenario: Scenario, plans: _Plans
          ) -> tuple[Guard | None, list[tuple[int, TokenSeed, _Stage]]]:
    """Resolve each stage the scenario names once, onto its plan, where
    the mint seed and the compiled action list go.  Returns the compiled
    stop condition and (step, seed, plan) per token (step 0), then per
    injection by declared step (step 1 at the earliest).  Raises, in
    the order mints, actions, stop condition, tokens, injections, things:
    ModelError for an unresolved stage or, where the model declares
    things, for a token or mint of another thing; ExprSyntaxError for an
    action or stop condition that does not parse."""
    for ref, thing, attrs in scenario.mints:
        plans[linked.normalize(ref)].mint = (thing, dict(attrs))
    statements: dict[_Stage, list] = {}
    for ref, text in scenario.actions:
        statements.setdefault(plans[linked.normalize(ref)], []).extend(
            scenario._exprs.ast("action", text))
    for stage, stmts in statements.items():
        stage.actions = compile_actions(stmts)
    stop_guard = (compile_guard(scenario._exprs.ast("guard", scenario.stop))
                  if scenario.stop else None)
    arrivals = [(0, seed, plans[linked.normalize(seed.at)]) for seed in scenario.tokens]
    injections = [(step, seed, plans[linked.normalize(seed.at)])
                  for step, seed in scenario.injections]
    injections.sort(key=lambda arrival: arrival[0])  # stable: as declared within a step
    arrivals += [(max(step, 1), seed, stage) for step, seed, stage in injections]
    things = {decl.name for decl in linked.model.things}  # empty: tokens are untyped
    placed = [(f"token '{seed.id}'", seed.thing) for seed in scenario.tokens]
    placed += [(f"token '{seed.id}'", seed.thing) for _, seed in scenario.injections]
    placed += [(f"mint at {ref}", thing) for ref, thing, _ in scenario.mints]
    for what, thing in placed:
        if things and thing not in things:
            raise ModelError(f"scenario {what} is of undeclared thing '{thing}'")
    return stop_guard, arrivals


# ---------------------------------------------------------------------------
# Segmentation and conformance

class Occurrence(Record):
    """One run of trace records inside one region."""

    __slots__ = ("region", "interval")

    def __init__(self, region: str, interval: Interval):
        _setattr(self, "region", region)
        _setattr(self, "interval", interval)


class Segmentation(Record):
    """The occurrences of a trace, and the records no region covers."""

    __slots__ = ("occurrences", "unattributed")

    def __init__(self, occurrences: tuple[Occurrence, ...],
                 unattributed: tuple[TraceRecord, ...] = ()):
        _setattr(self, "occurrences", occurrences)
        _setattr(self, "unattributed", unattributed)


def segment(trace: Trace, regions: list[Region] | tuple[Region, ...]) -> Segmentation:
    """Split a trace into event occurrences: maximal runs of records that
    fall inside one region.  Records on arcs no region covers are skipped
    and kept as ``unattributed``."""
    arc_region: dict[str, str] = {}
    for region in regions:
        for arc_id in region.body.arcs:
            arc_region[arc_id] = region.id

    unattributed: list[TraceRecord] = []
    occurrences: list[Occurrence] = []
    run: str | None = None  # the region of the open run, from step start to last
    start = last = 0
    for record in trace.records:
        region_id = arc_region.get(record.arc)
        if region_id is None:
            unattributed.append(record)
            continue
        if region_id != run:
            if run is not None:
                occurrences.append(Occurrence(run, Interval(start, last - start + 1)))
            run, start = region_id, record.step
        last = record.step
    if run is not None:
        occurrences.append(Occurrence(run, Interval(start, last - start + 1)))
    return Segmentation(tuple(occurrences), tuple(unattributed))


def conformance(
    occurrences: tuple[Occurrence, ...] | list[Occurrence],
    graph: BehaviorGraph,
) -> ValidationReport:
    """Check that an occurrence sequence is admissible in the graph.

    The first occurrence must be an initial event.  Each later occurrence
    needs an edge into its event from the event of some earlier
    occurrence: forked events run concurrently, so the licensing
    predecessor need not be the previous entry.  That is, the events
    seen so far and the event's predecessors in the graph must share
    one.  The first violation is reported with the previous event, the
    violating one and the step range.
    """
    report = ValidationReport()
    by_region = graph.events_by_region()
    predecessors: dict[str, set[str]] = {}
    for src, dst in graph.edges:
        predecessors.setdefault(dst, set()).add(src)

    def steps(occ: Occurrence) -> str:
        return (f"steps {occ.interval.start}.."
                f"{occ.interval.start + occ.interval.duration - 1}")

    seen: set[str] = set()
    prev = None
    for occ in occurrences:
        event_id = by_region.get(occ.region)
        if event_id is None:
            report.diagnostics.append(
                error("NONCONFORMANT",
                      f"no event covers region '{occ.region}' ({steps(occ)})")
            )
            return report
        if prev is None:
            if event_id not in graph.initial:
                report.diagnostics.append(
                    error("NOT_INITIAL", f"trace starts at non-initial event "
                                         f"'{event_id}' ({steps(occ)})")
                )
                return report
        elif seen.isdisjoint(predecessors.get(event_id, ())):
            report.diagnostics.append(
                error(
                    "NONCONFORMANT",
                    f"transition {prev} -> {event_id} has no edge in the "
                    f"behavior graph ({steps(occ)})",
                )
            )
            return report
        seen.add(event_id)
        prev = event_id
    return report
