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

``simulate`` builds one plan per stage before the first step (its flows
with their parsed guards and target plans, its triggers, hold, gate,
actions, and whether a token there leaves) and steps only the tokens
still in the system, in creation order.  Neither changes the semantics
above: a plan is what the loop would otherwise look up each step, and a
token that left does nothing in any later step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .behavior import BehaviorGraph, Interval, Region
from .diagnostics import ValidationReport, error
from .exprs import (
    Assign,
    Cmp,
    ExprTable,
    GuardTypeError,
    Value,
    eval_guard,
    exec_statements,
)
from .model import FlowArc, StageKind, StageRef, TMModel, TriggerArc, link


class UnseededCreateError(Exception):
    pass


@dataclass(frozen=True)
class TokenSeed:
    id: str
    thing: str
    at: StageRef
    attrs: dict[str, Value] = field(default_factory=dict)

    def __hash__(self):  # attrs dict keeps the dataclass unhashable otherwise
        return hash((self.id, self.thing, self.at))


@dataclass
class Token:
    id: str
    thing: str
    attrs: dict[str, Value]
    at: StageRef | None
    arrived: int = 0
    fired: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    policy: str = "deterministic"  # or "seeded-random"
    seed: int = 0
    max_steps: int = 100
    tokens: tuple[TokenSeed, ...] = ()
    injections: tuple[tuple[int, TokenSeed], ...] = ()
    mints: tuple[tuple[StageRef, str, dict], ...] = ()
    actions: tuple[tuple[StageRef, str], ...] = ()
    stop: str | None = None
    # The parsed actions and stop condition, by ("action" or "guard", text):
    # filled by ``parse_scenario``, parsed on first use otherwise.
    _exprs: ExprTable = field(default_factory=ExprTable, compare=False, repr=False)


@dataclass(frozen=True)
class TraceRecord:
    step: int
    arc: str
    token: str
    source: StageRef
    target: StageRef


@dataclass(frozen=True)
class TraceMeta:
    steps_used: int = 0
    step_limit_hit: bool = False
    created: int = 0
    consumed: int = 0


@dataclass(frozen=True)
class Trace:
    records: tuple[TraceRecord, ...] = ()
    final_tokens: tuple[Token, ...] = ()
    meta: TraceMeta = TraceMeta()


class _Stage:
    """The plan of one stage in one ``simulate`` run."""

    __slots__ = ("ref", "hold", "gated", "leaves", "actions", "mint",
                 "flows", "triggers")

    def __init__(self, ref: StageRef, actions: list[Assign] | None,
                 mint: tuple[str, dict] | None):
        self.ref = ref
        self.hold = 2 if ref.kind == StageKind.PROCESS else 1
        self.gated = False  # a trigger into it marks it for one step
        self.leaves = ref.kind == StageKind.TRANSFER  # until a flow leaves it
        self.actions = actions
        self.mint = mint  # (thing, attrs) the scenario mints here
        self.flows: list[tuple[FlowArc, Cmp | None, _Stage]] = []
        self.triggers: list[tuple[TriggerArc, Cmp | None, _Stage]] = []


class _Live:
    """A token in the system and the plan of the stage it is at."""

    __slots__ = ("token", "stage")

    def __init__(self, token: Token, stage: _Stage):
        self.token = token
        self.stage = stage


def simulate(model: TMModel, scenario: Scenario) -> Trace:
    """Run the model under a scenario; deterministic given (scenario, seed).

    Sugared arcs are expanded first; raises ModelError if an arc or a
    scenario stage does not resolve."""
    linked = link(model).require()
    guards = {arc.guard: linked.model._exprs.ast("guard", arc.guard)
              for arc in linked.arcs() if arc.guard is not None}

    mints = {
        linked.normalize(ref): (thing, dict(attrs))
        for ref, thing, attrs in scenario.mints
    }
    actions: dict[StageRef, list[Assign]] = {}
    for ref, text in scenario.actions:
        actions.setdefault(linked.normalize(ref), []).extend(
            scenario._exprs.ast("action", text)
        )
    stop_guard = scenario._exprs.ast("guard", scenario.stop) if scenario.stop else None
    seeded = scenario.policy == "seeded-random"
    rng = random.Random(scenario.seed)

    plans: dict[StageRef, _Stage] = {}

    def plan(ref: StageRef) -> _Stage:
        stage = plans.get(ref)
        if stage is None:
            stage = plans[ref] = _Stage(ref, actions.get(ref), mints.get(ref))
        return stage

    for arc in linked.flows:
        source = plan(arc.source)
        source.flows.append((arc, guards.get(arc.guard), plan(arc.target)))
        source.leaves = False
    for arc in linked.triggers:
        target = plan(arc.target)
        target.gated = arc.target.kind != StageKind.CREATE
        plan(arc.source).triggers.append((arc, guards.get(arc.guard), target))

    live: list[_Live] = []
    created = consumed = 0
    minted_serial = 0  # a minted token's id skips those the scenario declares
    declared = {seed.id for seed in scenario.tokens}
    declared.update(seed.id for _, seed in scenario.injections)

    def spawn(token: Token, stage: _Stage) -> None:
        nonlocal created
        live.append(_Live(token, stage))
        created += 1
        if stage.actions:
            exec_statements(stage.actions, token.attrs)

    def inject(seed: TokenSeed, step: int) -> None:
        stage = plan(linked.normalize(seed.at))
        spawn(Token(seed.id, seed.thing, dict(seed.attrs), stage.ref, arrived=step),
              stage)

    for seed in scenario.tokens:
        inject(seed, 0)

    records: list[TraceRecord] = []
    pending = sorted(scenario.injections, key=lambda item: item[0])
    next_pending = 0
    enabled_now: set[_Stage] = set()
    enabled_next: set[_Stage] = set()
    steps_used = 0
    step_limit_hit = False
    prev_quiet = False

    for step in range(1, scenario.max_steps + 1):
        steps_used = step
        records_before = len(records)
        injected = False
        while next_pending < len(pending) and pending[next_pending][0] <= step:
            inject(pending[next_pending][1], step)
            next_pending += 1
            injected = True

        left = False
        for entry in live:  # tokens minted in this loop join it
            token, stage = entry.token, entry.stage
            if step == token.arrived + 1 and not token.fired:
                token.fired = True
                for trig, guard, target in stage.triggers:
                    if guard is not None and not eval_guard(guard, token.attrs):
                        continue
                    if target.ref.kind == StageKind.CREATE:
                        if target.mint is None:
                            raise UnseededCreateError(
                                f"trigger '{trig.id}' fires into {trig.target} "
                                "but the scenario mints no token there"
                            )
                        thing, attrs = target.mint
                        minted_serial += 1
                        while f"{thing}_{minted_serial}" in declared:
                            minted_serial += 1
                        minted = Token(f"{thing}_{minted_serial}", thing,
                                       dict(attrs), target.ref, arrived=step)
                        spawn(minted, target)
                        records.append(
                            TraceRecord(step, trig.id, minted.id,
                                        trig.source, trig.target)
                        )
                    else:
                        enabled_next.add(target)
                        records.append(
                            TraceRecord(step, trig.id, token.id,
                                        trig.source, trig.target)
                        )
                if stage.leaves:
                    token.at = None  # left the system at a boundary Transfer
                    consumed += 1
                    left = True
                    continue

            if step < token.arrived + stage.hold:
                continue
            if stage.gated and stage not in enabled_now:
                continue
            enabled_flows = [
                flow for flow in stage.flows
                if flow[1] is None or eval_guard(flow[1], token.attrs)
            ]
            if not enabled_flows:
                continue
            if seeded and len(enabled_flows) > 1:
                arc, _, target = enabled_flows[rng.randrange(len(enabled_flows))]
            else:
                arc, _, target = enabled_flows[0]
            records.append(
                TraceRecord(step, arc.id, token.id, arc.source, arc.target)
            )
            token.at = target.ref
            token.arrived = step
            token.fired = False
            entry.stage = target
            if target.actions:
                exec_statements(target.actions, token.attrs)

        if left:
            live[:] = [entry for entry in live if entry.token.at is not None]
        if stop_guard is not None and any(
            _stops(stop_guard, entry.token) for entry in live
        ):
            break

        quiet = len(records) == records_before and not injected
        if quiet and prev_quiet and next_pending == len(pending) and not enabled_next:
            break
        prev_quiet = quiet
        enabled_now, enabled_next = enabled_next, set()
    else:
        step_limit_hit = not prev_quiet

    for stage in plans.values():  # plans point at each other: free them now
        stage.flows = stage.triggers = []
    return Trace(
        records=tuple(records),
        final_tokens=tuple(entry.token for entry in live),
        meta=TraceMeta(steps_used, step_limit_hit, created, consumed),
    )


def _stops(stop_guard: Cmp, token: Token) -> bool:
    """Whether the stop condition holds for a token (not where it cannot
    be evaluated on the token's attributes)."""
    try:
        return eval_guard(stop_guard, token.attrs)
    except GuardTypeError:
        return False


# ---------------------------------------------------------------------------
# Segmentation and conformance

@dataclass(frozen=True)
class Occurrence:
    region: str
    interval: Interval


@dataclass(frozen=True)
class Segmentation:
    occurrences: tuple[Occurrence, ...]
    notes: tuple[str, ...] = ()


def segment(trace: Trace, regions: list[Region] | tuple[Region, ...]) -> Segmentation:
    """Split a trace into event occurrences: maximal runs of records that
    fall inside one region.  Records on arcs no region covers are skipped
    and reported as notes."""
    arc_region: dict[str, str] = {}
    for region in regions:
        for arc_id in region.body.arcs:
            arc_region[arc_id] = region.id

    notes: list[str] = []
    occurrences: list[Occurrence] = []
    run: str | None = None  # the region of the open run, from step start to last
    start = last = 0
    for record in trace.records:
        region_id = arc_region.get(record.arc)
        if region_id is None:
            notes.append(
                f"unattributed record: step {record.step}, arc '{record.arc}'"
            )
            continue
        if region_id != run:
            if run is not None:
                occurrences.append(Occurrence(run, Interval(start, last - start + 1)))
            run, start = region_id, record.step
        last = record.step
    if run is not None:
        occurrences.append(Occurrence(run, Interval(start, last - start + 1)))
    return Segmentation(tuple(occurrences), tuple(notes))


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
