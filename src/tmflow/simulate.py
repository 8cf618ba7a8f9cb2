"""Discrete-step token execution of a model, plus trace segmentation
and conformance checking against a behavior graph.

Step semantics (synchronous, fully reproducible): per step, scheduled
injections appear first; then every token, in creation order, fires its
stage's outgoing triggers once (the step after arrival) and moves along
the first enabled outgoing flow (declaration order, or a seeded uniform
choice under the ``seeded-random`` policy).  A Process stage holds a
token one extra step before its outgoing flows enable.  A trigger into
a Create stage mints a new token from the scenario's mint seed for that
stage; a trigger into any other stage enables that stage for the next
step (tokens at a trigger-gated stage wait for that mark before moving
out).  Tokens reaching a Transfer stage with no outgoing flow leave the
system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .behavior import BehaviorGraph, Interval, Region
from .diagnostics import ValidationReport, error
from .exprs import (
    ExprSyntaxError,
    GuardTypeError,
    Value,
    eval_guard,
    exec_statements,
    parse_guard,
    parse_statements,
)
from .model import StageKind, StageRef, TMModel, link


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


def simulate(model: TMModel, scenario: Scenario) -> Trace:
    """Run the model under a scenario; deterministic given (scenario, seed).

    Sugared arcs are expanded first; raises ModelError if an arc or a
    scenario stage does not resolve."""
    linked = link(model).require()
    guards = linked.guards
    for guard in guards.values():
        if isinstance(guard, ExprSyntaxError):
            raise guard

    flows_by_source: dict[StageRef, list] = {}
    for arc in linked.flows:
        flows_by_source.setdefault(arc.source, []).append((arc, guards.get(arc.guard)))
    triggers_by_source: dict[StageRef, list] = {}
    for arc in linked.triggers:
        triggers_by_source.setdefault(arc.source, []).append((arc, guards.get(arc.guard)))
    gated = {arc.target for arc in linked.triggers if arc.target.kind != StageKind.CREATE}

    mints = {
        linked.normalize(ref): (thing, dict(attrs))
        for ref, thing, attrs in scenario.mints
    }
    actions: dict[StageRef, list] = {}
    for ref, text in scenario.actions:
        actions.setdefault(linked.normalize(ref), []).extend(
            parse_statements(text)
        )
    stop_guard = parse_guard(scenario.stop) if scenario.stop else None
    rng = random.Random(scenario.seed)

    tokens: list[Token] = []
    created = consumed = 0
    minted_serial = 0

    def spawn(seed: TokenSeed, step: int) -> Token:
        nonlocal created
        at = linked.normalize(seed.at)
        token = Token(seed.id, seed.thing, dict(seed.attrs), at, arrived=step)
        tokens.append(token)
        created += 1
        for stmts in ([actions[at]] if at in actions else []):
            exec_statements(stmts, token.attrs)
        return token

    for seed in scenario.tokens:
        spawn(seed, 0)

    records: list[TraceRecord] = []
    pending = sorted(scenario.injections, key=lambda item: item[0])
    enabled_now: set[StageRef] = set()
    enabled_next: set[StageRef] = set()
    steps_used = 0
    step_limit_hit = False
    prev_quiet = False
    stopped = False

    for step in range(1, scenario.max_steps + 1):
        steps_used = step
        records_before = len(records)
        injected = False
        while pending and pending[0][0] <= step:
            _, seed = pending.pop(0)
            spawn(seed, step)
            injected = True

        idx = 0
        while idx < len(tokens):
            token = tokens[idx]
            idx += 1
            if token.at is None:
                continue
            at = token.at
            if step == token.arrived + 1 and not token.fired:
                token.fired = True
                for trig, guard in triggers_by_source.get(at, []):
                    if guard is not None and not eval_guard(guard, token.attrs):
                        continue
                    if trig.target.kind == StageKind.CREATE:
                        if trig.target not in mints:
                            raise UnseededCreateError(
                                f"trigger '{trig.id}' fires into {trig.target} "
                                "but the scenario mints no token there"
                            )
                        thing, attrs = mints[trig.target]
                        minted_serial += 1
                        minted = spawn(
                            TokenSeed(
                                f"{thing}_{minted_serial}", thing,
                                trig.target, dict(attrs),
                            ),
                            step,
                        )
                        records.append(
                            TraceRecord(step, trig.id, minted.id,
                                        trig.source, trig.target)
                        )
                    else:
                        enabled_next.add(trig.target)
                        records.append(
                            TraceRecord(step, trig.id, token.id,
                                        trig.source, trig.target)
                        )
                if (
                    at.kind == StageKind.TRANSFER
                    and not flows_by_source.get(at)
                ):
                    token.at = None  # left the system at a boundary Transfer
                    consumed += 1
                    continue

            hold = 2 if at.kind == StageKind.PROCESS else 1
            if step < token.arrived + hold:
                continue
            if at in gated and at not in enabled_now:
                continue
            enabled_flows = [
                arc
                for arc, guard in flows_by_source.get(at, [])
                if guard is None or eval_guard(guard, token.attrs)
            ]
            if not enabled_flows:
                continue
            if scenario.policy == "seeded-random" and len(enabled_flows) > 1:
                arc = enabled_flows[rng.randrange(len(enabled_flows))]
            else:
                arc = enabled_flows[0]
            records.append(
                TraceRecord(step, arc.id, token.id, arc.source, arc.target)
            )
            token.at = arc.target
            token.arrived = step
            token.fired = False
            if arc.target in actions:
                exec_statements(actions[arc.target], token.attrs)

        if stop_guard is not None:
            for token in tokens:
                if token.at is None:
                    continue
                try:
                    if eval_guard(stop_guard, token.attrs):
                        stopped = True
                        break
                except GuardTypeError:
                    continue
        if stopped:
            break

        quiet = len(records) == records_before and not injected
        if quiet and prev_quiet and not pending and not enabled_next:
            steps_used = step
            break
        prev_quiet = quiet
        enabled_now = enabled_next
        enabled_next = set()
    else:
        step_limit_hit = not prev_quiet

    final = tuple(t for t in tokens if t.at is not None)
    return Trace(
        records=tuple(records),
        final_tokens=final,
        meta=TraceMeta(steps_used, step_limit_hit, created, consumed),
    )


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
    mapped: list[tuple[str, int]] = []
    for record in trace.records:
        region_id = arc_region.get(record.arc)
        if region_id is None:
            notes.append(
                f"unattributed record: step {record.step}, arc '{record.arc}'"
            )
        else:
            mapped.append((region_id, record.step))

    occurrences: list[Occurrence] = []
    for region_id, step in mapped:
        if occurrences and occurrences[-1].region == region_id:
            last = occurrences[-1]
            duration = step - last.interval.start + 1
            occurrences[-1] = Occurrence(
                region_id, Interval(last.interval.start, duration)
            )
        else:
            occurrences.append(Occurrence(region_id, Interval(step, 1)))
    return Segmentation(tuple(occurrences), tuple(notes))


def conformance(
    occurrences: tuple[Occurrence, ...] | list[Occurrence],
    graph: BehaviorGraph,
) -> ValidationReport:
    """Check that an occurrence sequence is admissible in the graph.

    The first occurrence must be an initial event; each later occurrence
    needs an edge from some earlier occurrence (forked events run
    concurrently, so the licensing predecessor need not be the previous
    entry).  The first violation is reported with both event ids and the
    step range.
    """
    report = ValidationReport()
    by_region = graph.events_by_region()
    edges = set(graph.edges)

    seen: list[str] = []
    for index, occ in enumerate(occurrences):
        event_id = by_region.get(occ.region)
        steps = (
            f"steps {occ.interval.start}.."
            f"{occ.interval.start + occ.interval.duration - 1}"
        )
        if event_id is None:
            report.diagnostics.append(
                error("NONCONFORMANT",
                      f"no event covers region '{occ.region}' ({steps})")
            )
            return report
        if index == 0:
            if event_id not in graph.initial:
                report.diagnostics.append(
                    error("NOT_INITIAL",
                          f"trace starts at non-initial event '{event_id}' ({steps})")
                )
                return report
        else:
            prev = seen[-1]
            if not any((earlier, event_id) in edges for earlier in seen):
                report.diagnostics.append(
                    error(
                        "NONCONFORMANT",
                        f"transition {prev} -> {event_id} has no edge in the "
                        f"behavior graph ({steps})",
                    )
                )
                return report
        seen.append(event_id)
    return report
