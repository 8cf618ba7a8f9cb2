"""Regions, events, and behavior graphs over a static model.

A subdiagram is a weakly connected sub-part of the diagram (stages plus
arcs).  A region set partitions chosen sub-parts without overlap; an
event pairs a region with an optional (start, duration) interval; the
behavior graph orders events, and walks through it are chronologies.
"""

from __future__ import annotations

from .diagnostics import Record, ValidationReport, _setattr, error, warning
from .model import Linked, ModelError, StageKind, StageRef, TMModel, link


class RegionCheckFailed(Exception):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


class NoInitialEvents(Exception):
    pass


class BoundTooLarge(Exception):
    pass


class Subdiagram(Record):
    """A set of stages and arcs of a model."""

    __slots__ = ("stages", "arcs")

    def __init__(self, stages: frozenset[StageRef], arcs: frozenset[str]):
        _setattr(self, "stages", stages)
        _setattr(self, "arcs", arcs)

    # Spelled out, not read through ``Record._key``: the enumeration
    # tests every subdiagram it builds against the ones it has seen.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.stages, self.arcs) == (other.stages, other.arcs)
        return NotImplemented

    def __hash__(self):
        return hash((self.stages, self.arcs))

    @property
    def size(self) -> int:
        return len(self.stages) + len(self.arcs)

    def sort_key(self) -> tuple:
        return (
            self.size,
            tuple(sorted(r.sort_key() for r in self.stages)),
            tuple(sorted(self.arcs)),
        )


class Region(Record):
    """A named subdiagram: the part of the model one event runs in."""

    __slots__ = ("id", "body", "label")

    def __init__(self, id: str, body: Subdiagram, label: str = ""):
        _setattr(self, "id", id)
        _setattr(self, "body", body)
        _setattr(self, "label", label)


class Interval(Record):
    """A start step and a duration (at least 1) of an event."""

    __slots__ = ("start", "duration")

    def __init__(self, start: int, duration: int):
        _setattr(self, "start", start)
        _setattr(self, "duration", duration)  # >= 1


class Event(Record):
    """A behavior-graph vertex: a region, with an optional interval."""

    __slots__ = ("id", "region", "interval")

    def __init__(self, id: str, region: str, interval: Interval | None = None):
        _setattr(self, "id", id)
        _setattr(self, "region", region)
        _setattr(self, "interval", interval)


class BehaviorGraph(Record):
    """Events, the edges between them, and the initial events."""

    __slots__ = ("events", "edges", "initial")

    def __init__(self, events: tuple[Event, ...], edges: tuple[tuple[str, str], ...],
                 initial: tuple[str, ...]):
        _setattr(self, "events", events)
        _setattr(self, "edges", edges)
        _setattr(self, "initial", initial)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.events)

    def events_by_region(self) -> dict[str, str]:
        """region id -> event id (first declaration wins)."""
        mapping: dict[str, str] = {}
        for event in self.events:
            mapping.setdefault(event.region, event.id)
        return mapping


def _connected(stages: frozenset[StageRef], arc_ends: list[tuple[StageRef, StageRef]]) -> bool:
    """Weak connectivity.  Two stages are adjacent when an arc joins them
    or when they belong to the same machine (stages are parts of a single
    machine node, so they touch through it)."""
    if not stages:
        return False
    nodes = list(stages)
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arc_ends:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    by_machine: dict[tuple[str, ...], StageRef] = {}
    for node in nodes:
        if node.machine in by_machine:
            parent[find(node)] = find(by_machine[node.machine])
        else:
            by_machine[node.machine] = node
    roots = {find(node) for node in nodes}
    return len(roots) == 1


def _link_regions(
    linked: Linked, regions: list[Region] | tuple[Region, ...]
) -> tuple[ValidationReport, dict[StageRef, str]]:
    """Check a region set in one pass: the report, and the stage -> region
    map over the regions whose refs resolve.  A repeated region id is
    reported and its later region left out.  Stages and arcs are visited
    sorted, so the diagnostics do not depend on set iteration order."""
    report = ValidationReport()
    arcs = {arc.id: arc for arc in linked.arcs()}
    unresolved = {arc.id: f"arc '{arc.id}': {exc}" for arc, exc in linked.unresolved}

    resolved = []
    region_ids: set[str] = set()
    for region in regions:
        if region.id in region_ids:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate region id '{region.id}'")
            )
            continue
        region_ids.add(region.id)
        stages = set()
        body = []
        ok = True
        for ref in sorted(region.body.stages, key=StageRef.sort_key):
            try:
                stages.add(linked.normalize(ref))
            except ModelError as exc:
                report.diagnostics.append(
                    error("DANGLING_REF", f"region '{region.id}': {exc}")
                )
                ok = False
        for arc_id in sorted(region.body.arcs):
            if arc_id in arcs:
                body.append(arcs[arc_id])
                continue
            why = unresolved.get(arc_id, f"unknown arc '{arc_id}'")
            report.diagnostics.append(
                error("DANGLING_REF", f"region '{region.id}': {why}")
            )
            ok = False
        if ok:
            resolved.append((region, frozenset(stages), body))

    stage_map: dict[StageRef, str] = {}
    for region, stages, body in resolved:
        for arc in body:
            for ref in (arc.source, arc.target):
                if ref not in stages:
                    report.diagnostics.append(
                        error(
                            "DANGLING_REF",
                            f"region '{region.id}': arc '{arc.id}' endpoint "
                            f"{ref} is outside the region's stages",
                        )
                    )
        if not _connected(stages, [(arc.source, arc.target) for arc in body]):
            report.diagnostics.append(
                error("NOT_CONNECTED",
                      f"region '{region.id}' is not weakly connected")
            )
        for ref in stages:
            stage_map[ref] = region.id

    # Overlaps via the regions holding each stage and arc, not by
    # intersecting every pair of regions.
    holders: dict[StageRef | str, list[int]] = {}
    shared: dict[tuple[int, int], list[StageRef | str]] = {}
    for j, (region, stages, _) in enumerate(resolved):
        for item in sorted(stages, key=StageRef.sort_key) + sorted(set(region.body.arcs)):
            for i in holders.setdefault(item, []):
                shared.setdefault((i, j), []).append(item)
            holders[item].append(j)
    for (i, j), items in sorted(shared.items()):
        what = ", ".join(str(item) for item in items)
        report.diagnostics.append(
            error("OVERLAP", f"regions '{resolved[i][0].id}' and "
                             f"'{resolved[j][0].id}' overlap on {what}")
        )
    return report, stage_map


def _linked_regions(
    linked: Linked, regions: list[Region] | tuple[Region, ...]
) -> tuple[ValidationReport, dict[StageRef, str]]:
    """``_link_regions`` of the region set last linked with the model, kept
    on its linked form, so that ``tm check`` (check_regions, then
    validate_behavior) links its regions once.  Each call gets its own
    report."""
    key = tuple(regions)
    if linked.region_link is None or linked.region_link[0] != key:
        report, stage_map = _link_regions(linked, key)
        linked.region_link = (key, tuple(report.diagnostics), stage_map)
    _, diagnostics, stage_map = linked.region_link
    return ValidationReport(list(diagnostics)), stage_map


def check_regions(model: TMModel, regions: list[Region] | tuple[Region, ...]) -> ValidationReport:
    """Verify a region set: resolvable refs, connected bodies, no overlap.

    Never raises: arcs that do not resolve are reported where a region
    names them."""
    report, _ = _linked_regions(link(model), regions)
    return report


def _bound_regions(
    model: TMModel, regions: list[Region] | tuple[Region, ...]
) -> tuple[Linked, dict[StageRef, str], list[tuple[str, str]]]:
    """The linked model, the stage -> region map and the boundary edges
    (region order) of a region set; RegionCheckFailed if it fails."""
    linked = link(model).require()
    report, stage_map = _linked_regions(linked, regions)
    if not report.ok:
        raise RegionCheckFailed(report)
    order = {region.id: i for i, region in enumerate(regions)}
    found: set[tuple[str, str]] = set()
    for arc in linked.arcs():
        src = stage_map.get(arc.source)
        tgt = stage_map.get(arc.target)
        if src is not None and tgt is not None and src != tgt:
            found.add((src, tgt))
    return linked, stage_map, sorted(found, key=lambda e: (order[e[0]], order[e[1]]))


def infer_behavior(model: TMModel, regions: list[Region] | tuple[Region, ...]) -> BehaviorGraph:
    """Derive the candidate behavior graph from boundary arcs.

    One event per region (no intervals); an edge Ei -> Ej whenever some
    flow or trigger arc leaves region i and enters region j.  Initial
    events are those whose region holds a Create stage that no arc from
    another region feeds.
    """
    linked, stage_map, edges = _bound_regions(model, regions)

    incoming_cross: dict[StageRef, set[str]] = {}
    for arc in linked.arcs():
        src = stage_map.get(arc.source)
        if src is not None:
            incoming_cross.setdefault(arc.target, set()).add(src)

    starts = {
        rid
        for ref, rid in stage_map.items()
        if ref.kind == StageKind.CREATE and not (incoming_cross.get(ref, set()) - {rid})
    }
    initial = [region.id for region in regions if region.id in starts]

    events = tuple(Event(region.id, region.id, None) for region in regions)
    return BehaviorGraph(events, tuple(edges), tuple(initial))


def validate_behavior(
    model: TMModel,
    regions: list[Region] | tuple[Region, ...],
    declared: BehaviorGraph,
    mode: str = "overlap",
) -> ValidationReport:
    """Check a declared behavior graph against the boundary-arc rule.

    Errors: edges with no supporting boundary arc, events naming unknown
    regions, interval-order violations (per ``mode``: "overlap" needs
    start(Ej) >= start(Ei); "strict" needs start(Ej) >= start(Ei) +
    duration(Ei)).  Inferred edges absent from the declaration are
    warnings.
    """
    _, _, edges = _bound_regions(model, regions)
    if mode not in ("overlap", "strict"):
        raise ValueError(f"unknown interval mode '{mode}'")

    report = ValidationReport()
    region_ids = {region.id for region in regions}
    events = {event.id: event for event in reversed(declared.events)}  # first wins
    event_region: dict[str, str] = {}
    for event in declared.events:
        if event.region not in region_ids:
            report.diagnostics.append(
                error("UNKNOWN_REGION",
                      f"event '{event.id}' names unknown region '{event.region}'")
            )
        else:
            event_region[event.id] = event.region

    for event_id in declared.initial:
        if event_id not in events:
            report.diagnostics.append(
                error("UNKNOWN_REGION",
                      f"initial event '{event_id}' is not declared")
            )

    supported = set(edges)
    declared_pairs = set()
    for src, dst in declared.edges:
        if src not in event_region or dst not in event_region:
            missing = src if src not in event_region else dst
            report.diagnostics.append(
                error("UNKNOWN_REGION",
                      f"edge {src} -> {dst} references undeclared event '{missing}'")
            )
            continue
        pair = (event_region[src], event_region[dst])
        declared_pairs.add(pair)
        if pair not in supported:
            report.diagnostics.append(
                error("UNSUPPORTED_EDGE",
                      f"edge {src} -> {dst} has no supporting boundary arc")
            )
        ei, ej = events[src], events[dst]
        if ei.interval is not None and ej.interval is not None:
            required = ei.interval.start
            if mode == "strict":
                required += ei.interval.duration
            if ej.interval.start < required:
                report.diagnostics.append(
                    error(
                        "INTERVAL_ORDER",
                        f"edge {src} -> {dst}: start {ej.interval.start} is "
                        f"before required step {required} ({mode} mode)",
                    )
                )

    for pair in sorted(supported - declared_pairs):
        report.diagnostics.append(
            warning("MISSING_EDGE",
                    f"inferred edge {pair[0]} -> {pair[1]} is not declared")
        )
    return report


def chronologies(graph: BehaviorGraph, max_len: int) -> list[list[str]]:
    """All maximal walks from initial vertices, up to ``max_len`` events.

    A walk ends when its last vertex has no outgoing edges or the length
    bound is reached; cycles repeat up to the bound.  Deterministic:
    initial vertices and successors are visited in declaration order.
    """
    if graph.events and not graph.initial:
        raise NoInitialEvents("behavior graph declares no initial events")
    successors: dict[str, list[str]] = {}
    for src, dst in graph.edges:
        successors.setdefault(src, [])
        if dst not in successors[src]:
            successors[src].append(dst)

    walks: list[list[str]] = []

    def extend(walk: list[str]):
        nexts = successors.get(walk[-1], [])
        if len(walk) >= max_len or not nexts:
            walks.append(list(walk))
            return
        for nxt in nexts:
            walk.append(nxt)
            extend(walk)
            walk.pop()

    for start in graph.initial:
        if max_len >= 1:
            extend([start])
    return walks


def enumerate_subdiagrams(
    model: TMModel, max_elements: int, cap: int = 10**6
) -> list[Subdiagram]:
    """All weakly connected subdiagrams with |stages| + |arcs| <= bound.

    Connectivity follows the same adjacency as regions: through an arc,
    or through shared membership in one machine.  Deterministic order:
    by size, then stage refs, then arc ids.  Raises BoundTooLarge once
    more than ``cap`` subdiagrams accumulate.
    """
    linked = link(model).require()
    stages = linked.model.stage_instances()
    arcs = {arc.id: (arc.source, arc.target) for arc in linked.arcs()}
    incident: dict[StageRef, list[str]] = {ref: [] for ref in stages}
    for arc_id, (src, tgt) in arcs.items():
        incident[src].append(arc_id)
        if tgt != src:
            incident[tgt].append(arc_id)
    machine_mates: dict[tuple[str, ...], list[StageRef]] = {}
    for ref in stages:
        machine_mates.setdefault(ref.machine, []).append(ref)

    seen: set[Subdiagram] = set()
    frontier: list[Subdiagram] = []

    def admit(sub: Subdiagram):
        if sub.size <= max_elements and sub not in seen:
            if len(seen) >= cap:
                raise BoundTooLarge(
                    f"subdiagram enumeration exceeded cap of {cap}"
                )
            seen.add(sub)
            frontier.append(sub)

    if max_elements >= 1:
        for ref in stages:
            admit(Subdiagram(frozenset([ref]), frozenset()))

    while frontier:
        current = frontier.pop()
        if current.size >= max_elements:
            continue
        arc_candidates: set[str] = set()
        stage_candidates: set[StageRef] = set()
        for ref in current.stages:
            arc_candidates.update(incident[ref])
            stage_candidates.update(machine_mates[ref.machine])
        for arc_id in arc_candidates - current.arcs:
            src, tgt = arcs[arc_id]
            admit(Subdiagram(current.stages | {src, tgt},
                             current.arcs | {arc_id}))
        for ref in stage_candidates - current.stages:
            admit(Subdiagram(current.stages | {ref}, current.arcs))

    return sorted(seen, key=Subdiagram.sort_key)
