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


class _StageIndex:
    """A linked model's stages and arcs as the bits of one int.  Stage ``i``
    of ``stages`` (in ``StageRef.sort_key`` order) is bit ``i``, and arc
    ``j`` of ``arc_ids`` (in id order) is bit ``len(stages) + j``, so a
    mask is a subdiagram, and its bits in ascending order are its stages
    and arcs in ``Subdiagram.sort_key`` order.  A repeated arc id keeps its
    last arc, as an id -> arc dict does.

    ``rank`` and ``bit`` give the bit of a full-path stage ref and of an
    arc id; ``near[i]`` is the mask of stage ``i``'s machine mates (itself
    included) and incident arcs, and ``ends[j]`` that of arc ``j``'s end
    stages."""

    __slots__ = ("stages", "rank", "arcs", "arc_ids", "bit", "all_stages", "near", "ends")

    def __init__(self, linked: Linked):
        rank = dict.fromkeys(linked.model.stage_instances())
        self.stages = stages = sorted(rank, key=StageRef.sort_key)
        n = len(stages)
        self.all_stages = (1 << n) - 1
        machines: dict[tuple[str, ...], int] = {}
        for i, ref in enumerate(stages):
            rank[ref] = i
            machines[ref.machine] = machines.get(ref.machine, 0) | 1 << i
        self.rank: dict[StageRef, int] = rank
        self.near = near = [machines[ref.machine] for ref in stages]
        self.arcs = arcs = {arc.id: arc for arc in linked.arcs()}
        self.arc_ids = sorted(arcs)
        self.bit: dict[str, int] = {}
        self.ends: list[int] = []
        for bit, arc_id in enumerate(self.arc_ids, n):
            self.bit[arc_id] = bit
            source, target = rank[arcs[arc_id].source], rank[arcs[arc_id].target]
            self.ends.append(1 << source | 1 << target)
            near[source] |= 1 << bit
            near[target] |= 1 << bit

    def name(self, bit: int) -> str:
        """The stage ref or arc id at ``bit``, as text."""
        n = len(self.stages)
        return str(self.stages[bit]) if bit < n else self.arc_ids[bit - n]


def _stage_index(linked: Linked) -> _StageIndex:
    """The ``_StageIndex`` of ``linked``, built on first use and kept on it."""
    if linked.stage_index is None:
        linked.stage_index = _StageIndex(linked)
    return linked.stage_index


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected(index: _StageIndex, body: int) -> bool:
    """Weak connectivity of the stages of ``body``, a mask over ``index``.
    Two stages are adjacent when an arc of ``body`` joins them or when they
    belong to the same machine (stages are parts of a single machine node,
    so they touch through it).  A flood fill over the index's masks from
    the lowest stage."""
    stages = body & index.all_stages
    if not stages:
        return False
    n = len(index.stages)
    near, ends = index.near, index.ends
    reached = todo = stages & -stages
    while todo:
        low = todo & -todo
        todo ^= low
        bit = low.bit_length() - 1
        new = (near[bit] if bit < n else ends[bit - n]) & body & ~reached
        reached |= new
        todo |= new
    return (reached & stages) == stages


def _link_regions(
    linked: Linked, regions: list[Region] | tuple[Region, ...]
) -> tuple[ValidationReport, dict[StageRef, str]]:
    """Check a region set in one pass: the report, and the stage -> region
    map over the regions whose refs resolve.  A repeated region id is
    reported and its later region left out.  Stages and arcs are visited
    sorted, so the diagnostics do not depend on set iteration order; each
    region's body becomes a mask over the model's ``_StageIndex``."""
    report = ValidationReport()
    index = _stage_index(linked)
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
        body = 0
        ok = True
        for ref in sorted(region.body.stages, key=StageRef.sort_key):
            try:
                rank = index.rank.get(linked.normalize(ref))
            except ModelError as exc:
                why = str(exc)
            else:
                if rank is not None:
                    body |= 1 << rank
                    continue
                why = f"'{ref}' names a machine, not a stage"
            report.diagnostics.append(error("DANGLING_REF", f"region '{region.id}': {why}"))
            ok = False
        for arc_id in sorted(region.body.arcs):
            if arc_id in index.bit:
                body |= 1 << index.bit[arc_id]
                continue
            why = unresolved.get(arc_id, f"unknown arc '{arc_id}'")
            report.diagnostics.append(
                error("DANGLING_REF", f"region '{region.id}': {why}")
            )
            ok = False
        if ok:
            resolved.append((region, body))

    stage_map: dict[StageRef, str] = {}
    for region, body in resolved:
        for arc_id in sorted(region.body.arcs):
            arc = index.arcs[arc_id]
            for ref in (arc.source, arc.target):
                if not body >> index.rank[ref] & 1:
                    report.diagnostics.append(
                        error(
                            "DANGLING_REF",
                            f"region '{region.id}': arc '{arc.id}' endpoint "
                            f"{ref} is outside the region's stages",
                        )
                    )
        if not _connected(index, body):
            report.diagnostics.append(
                error("NOT_CONNECTED",
                      f"region '{region.id}' is not weakly connected")
            )
        for bit in _bits(body & index.all_stages):
            stage_map[index.stages[bit]] = region.id

    # Overlaps via the regions holding each stage and arc, not by
    # intersecting every pair of regions.
    holders: dict[int, list[int]] = {}
    shared: dict[tuple[int, int], list[int]] = {}
    for j, (_, body) in enumerate(resolved):
        for bit in _bits(body):
            for i in holders.setdefault(bit, []):
                shared.setdefault((i, j), []).append(bit)
            holders[bit].append(j)
    for (i, j), bits in sorted(shared.items()):
        what = ", ".join(index.name(bit) for bit in bits)
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

    Each candidate is a mask over the model's ``_StageIndex``: one grows
    from a single stage by a machine mate or an incident arc (with its
    ends), repeats drop out of a set of ints, and ``Subdiagram`` records
    are built for the answer only.
    """
    index = _stage_index(link(model).require())
    n, near, ends, all_stages = len(index.stages), index.near, index.ends, index.all_stages
    seen = {1 << i for i in range(n)} if max_elements >= 1 else set()
    if seen and len(seen) > cap:
        raise BoundTooLarge(f"subdiagram enumeration exceeded cap of {cap}")
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        if current.bit_count() >= max_elements:
            continue
        grow, stages = 0, current & all_stages
        while stages:
            low = stages & -stages
            grow |= near[low.bit_length() - 1]
            stages ^= low
        grow &= ~current
        while grow:
            low = grow & -grow
            grow ^= low
            bit = low.bit_length() - 1
            sub = current | low if bit < n else current | low | ends[bit - n]
            if sub not in seen and sub.bit_count() <= max_elements:
                seen.add(sub)
                if len(seen) > cap:
                    raise BoundTooLarge(f"subdiagram enumeration exceeded cap of {cap}")
                frontier.append(sub)

    keys = []
    for sub in seen:
        bits = tuple(_bits(sub))
        k = (sub & all_stages).bit_count()
        keys.append((len(bits), bits[:k], bits[k:]))
    keys.sort()
    return [
        Subdiagram(frozenset([index.stages[bit] for bit in stages]),
                   frozenset([index.arc_ids[bit - n] for bit in arcs]))
        for _, stages, arcs in keys
    ]
