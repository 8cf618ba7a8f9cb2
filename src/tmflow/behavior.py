"""Regions, events, and behavior graphs over a static model.

A subdiagram is a weakly connected sub-part of the diagram (stages plus
arcs).  A region set partitions chosen sub-parts without overlap; an
event pairs a region with an optional (start, duration) interval; the
behavior graph orders events.
"""

from __future__ import annotations

from bisect import bisect_left

from .diagnostics import Record, SourceSpan, ValidationReport, _setattr, error, warning
from .model import Linked, ModelError, StageKind, StageRef, TMModel, link


class RegionCheckFailed(Exception):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


class BoundTooLarge(Exception):
    pass


class Subdiagram(Record):
    """A set of stages and arcs of a model."""

    __slots__ = ("stages", "arcs")

    def __init__(self, stages: frozenset[StageRef], arcs: frozenset[str]):
        _setattr(self, "stages", stages)
        _setattr(self, "arcs", arcs)


class Region(Record, uncompared=("span",), unshown=("span",)):
    """A named subdiagram: the part of the model one event runs in.
    ``span`` is where its id was read, for the region checks' diagnostics."""

    __slots__ = ("id", "body", "label", "span")

    def __init__(self, id: str, body: Subdiagram, label: str = "",
                 span: SourceSpan | None = None):
        _setattr(self, "id", id)
        _setattr(self, "body", body)
        _setattr(self, "label", label)
        _setattr(self, "span", span)


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

    def events_by_region(self) -> dict[str, str]:
        """region id -> event id (first declaration wins)."""
        mapping: dict[str, str] = {}
        for event in self.events:
            mapping.setdefault(event.region, event.id)
        return mapping


class _StageIndex:
    """A linked model's stages and arcs, numbered by small-int ranks.  Stage
    ``i`` of ``stages`` (in ``StageRef.sort_key`` order) has rank ``i``, and
    arc ``j`` of ``arc_ids`` (in id order) rank ``len(stages) + j``, so the
    sorted ranks of a subdiagram are its stages, then its arcs, in the
    census order (see ``enumerate_subdiagrams``).

    ``rank`` and ``arc_rank`` give the rank of a full-path stage ref and of
    an arc id; ``arc_ends`` holds the (source, target) stage ranks of every
    linked arc, repeated ids included, and ``ends[j]`` those of arc ``j``
    (a repeated id keeps its last arc, as an id -> arc dict does);
    ``near[i]`` holds the ranks of stage ``i``'s machine mates (itself
    included) and incident arcs, so each entry is as long as one stage's
    or arc's own adjacency, not as wide as the model.  ``region_link``
    keeps the last region set linked over the index (see
    ``_linked_regions``)."""

    __slots__ = ("stages", "rank", "arc_ids", "arc_rank", "arc_ends", "ends", "near",
                 "region_link")

    def __init__(self, linked: Linked):
        rank = dict.fromkeys(linked.stages)
        self.stages = stages = sorted(rank, key=StageRef.sort_key)
        n = len(stages)
        machines: dict[tuple[str, ...], list[int]] = {}
        for i, ref in enumerate(stages):
            rank[ref] = i
            machines.setdefault(ref.machine, []).append(i)
        self.rank: dict[StageRef, int] = rank
        self.arc_ends = [(rank[arc.source], rank[arc.target]) for arc in linked.arcs()]
        arcs = dict(zip([arc.id for arc in linked.arcs()], self.arc_ends))
        self.arc_ids = sorted(arcs)
        self.arc_rank: dict[str, int] = {}
        self.ends: list[tuple[int, int]] = []
        incident: list[list[int]] = [[] for _ in stages]
        for j, arc_id in enumerate(self.arc_ids, n):
            self.arc_rank[arc_id] = j
            source, target = ends = arcs[arc_id]
            self.ends.append(ends)
            incident[source].append(j)
            if target != source:
                incident[target].append(j)
        self.near = [(*machines[ref.machine], *incident[i]) for i, ref in enumerate(stages)]
        self.region_link: tuple | None = None

    def name(self, rank: int) -> str:
        """The stage ref or arc id of ``rank``, as text."""
        n = len(self.stages)
        return str(self.stages[rank]) if rank < n else self.arc_ids[rank - n]


def _stage_index(linked: Linked) -> _StageIndex:
    """The ``_StageIndex`` of ``linked``, built on first use and kept on it."""
    if linked.stage_index is None:
        linked.stage_index = _StageIndex(linked)
    return linked.stage_index


def _connected(index: _StageIndex, body: set[int]) -> bool:
    """Weak connectivity of the stages of ``body``, a set of ranks over
    ``index``.  Two stages are adjacent when an arc of ``body`` joins them
    or when they belong to the same machine (stages are parts of a single
    machine node, so they touch through it).  A search over the members of
    ``body`` only, from one of its stages."""
    n = len(index.stages)
    stages = [rank for rank in body if rank < n]
    if not stages:
        return False
    near, ends = index.near, index.ends
    reached = {stages[0]}
    todo = [stages[0]]
    while todo:
        rank = todo.pop()
        for other in near[rank] if rank < n else ends[rank - n]:
            if other in body and other not in reached:
                reached.add(other)
                todo.append(other)
    return reached.issuperset(stages)


def _link_regions(
    linked: Linked, regions: list[Region] | tuple[Region, ...]
) -> tuple[ValidationReport, tuple[tuple[str, str], ...], tuple[str, ...]]:
    """Check a region set in one pass: the report, and, when it has no
    errors, the boundary edges (region order) and the initial regions.  A
    repeated region id is reported and its later region left out.  Stages
    and arcs are visited sorted, so the diagnostics do not depend on set
    iteration order; each region's body becomes a set of ranks over the
    model's ``_StageIndex``."""
    report = ValidationReport()
    index = _stage_index(linked)
    n = len(index.stages)
    unresolved = {arc.id: f"arc '{arc.id}': {exc}" for arc, exc in linked.unresolved}

    resolved = []
    region_ids: set[str] = set()
    for region in regions:
        if region.id in region_ids:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate region id '{region.id}'", region.span)
            )
            continue
        region_ids.add(region.id)
        body = set()
        dangling = []
        for ref in sorted(region.body.stages, key=StageRef.sort_key):
            try:
                rank = index.rank.get(linked.normalize(ref))
            except ModelError as exc:
                dangling.append(str(exc))
                continue
            if rank is None:
                dangling.append(f"'{ref}' names a machine, not a stage")
            else:
                body.add(rank)
        for arc_id in sorted(region.body.arcs):
            if arc_id in index.arc_rank:
                body.add(index.arc_rank[arc_id])
            else:
                dangling.append(unresolved.get(arc_id, f"unknown arc '{arc_id}'"))
        for why in dangling:
            report.diagnostics.append(
                error("DANGLING_REF", f"region '{region.id}': {why}", region.span)
            )
        if not dangling:
            resolved.append((region, body))

    for region, body in resolved:
        for arc_id in sorted(region.body.arcs):
            for rank in index.ends[index.arc_rank[arc_id] - n]:
                if rank not in body:
                    report.diagnostics.append(
                        error(
                            "DANGLING_REF",
                            f"region '{region.id}': arc '{arc_id}' endpoint "
                            f"{index.stages[rank]} is outside the region's stages",
                            region.span,
                        )
                    )
        if not _connected(index, body):
            report.diagnostics.append(
                error("NOT_CONNECTED",
                      f"region '{region.id}' is not weakly connected", region.span)
            )

    # Overlaps via the regions holding each stage and arc, not by
    # intersecting every pair of regions: the first holder of each rank,
    # and a list of the later ones only where two regions share it, so a
    # valid region set builds no list per stage or arc (a list per rank
    # made `infer_behavior` about 4% slower on perfbench's static-large).
    first: list[int | None] = [None] * (n + len(index.arc_ids))
    later: dict[int, list[int]] = {}
    shared: dict[tuple[int, int], list[int]] = {}
    for j, (_, body) in enumerate(resolved):
        for rank in body:
            if first[rank] is None:
                first[rank] = j
                continue
            for i in (first[rank], *later.get(rank, ())):
                shared.setdefault((i, j), []).append(rank)
            later.setdefault(rank, []).append(j)
    for (i, j), ranks in sorted(shared.items()):
        what = ", ".join(index.name(rank) for rank in sorted(ranks))
        report.diagnostics.append(
            error("OVERLAP", f"regions '{resolved[i][0].id}' and "
                             f"'{resolved[j][0].id}' overlap on {what}", resolved[j][0].span)
        )
    if not report.ok:
        return report, (), ()

    # No errors: every region resolved and none overlap, so ``first`` maps
    # each held stage to its one region's place in ``regions``.  An arc
    # between two regions is a boundary edge, and feeds its target.
    crossing: set[tuple[int, int]] = set()
    fed: set[int] = set()
    for source, target in index.arc_ends:
        i, j = first[source], first[target]
        if i is not None and j is not None and i != j:
            crossing.add((i, j))
            fed.add(target)
    edges = tuple((regions[i].id, regions[j].id) for i, j in sorted(crossing))
    # Initial: a region holding a Create stage that no other region feeds.
    initial = tuple(
        region.id for region, body in resolved
        if any(rank < n and rank not in fed and index.stages[rank].kind is StageKind.CREATE
               for rank in body)
    )
    return report, edges, initial


def _linked_regions(
    linked: Linked, regions: list[Region] | tuple[Region, ...]
) -> tuple[ValidationReport, tuple[tuple[str, str], ...], tuple[str, ...]]:
    """``_link_regions`` of the region set last linked with the model, kept
    on its ``_StageIndex``, so that ``tm check`` (check_regions, then
    validate_behavior) and a repeated inference link their regions once.
    Each call gets its own report.  The key holds each region's span, as
    the diagnostics do, which ``==`` on regions leaves out."""
    index = _stage_index(linked)
    key = tuple((region, region.span) for region in regions)
    if index.region_link is None or index.region_link[0] != key:
        report, edges, initial = _link_regions(linked, regions)
        index.region_link = (key, tuple(report.diagnostics), edges, initial)
    _, diagnostics, edges, initial = index.region_link
    return ValidationReport(list(diagnostics)), edges, initial


def check_regions(model: TMModel, regions: list[Region] | tuple[Region, ...]) -> ValidationReport:
    """Verify a region set: resolvable refs, connected bodies, no overlap.

    Never raises: arcs that do not resolve are reported where a region
    names them."""
    return _linked_regions(link(model), regions)[0]


def infer_behavior(model: TMModel, regions: list[Region] | tuple[Region, ...]) -> BehaviorGraph:
    """Derive the candidate behavior graph from boundary arcs.

    One event per region (no intervals); an edge Ei -> Ej whenever some
    flow or trigger arc leaves region i and enters region j.  Initial
    events are those whose region holds a Create stage that no arc from
    another region feeds.
    """
    report, edges, initial = _linked_regions(link(model).require(), regions)
    if not report.ok:
        raise RegionCheckFailed(report)
    events = tuple(Event(region.id, region.id, None) for region in regions)
    return BehaviorGraph(events, edges, initial)


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
    regions_report, edges, _ = _linked_regions(link(model).require(), regions)
    if not regions_report.ok:
        raise RegionCheckFailed(regions_report)
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


_CAP = 10**6


def enumerate_subdiagrams(model: TMModel, max_elements: int) -> list[Subdiagram]:
    """All weakly connected subdiagrams with |stages| + |arcs| <= bound.

    Connectivity follows the same adjacency as regions: through an arc,
    or through shared membership in one machine.  Deterministic order:
    by size, then stage refs, then arc ids.  Raises BoundTooLarge once
    more than ``_CAP`` subdiagrams accumulate.

    Each candidate is the sorted tuple of its ranks over the model's
    ``_StageIndex``.  It grows from its lowest stage, the seed, by a
    machine mate or an incident arc (with its other end) ranked no lower
    than the seed, so each subdiagram is found from one seed only, as in
    Wernicke's ESU ("Efficient detection of network motifs", 2006), and
    repeats drop out of that seed's own set.  ``Subdiagram`` records are
    built for the answer only.
    """
    cap = _CAP
    index = _stage_index(link(model).require())
    n, near, ends = len(index.stages), index.near, index.ends
    # low[rank]: the lowest stage that growing by that stage or arc brings in.
    low = [*range(n), *map(min, ends)]
    keys = []
    for seed in range(n if max_elements >= 1 else 0):
        seen = {(seed,)}
        todo = [(seed,)]
        while todo:
            if len(keys) + len(seen) > cap:
                raise BoundTooLarge(f"subdiagram enumeration exceeded cap of {cap}")
            current = todo.pop()
            if len(current) >= max_elements:
                continue
            grow = set()
            for rank in current:
                if rank >= n:
                    break
                grow.update(near[rank])
            grow.difference_update(current)
            for rank in grow:
                if low[rank] < seed:
                    continue
                if rank < n:
                    sub = tuple(sorted((*current, rank)))
                else:
                    sub = (*current, rank, *[end for end in ends[rank - n] if end not in current])
                    if len(sub) > max_elements:
                        continue
                    sub = tuple(sorted(sub))
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        for sub in seen:
            k = bisect_left(sub, n)
            keys.append((len(sub), sub[:k], sub[k:]))
    keys.sort()
    element = [*index.stages, *index.arc_ids]
    return [
        Subdiagram(frozenset(map(element.__getitem__, stages)),
                   frozenset(map(element.__getitem__, arcs)))
        for _, stages, arcs in keys
    ]
