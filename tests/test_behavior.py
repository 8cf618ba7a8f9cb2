import itertools
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import (
    BehaviorGraph,
    BoundTooLarge,
    Event,
    FlowArc,
    Interval,
    Machine,
    ModelError,
    Region,
    RegionCheckFailed,
    SourceSpan,
    StageRef,
    StageKind,
    Subdiagram,
    TMModel,
    TriggerArc,
    ValidationReport,
    check_regions,
    desugar,
    enumerate_subdiagrams,
    infer_behavior,
    merge_documents,
    normalize_ref,
    parse,
    validate_behavior,
)
import tmflow.behavior as behavior
from tmflow.behavior import _connected, _stage_index
from tmflow.diagnostics import error, warning
from tmflow.model import link

from conftest import corpus_doc, index_bytes, perfbench_gen, tracing_memory


def region(rid, stages, arcs):
    return Region(rid, Subdiagram(frozenset(stages), frozenset(arcs)))


CHAIN = (
    "thing t\n"
    "machine a { stages Create, Release, Transfer }\n"
    "flow c1: a.Create -> a.Release on t\n"
    "flow c2: a.Release -> a.Transfer on t\n"
)


def chain_ref(kind):
    from tmflow import StageKind

    return StageRef(("a",), getattr(StageKind, kind.upper()))


class TestRegionChecks:
    def test_corpus_regions_are_valid(self, mousetrap, formula, stack):
        for doc in (mousetrap, formula, stack):
            report = check_regions(doc.model, doc.regions)
            assert report.ok, str(report)

    def test_overlapping_regions_rejected(self):
        model = parse(CHAIN).model
        regions = [
            region("r1", [chain_ref("create"), chain_ref("release")], ["c1"]),
            region("r2", [chain_ref("release"), chain_ref("transfer")], ["c2"]),
        ]
        report = check_regions(model, regions)
        assert not report.ok
        [diag] = report.errors
        assert diag.code == "OVERLAP"
        assert "r1" in diag.message and "r2" in diag.message

    def test_overlap_between_later_pair_reported(self):
        model = parse(CHAIN).model
        regions = [
            region("r1", [chain_ref("create"), chain_ref("release")], ["c1"]),
            region("r2", [chain_ref("transfer")], []),
            region("r3", [chain_ref("transfer")], []),
        ]
        report = check_regions(model, regions)
        assert {d.code for d in report.errors} == {"OVERLAP"}

    def test_overlaps_listed_by_region_pair(self):
        model = parse(CHAIN).model
        c, r, t = (chain_ref(kind) for kind in ("create", "release", "transfer"))
        regions = [
            region("r1", [c, r], ["c1"]),
            region("r2", [t], ["c2"]),
            region("r3", [t, r, c], ["c2", "c1"]),
        ]
        report = check_regions(model, regions)
        assert [d.message for d in report.errors if d.code == "OVERLAP"] == [
            "regions 'r1' and 'r3' overlap on a.Create, a.Release, c1",
            "regions 'r2' and 'r3' overlap on a.Transfer, c2",
        ]

    def test_disconnected_region_rejected(self, mousetrap):
        from tmflow import StageKind

        bad = region(
            "r",
            [StageRef(("bait",), StageKind.CREATE),
             StageRef(("mouse",), StageKind.PROCESS)],
            [],
        )
        report = check_regions(mousetrap.model, [bad])
        assert "NOT_CONNECTED" in {d.code for d in report.errors}

    def test_same_machine_stages_connect_without_arcs(self):
        model = parse(CHAIN).model
        report = check_regions(
            model, [region("r", [chain_ref("create"), chain_ref("transfer")], [])]
        )
        assert report.ok

    def test_dangling_stage_ref(self):
        model = parse(CHAIN).model
        report = check_regions(
            model, [region("r", [StageRef(("ghost",), None)], [])]
        )
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_machine_without_a_stage_is_dangling(self):
        model = parse(CHAIN).model
        report = check_regions(model, [region("r", [StageRef(("a",), None)], [])])
        assert [str(d) for d in report.diagnostics] == [
            "error[DANGLING_REF]: region 'r': 'a' names a machine, not a stage"
        ]

    def test_dangling_arc_id(self):
        model = parse(CHAIN).model
        report = check_regions(
            model, [region("r", [chain_ref("create")], ["nope"])]
        )
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_arc_endpoint_outside_region(self):
        model = parse(CHAIN).model
        report = check_regions(model, [region("r", [chain_ref("create")], ["c1"])])
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_infer_raises_on_bad_regions(self):
        model = parse(CHAIN).model
        regions = [
            region("r1", [chain_ref("create"), chain_ref("release")], ["c1"]),
            region("r2", [chain_ref("release"), chain_ref("transfer")], ["c2"]),
        ]
        with pytest.raises(RegionCheckFailed) as exc:
            infer_behavior(model, regions)
        assert "OVERLAP" in {d.code for d in exc.value.report.errors}

    @pytest.mark.parametrize("where", ["in-file", "sidecar"])
    def test_repeated_region_id_fails_inference(self, where):
        first = "regions {\n  region r1 { stages a.Create, a.Release\n arcs c1 }\n}\n"
        second = "regions {\n  region r1 { stages a.Transfer }\n}\n"
        if where == "in-file":
            doc = parse(CHAIN + first + second)
        else:
            doc = merge_documents(parse(CHAIN + first), parse(second))
        assert [r.id for r in doc.regions] == ["r1", "r1"]
        with pytest.raises(RegionCheckFailed) as exc:
            infer_behavior(doc.model, doc.regions)
        line = 10 if where == "in-file" else 2
        assert [str(d) for d in exc.value.report.diagnostics] == [
            f"{line}:10: error[DUP_ID]: duplicate region id 'r1'"
        ]


class TestInference:
    def test_mousetrap_chain(self, mousetrap):
        graph = infer_behavior(mousetrap.model, mousetrap.regions)
        assert graph.edges == (("a", "b"), ("b", "c"), ("c", "d"))
        assert graph.initial == ("a",)

    def test_formula_loop(self, formula):
        graph = infer_behavior(formula.model, formula.regions)
        assert set(graph.edges) == {
            ("add", "bump"), ("bump", "add"), ("bump", "emit")
        }
        assert graph.initial == ("add",)

    def test_stack_exact_edge_set(self, stack):
        graph = infer_behavior(stack.model, stack.regions)
        assert set(graph.edges) == {
            ("E0", "E1"), ("E0", "E6"), ("E1", "E2"), ("E2", "E3"),
            ("E2", "E4"), ("E4", "E5"), ("E3", "E0"), ("E6", "E7"),
            ("E6", "E8"), ("E8", "E9"),
        }
        assert graph.initial == ("E0",)

    def test_one_event_per_region(self, stack):
        graph = infer_behavior(stack.model, stack.regions)
        assert tuple(e.id for e in graph.events) == tuple(r.id for r in stack.regions)

    def test_initial_needs_an_unfed_create(self, multiple_behaviors):
        graph = infer_behavior(
            multiple_behaviors.model, multiple_behaviors.regions
        )
        # Every other region's Create stage is fed by a trigger from E1.
        assert graph.initial == ("E1",)


class TestDeclaredBehavior:
    def test_one_lane_overlap_mode(self, one_lane):
        report = validate_behavior(
            one_lane.model, one_lane.regions, one_lane.behavior, mode="overlap"
        )
        assert report.ok
        assert "INTERVAL_ORDER" not in {d.code for d in report.diagnostics}
        assert [d.code for d in report.diagnostics] == ["MISSING_EDGE"]

    def test_paint_dry_overlap_ok_strict_fails(self, paint_dry):
        overlap = validate_behavior(
            paint_dry.model, paint_dry.regions, paint_dry.behavior, mode="overlap"
        )
        assert overlap.ok and not overlap.diagnostics
        strict = validate_behavior(
            paint_dry.model, paint_dry.regions, paint_dry.behavior, mode="strict"
        )
        assert [d.code for d in strict.errors] == ["INTERVAL_ORDER"]

    def test_unsupported_edge(self, paint_dry):
        declared = BehaviorGraph(
            events=(Event("paint", "R_paint"), Event("dry", "R_dry")),
            edges=(("dry", "paint"),),
            initial=("paint",),
        )
        report = validate_behavior(paint_dry.model, paint_dry.regions, declared)
        assert "UNSUPPORTED_EDGE" in {d.code for d in report.errors}
        assert ("warning", "MISSING_EDGE") in {(d.severity, d.code) for d in report.diagnostics}

    def test_unknown_region(self, paint_dry):
        declared = BehaviorGraph(
            events=(Event("x", "nowhere"),), edges=(), initial=("x",)
        )
        report = validate_behavior(paint_dry.model, paint_dry.regions, declared)
        assert "UNKNOWN_REGION" in {d.code for d in report.errors}

    def test_undeclared_initial_event_and_edge_end(self, paint_dry):
        declared = BehaviorGraph(
            events=(Event("paint", "R_paint"), Event("dry", "R_dry")),
            edges=(("paint", "dry"), ("paint", "wet")),
            initial=("paint", "start"),
        )
        report = validate_behavior(paint_dry.model, paint_dry.regions, declared)
        assert [str(d) for d in report.diagnostics] == [
            "error[UNKNOWN_REGION]: initial event 'start' is not declared",
            "error[UNKNOWN_REGION]: edge paint -> wet references undeclared event 'wet'",
        ]

    def test_bad_mode_rejected(self, paint_dry):
        with pytest.raises(ValueError):
            validate_behavior(
                paint_dry.model, paint_dry.regions, paint_dry.behavior,
                mode="sloppy",
            )


def _oracle_parts(model):
    """The desugared model's stages, and its arc ends by arc id."""
    model = desugar(model)
    arcs = {
        arc.id: (normalize_ref(model, arc.source),
                 normalize_ref(model, arc.target))
        for arc in model.arcs()
    }
    return model.stage_instances(), arcs


def brute_force_subdiagrams(model, bound):
    """Independent oracle: filter the full powerset of (stages, arcs)."""
    stages, arcs = _oracle_parts(model)
    found = set()
    for k in range(1, len(stages) + 1):
        for stage_set in itertools.combinations(stages, k):
            chosen = set(stage_set)
            internal = [
                aid for aid, (s, t) in arcs.items()
                if s in chosen and t in chosen
            ]
            for n in range(len(internal) + 1):
                for arc_set in itertools.combinations(internal, n):
                    if k + n > bound:
                        continue
                    if _connected_oracle(chosen, set(arc_set), arcs):
                        found.add(
                            Subdiagram(frozenset(chosen), frozenset(arc_set))
                        )
    return sorted(found, key=census_key)


def census_key(sub):
    """The census order: by size, then stage refs, then arc ids."""
    return (
        len(sub.stages) + len(sub.arcs),
        tuple(sorted(r.sort_key() for r in sub.stages)),
        tuple(sorted(sub.arcs)),
    )


def _connected_oracle(stages, arc_ids, all_arcs):
    # Breadth-first search over arc and same-machine adjacency.
    neighbours = {s: set() for s in stages}
    for aid in arc_ids:
        s, t = all_arcs[aid]
        neighbours[s].add(t)
        neighbours[t].add(s)
    for a in stages:
        for b in stages:
            if a is not b and a.machine == b.machine:
                neighbours[a].add(b)
    start = next(iter(stages))
    seen = {start}
    queue = [start]
    while queue:
        for nxt in neighbours[queue.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen == stages


class TestSubdiagrams:
    def test_chain_count_is_frozen(self):
        model = parse(CHAIN).model
        subs = enumerate_subdiagrams(model, 5)
        assert len(subs) == 12

    @pytest.mark.parametrize(
        "name", ["paint_dry.tm", "multiple_behaviors.tm", "sugar_pipeline.tm"]
    )
    def test_matches_brute_force_oracle_on_small_models(self, name):
        model = desugar(corpus_doc(name).model)
        assert len(model.stage_instances()) <= 8
        bound = len(model.stage_instances()) + len(list(model.arcs()))
        assert enumerate_subdiagrams(model, bound) == brute_force_subdiagrams(
            model, bound
        )

    def test_bound_limits_size(self):
        model = parse(CHAIN).model
        subs = enumerate_subdiagrams(model, 2)
        assert all(len(sub.stages) + len(sub.arcs) <= 2 for sub in subs)
        assert enumerate_subdiagrams(model, 2) == brute_force_subdiagrams(model, 2)

    def test_zero_bound_is_empty(self):
        assert enumerate_subdiagrams(parse(CHAIN).model, 0) == []

    def test_cap_raises(self, monkeypatch, stack):
        monkeypatch.setattr(behavior, "_CAP", 100)
        with pytest.raises(BoundTooLarge):
            enumerate_subdiagrams(stack.model, 40)

    def test_deterministic_order(self, paint_dry):
        first = enumerate_subdiagrams(paint_dry.model, 6)
        second = enumerate_subdiagrams(paint_dry.model, 6)
        assert first == second
        sizes = [len(sub.stages) + len(sub.arcs) for sub in first]
        assert sizes == sorted(sizes)


@st.composite
def small_models(draw):
    """Models of at most 8 stage instances and 6 arcs once desugared: up to
    three machines nested at random; flows and triggers between declared
    stages, within one machine, as self-loops and under repeated ids; and
    `=>` arcs, each declaring the stages it needs."""
    count = draw(st.integers(1, 3))
    ids = [f"m{i}" for i in range(count)]
    parents = [None] + [draw(st.sampled_from([None, *range(i)])) for i in range(1, count)]
    paths = []
    for i in range(count):
        paths.append((paths[parents[i]] if parents[i] is not None else ()) + (ids[i],))
    kinds = [draw(st.lists(st.sampled_from(list(StageKind)), unique=True, max_size=3))
             for _ in ids]
    declared = [(i, kind) for i in range(count) for kind in kinds[i]]
    stages = set(declared)
    flows, triggers, arcs = [], [], 0

    def ref(i, kind):
        return StageRef(draw(st.sampled_from([(ids[i],), paths[i]])), kind)

    for _ in range(draw(st.integers(0, 5))):
        arc_id = draw(st.sampled_from(["a", "b", "c", "d"]))
        what = draw(st.sampled_from(["flow", "trigger", "sugar"]))
        if what == "sugar":
            i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
            needed = {(i, StageKind.RELEASE), (i, StageKind.TRANSFER),
                      (j, StageKind.TRANSFER), (j, StageKind.RECEIVE)}
            if len(stages | needed) > 8 or arcs + 3 > 6:
                continue
            stages |= needed
            arcs += 3
            flows.append(FlowArc(arc_id, ref(i, None), ref(j, None)))
        elif declared and arcs < 6:
            source, target = draw(st.sampled_from(declared)), draw(st.sampled_from(declared))
            arcs += 1
            if what == "flow":
                flows.append(FlowArc(arc_id, ref(*source), ref(*target)))
            else:
                triggers.append(TriggerArc(arc_id, ref(*source), ref(*target)))

    def machine(i):
        subs = tuple(machine(j) for j in range(count) if parents[j] == i)
        return Machine(ids[i], stages=tuple(kinds[i]), submachines=subs)

    roots = tuple(machine(i) for i in range(count) if parents[i] is None)
    return TMModel(roots, tuple(flows), tuple(triggers))


class TestCensusProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_models())
    def test_census_matches_the_oracle_at_every_bound(self, model):
        stages, arcs = _oracle_parts(model)
        top = len(stages) + len(arcs)
        full = brute_force_subdiagrams(model, top)
        for bound in range(top + 1):
            # The oracle filters by size, so its list at ``bound`` is this.
            expected = [sub for sub in full if len(sub.stages) + len(sub.arcs) <= bound]
            assert enumerate_subdiagrams(model, bound) == expected
        n = len(full)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(behavior, "_CAP", n)
            assert enumerate_subdiagrams(model, top) == full
            if n:
                patch.setattr(behavior, "_CAP", n - 1)
                with pytest.raises(BoundTooLarge) as exc:
                    enumerate_subdiagrams(model, top)
                assert str(exc.value) == f"subdiagram enumeration exceeded cap of {n - 1}"

    @settings(max_examples=100, deadline=None)
    @given(small_models(), st.data())
    def test_not_connected_matches_the_oracle(self, model, data):
        stages, arcs = _oracle_parts(model)
        if not stages:
            return
        chosen = set(data.draw(st.lists(st.sampled_from(stages), min_size=1, unique=True)))
        arc_ids = set(data.draw(st.lists(st.sampled_from(sorted(arcs)), unique=True)
                                if arcs else st.just([])))
        report = check_regions(model, [region("r", chosen, arc_ids)])
        internal = {a for a in arc_ids if set(arcs[a]) <= chosen}
        assert ("NOT_CONNECTED" in {d.code for d in report.diagnostics}) == (
            not _connected_oracle(chosen, internal, arcs)
        )


class TestLinkProperties:
    @settings(max_examples=100, deadline=None)
    @given(small_models())
    def test_link_holds_the_tree_of_its_model(self, model):
        """``machines`` and ``stages`` are those of the linked model, sugar
        included: each machine that desugaring rebuilt took its place."""
        linked = link(model)
        tree = list(linked.model.walk())
        assert linked.machines == tree
        assert all(ours is theirs for (_, ours), (_, theirs) in zip(linked.machines, tree))
        assert linked.stages == linked.model.stage_instances()


class TestCensusWork:
    """Counts, not timings, which are too noisy on a shared machine."""

    def test_records_are_built_for_the_answer_only(self, monkeypatch, stack):
        built = []
        init = Subdiagram.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(Subdiagram, "__init__", counting_init)
        subs = enumerate_subdiagrams(stack.model, 4)
        assert len(built) == len(subs) > 100
        del built[:]
        monkeypatch.setattr(behavior, "_CAP", len(subs) - 1)
        with pytest.raises(BoundTooLarge):
            enumerate_subdiagrams(stack.model, 4)
        assert built == []

    def test_stage_hashes_grow_linearly_in_model_size(self, monkeypatch):
        gen = perfbench_gen()
        n = gen["STATIC_N"]
        hashed = []
        hash_ = StageRef.__hash__

        def counting_hash(self):
            hashed.append(1)
            return hash_(self)

        def work(units):
            doc = parse(gen["static_large"](3, units).model)
            monkeypatch.setattr(StageRef, "__hash__", counting_hash)
            del hashed[:]
            subs = enumerate_subdiagrams(doc.model, 3)
            monkeypatch.setattr(StageRef, "__hash__", hash_)
            return len(subs), len(hashed)

        (subs_n, at_n), (subs_2n, at_2n) = work(n), work(2 * n)
        assert subs_2n > subs_n > 0
        assert 0 < at_2n <= 2.1 * at_n, (at_n, at_2n)

    def test_held_candidates_are_small(self, monkeypatch):
        gen = perfbench_gen()
        doc = parse(gen["static_large"](3, gen["STATIC_N"]).model)
        enumerate_subdiagrams(doc.model, 1)  # link and index outside the trace
        cap = 2000
        monkeypatch.setattr(behavior, "_CAP", cap)
        with tracing_memory():
            with pytest.raises(BoundTooLarge):
                enumerate_subdiagrams(doc.model, 8)
            peak = tracemalloc.get_traced_memory()[1]
        # About 220 bytes per held candidate, a sorted tuple of ranks; a
        # Subdiagram of two frozensets costs over 700.
        assert peak < 400 * cap, peak

    def test_index_bytes_grow_linearly_in_model_size(self):
        """The stage index holds about as many bytes per stage or arc
        (``tracemalloc``) on the static-large model at 960 units as at 120.
        An index of masks as wide as the model held 264 bytes per stage or
        arc at 120 units and 1 457 at 1 920."""
        gen = perfbench_gen()

        def per_element(units):
            held, elements = index_bytes(gen["static_large"](3, units).model)
            return held / elements

        at_120, at_960 = per_element(120), per_element(960)
        assert at_960 <= 1.5 * at_120, (at_120, at_960)


# ---------------------------------------------------------------------------
# Reference: the region link as it was before the stage index carried the
# boundary.  It keeps a stage -> region map keyed by StageRef, and scans
# every arc for the boundary edges and again for the initial events.

def reference_region_link(linked, regions):
    """The report, and the stage -> region map over the regions whose refs
    resolve."""
    report = ValidationReport()
    index = _stage_index(linked)
    arcs = {arc.id: arc for arc in linked.arcs()}
    unresolved = {arc.id: f"arc '{arc.id}': {exc}" for arc, exc in linked.unresolved}

    resolved = []
    region_ids = set()
    for region in regions:
        if region.id in region_ids:
            report.diagnostics.append(
                error("DUP_ID", f"duplicate region id '{region.id}'", region.span)
            )
            continue
        region_ids.add(region.id)
        body = set()
        ok = True
        for ref in sorted(region.body.stages, key=StageRef.sort_key):
            try:
                rank = index.rank.get(linked.normalize(ref))
            except ModelError as exc:
                why = str(exc)
            else:
                if rank is not None:
                    body.add(rank)
                    continue
                why = f"'{ref}' names a machine, not a stage"
            report.diagnostics.append(
                error("DANGLING_REF", f"region '{region.id}': {why}", region.span))
            ok = False
        for arc_id in sorted(region.body.arcs):
            if arc_id in index.arc_rank:
                body.add(index.arc_rank[arc_id])
                continue
            why = unresolved.get(arc_id, f"unknown arc '{arc_id}'")
            report.diagnostics.append(
                error("DANGLING_REF", f"region '{region.id}': {why}", region.span)
            )
            ok = False
        if ok:
            resolved.append((region, body))

    stage_map = {}
    for region, body in resolved:
        for arc_id in sorted(region.body.arcs):
            arc = arcs[arc_id]
            for ref in (arc.source, arc.target):
                if index.rank[ref] not in body:
                    report.diagnostics.append(
                        error(
                            "DANGLING_REF",
                            f"region '{region.id}': arc '{arc.id}' endpoint "
                            f"{ref} is outside the region's stages",
                            region.span,
                        )
                    )
        if not _connected(index, body):
            report.diagnostics.append(
                error("NOT_CONNECTED",
                      f"region '{region.id}' is not weakly connected", region.span)
            )
        for bit in (bit for bit in body if bit < len(index.stages)):
            stage_map[index.stages[bit]] = region.id

    holders = {}
    shared = {}
    for j, (_, body) in enumerate(resolved):
        for bit in sorted(body):
            for i in holders.setdefault(bit, []):
                shared.setdefault((i, j), []).append(bit)
            holders[bit].append(j)
    for (i, j), bits in sorted(shared.items()):
        what = ", ".join(index.name(bit) for bit in bits)
        report.diagnostics.append(
            error("OVERLAP", f"regions '{resolved[i][0].id}' and "
                             f"'{resolved[j][0].id}' overlap on {what}", resolved[j][0].span)
        )
    return report, stage_map


def reference_bound_regions(model, regions):
    """The linked model, the stage -> region map and the boundary edges
    (region order); RegionCheckFailed if the region set fails."""
    linked = link(model).require()
    report, stage_map = reference_region_link(linked, regions)
    if not report.ok:
        raise RegionCheckFailed(report)
    order = {region.id: i for i, region in enumerate(regions)}
    found = set()
    for arc in linked.arcs():
        src = stage_map.get(arc.source)
        tgt = stage_map.get(arc.target)
        if src is not None and tgt is not None and src != tgt:
            found.add((src, tgt))
    return linked, stage_map, sorted(found, key=lambda e: (order[e[0]], order[e[1]]))


def reference_infer(model, regions):
    linked, stage_map, edges = reference_bound_regions(model, regions)
    incoming_cross = {}
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


def reference_validate(model, regions, declared):
    """The report of ``validate_behavior`` on a graph of one interval-less
    event per region: an error per declared edge without a boundary edge,
    then a warning per boundary edge left undeclared."""
    _, _, edges = reference_bound_regions(model, regions)
    region_of = {event.id: event.region for event in declared.events}
    pairs = [(region_of[src], region_of[dst]) for src, dst in declared.edges]
    report = ValidationReport()
    for (src, dst), pair in zip(declared.edges, pairs):
        if pair not in edges:
            report.diagnostics.append(
                error("UNSUPPORTED_EDGE", f"edge {src} -> {dst} has no supporting boundary arc"))
    for a, b in sorted(set(edges) - set(pairs)):
        report.diagnostics.append(warning("MISSING_EDGE", f"inferred edge {a} -> {b} is not declared"))
    return report


def outcome(call, *args):
    """What ``call`` returns, or the report of its RegionCheckFailed."""
    try:
        return call(*args)
    except RegionCheckFailed as exc:
        return exc.report


@st.composite
def region_sets(draw, model):
    """One to three regions over ``model``'s stages and arcs (those its
    `=>` arcs expand to included), with refs by suffix or full path, and
    at times the first region's id again on the last.  Half the sets give
    each stage to one region or none, each region taking some
    arcs between its own stages (a region left without stages is
    dropped); the rest take any stages and arcs, and at times an arc id
    the model lacks."""
    stages, arcs = _oracle_parts(model)
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        owner = {ref: draw(st.sampled_from([None, *range(count)])) for ref in stages}
        parts = [([ref for ref in stages if owner[ref] == i],
                  [a for a, (s, t) in sorted(arcs.items())
                   if owner[s] == owner[t] == i and draw(st.booleans())])
                 for i in range(count)]
        parts = [part for part in parts if part[0]]
    else:
        arc_ids = sorted(arcs) + ["zz"]
        parts = [(draw(st.lists(st.sampled_from(stages), unique=True)) if stages else [],
                  draw(st.lists(st.sampled_from(arc_ids), unique=True)))
                 for _ in range(count)]
    ids = [f"r{i}" for i in range(len(parts))]
    if len(ids) > 1 and draw(st.integers(0, 3)) == 0:
        ids[-1] = ids[0]
    return [region(rid, [StageRef(draw(st.sampled_from([ref.machine, ref.machine[-1:]])),
                                  ref.kind) for ref in part_stages], part_arcs)
            for rid, (part_stages, part_arcs) in zip(ids, parts)]


class TestRegionLinkProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_models(), st.data())
    def test_check_infer_and_validate_match_the_reference(self, model, data):
        regions = data.draw(region_sets(model))
        expected_report, _ = reference_region_link(link(model), regions)
        assert check_regions(model, regions) == expected_report
        assert outcome(infer_behavior, model, regions) == outcome(reference_infer, model, regions)

        events = tuple(Event(f"e_{rid}", rid) for rid in dict.fromkeys(r.id for r in regions))
        pairs = [(a.id, b.id) for a in events for b in events if a is not b]
        edges = tuple(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        declared = BehaviorGraph(events, edges, tuple(event.id for event in events[:1]))
        assert outcome(validate_behavior, model, regions, declared) == outcome(
            reference_validate, model, regions, declared)


class TestRegionLinkWork:
    def test_a_linked_region_set_hashes_no_stage_ref(self, monkeypatch):
        gen = perfbench_gen()
        doc = parse(gen["static_large"](3, gen["STATIC_N"]).model)
        assert doc.behavior is not None
        hashed = []
        hash_ = StageRef.__hash__

        def counting_hash(self):
            hashed.append(1)
            return hash_(self)

        monkeypatch.setattr(StageRef, "__hash__", counting_hash)
        assert check_regions(doc.model, doc.regions).ok
        assert hashed
        del hashed[:]
        validate_behavior(doc.model, doc.regions, doc.behavior)
        assert hashed == []
        graph = infer_behavior(doc.model, doc.regions)
        del hashed[:]
        assert infer_behavior(doc.model, doc.regions) == graph
        assert hashed == []
        assert graph == reference_infer(doc.model, doc.regions)


class TestRegionSpans:
    TEXT = (
        CHAIN
        + "regions {\n"
        + "  region r1 { stages a.Create, a.Release\n arcs c1 }\n"
        + "  region r2 { stages a.Release }\n"
        + "  region r3 { stages a.Create\n arcs c2, zz }\n"
        + "}\n"
    )

    def test_each_region_diagnostic_points_at_its_region(self):
        doc = parse(self.TEXT)
        assert [str(d) for d in check_regions(doc.model, doc.regions).diagnostics] == [
            "9:10: error[DANGLING_REF]: region 'r3': unknown arc 'zz'",
            "8:10: error[OVERLAP]: regions 'r1' and 'r2' overlap on a.Release",
        ]
        regions = doc.regions[:1] + (replace(doc.regions[1], id="r1"),)
        assert [str(d) for d in check_regions(doc.model, regions).diagnostics] == [
            "8:10: error[DUP_ID]: duplicate region id 'r1'",
        ]
        empty = (replace(region("r", [], []), span=SourceSpan(9, 3)),)
        assert [str(d) for d in check_regions(doc.model, empty).diagnostics] == [
            "9:3: error[NOT_CONNECTED]: region 'r' is not weakly connected",
        ]

    def test_an_equal_region_set_gets_its_own_spans(self):
        model = parse(CHAIN).model
        body = region("r", [chain_ref("create")], ["zz"])
        here, there = (replace(body, span=SourceSpan(line, 1)) for line in (3, 8))
        assert here == there
        assert check_regions(model, [here]).diagnostics[0].span == SourceSpan(3, 1)
        assert check_regions(model, [there]).diagnostics[0].span == SourceSpan(8, 1)
        assert check_regions(model, [here]).diagnostics[0].span == SourceSpan(3, 1)
