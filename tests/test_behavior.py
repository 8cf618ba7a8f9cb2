import itertools

import pytest

from tmflow import (
    BehaviorGraph,
    BoundTooLarge,
    Event,
    Interval,
    NoInitialEvents,
    Region,
    RegionCheckFailed,
    StageRef,
    Subdiagram,
    check_regions,
    chronologies,
    desugar,
    enumerate_subdiagrams,
    infer_behavior,
    normalize_ref,
    parse_model,
    validate_behavior,
)

from conftest import corpus_doc


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
        model = parse_model(CHAIN)
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
        model = parse_model(CHAIN)
        regions = [
            region("r1", [chain_ref("create"), chain_ref("release")], ["c1"]),
            region("r2", [chain_ref("transfer")], []),
            region("r3", [chain_ref("transfer")], []),
        ]
        report = check_regions(model, regions)
        assert {d.code for d in report.errors} == {"OVERLAP"}

    def test_overlaps_listed_by_region_pair(self):
        model = parse_model(CHAIN)
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
        model = parse_model(CHAIN)
        report = check_regions(
            model, [region("r", [chain_ref("create"), chain_ref("transfer")], [])]
        )
        assert report.ok

    def test_dangling_stage_ref(self):
        model = parse_model(CHAIN)
        report = check_regions(
            model, [region("r", [StageRef(("ghost",), None)], [])]
        )
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_dangling_arc_id(self):
        model = parse_model(CHAIN)
        report = check_regions(
            model, [region("r", [chain_ref("create")], ["nope"])]
        )
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_arc_endpoint_outside_region(self):
        model = parse_model(CHAIN)
        report = check_regions(model, [region("r", [chain_ref("create")], ["c1"])])
        assert "DANGLING_REF" in {d.code for d in report.errors}

    def test_infer_raises_on_bad_regions(self):
        model = parse_model(CHAIN)
        regions = [
            region("r1", [chain_ref("create"), chain_ref("release")], ["c1"]),
            region("r2", [chain_ref("release"), chain_ref("transfer")], ["c2"]),
        ]
        with pytest.raises(RegionCheckFailed) as exc:
            infer_behavior(model, regions)
        assert "OVERLAP" in {d.code for d in exc.value.report.errors}


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
        assert graph.vertices == tuple(r.id for r in stack.regions)

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
        assert "INTERVAL_ORDER" not in report.codes()
        assert [d.code for d in report.warnings] == ["MISSING_EDGE"]

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
        assert "MISSING_EDGE" in {d.code for d in report.warnings}

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


class TestChronologies:
    def test_three_branches_of_length_two(self, multiple_behaviors):
        graph = infer_behavior(
            multiple_behaviors.model, multiple_behaviors.regions
        )
        assert chronologies(graph, 2) == [
            ["E1", "E2"], ["E1", "E3"], ["E1", "E4"]
        ]

    def test_cycle_truncates_at_bound(self, formula):
        graph = infer_behavior(formula.model, formula.regions)
        walks = chronologies(graph, 4)
        assert ["add", "bump", "add", "bump"] in walks
        assert ["add", "bump", "emit"] in walks
        assert all(len(w) <= 4 for w in walks)

    def test_walks_are_maximal(self, mousetrap):
        graph = infer_behavior(mousetrap.model, mousetrap.regions)
        assert chronologies(graph, 10) == [["a", "b", "c", "d"]]
        assert chronologies(graph, 2) == [["a", "b"]]

    def test_no_initial_raises(self):
        graph = BehaviorGraph(
            events=(Event("e", "r"),), edges=(), initial=()
        )
        with pytest.raises(NoInitialEvents):
            chronologies(graph, 3)

    def test_empty_graph_is_fine(self):
        assert chronologies(BehaviorGraph((), (), ()), 3) == []


def brute_force_subdiagrams(model, bound):
    """Independent oracle: filter the full powerset of (stages, arcs)."""
    model = desugar(model)
    stages = model.stage_instances()
    arcs = {
        arc.id: (normalize_ref(model, arc.source),
                 normalize_ref(model, arc.target))
        for arc in model.arcs()
    }
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
    return sorted(found, key=Subdiagram.sort_key)


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
        model = parse_model(CHAIN)
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
        model = parse_model(CHAIN)
        subs = enumerate_subdiagrams(model, 2)
        assert all(sub.size <= 2 for sub in subs)
        assert enumerate_subdiagrams(model, 2) == brute_force_subdiagrams(model, 2)

    def test_zero_bound_is_empty(self):
        assert enumerate_subdiagrams(parse_model(CHAIN), 0) == []

    def test_cap_raises(self, stack):
        with pytest.raises(BoundTooLarge):
            enumerate_subdiagrams(stack.model, 40, cap=100)

    def test_deterministic_order(self, paint_dry):
        first = enumerate_subdiagrams(paint_dry.model, 6)
        second = enumerate_subdiagrams(paint_dry.model, 6)
        assert first == second
        sizes = [sub.size for sub in first]
        assert sizes == sorted(sizes)
