import pytest

from tmflow import (
    FlowArc,
    Machine,
    StageKind,
    StageNotDeclaredError,
    StageRef,
    TMModel,
    UnknownMachineError,
    desugar,
    flow_allowed,
    normalize_ref,
)

C, P, R, V, T = (
    StageKind.CREATE,
    StageKind.PROCESS,
    StageKind.RELEASE,
    StageKind.RECEIVE,
    StageKind.TRANSFER,
)


class TestFlowAdjacency:
    @pytest.mark.parametrize(
        "src,tgt",
        [(T, V), (V, P), (V, R), (C, P), (C, R), (P, R), (R, T)],
        ids=lambda kind: kind.value,
    )
    def test_legal_same_machine_pairs(self, src, tgt):
        assert flow_allowed(src, tgt, same_machine=True)

    def test_same_machine_pair_count_is_exactly_seven(self):
        legal = [
            (a, b)
            for a in StageKind
            for b in StageKind
            if flow_allowed(a, b, same_machine=True)
        ]
        assert len(legal) == 7

    def test_cross_machine_allows_only_transfer_to_transfer(self):
        legal = [
            (a, b)
            for a in StageKind
            for b in StageKind
            if flow_allowed(a, b, same_machine=False)
        ]
        assert legal == [(T, T)]

    def test_process_to_create_is_never_a_flow(self):
        assert not flow_allowed(P, C, same_machine=True)
        assert not flow_allowed(P, C, same_machine=False)


def nested_model() -> TMModel:
    inner = Machine("bait", stages=(C, R))
    outer = Machine("trap", stages=(C, P), submachines=(inner,))
    return TMModel(machines=(outer,))


class TestResolve:
    def test_suffix_path_resolves_to_full_path(self):
        model = nested_model()
        ref = normalize_ref(model, StageRef(("bait",), C))
        assert ref == StageRef(("trap", "bait"), C)

    def test_full_path_resolves(self):
        model = nested_model()
        ref = normalize_ref(model, StageRef(("trap", "bait"), R))
        assert ref.machine == ("trap", "bait")

    def test_unknown_machine_raises(self):
        with pytest.raises(UnknownMachineError):
            normalize_ref(nested_model(), StageRef(("nosuch",), C))

    def test_undeclared_stage_raises(self):
        with pytest.raises(StageNotDeclaredError):
            normalize_ref(nested_model(), StageRef(("bait",), T))

    def test_ambiguous_suffix_raises(self):
        twin_a = Machine("a", submachines=(Machine("x", stages=(C,)),))
        twin_b = Machine("b", submachines=(Machine("x", stages=(C,)),))
        model = TMModel(machines=(twin_a, twin_b))
        with pytest.raises(UnknownMachineError, match="ambiguous"):
            normalize_ref(model, StageRef(("x",), C))

    def test_empty_path_raises(self):
        with pytest.raises(UnknownMachineError):
            normalize_ref(nested_model(), StageRef((), C))

    def test_a_sugared_model_resolves_its_auto_declared_stages(self):
        a = Machine("a", stages=(C,))
        b = Machine("outer", submachines=(Machine("b", stages=(P,)),))
        route = FlowArc("route", StageRef(("a",), None), StageRef(("b",), None))
        model = TMModel(machines=(a, b), flows=(route,))
        assert normalize_ref(model, StageRef(("b",), V)) == StageRef(("outer", "b"), V)
        expanded_a, expanded_outer = desugar(model).machines
        assert expanded_a.stages == (C, R, T)
        assert expanded_outer.submachines[0].stages == (P, T, V)
        assert normalize_ref(model, StageRef(("a",), T)) == StageRef(("a",), T)
        assert normalize_ref(model, StageRef(("b",), T)) == StageRef(("outer", "b"), T)
        with pytest.raises(StageNotDeclaredError):
            normalize_ref(model, StageRef(("a",), P))


class TestDesugar:
    def sugared_model(self) -> TMModel:
        a = Machine("a", stages=(C,))
        b = Machine("b", stages=(P,))
        arc = FlowArc(
            "x",
            StageRef(("a",), None),
            StageRef(("b",), None),
            thing="t",
            guard=None,
            label="hop",
        )
        return TMModel(machines=(a, b), flows=(arc,))

    def test_expands_to_three_stage_level_arcs(self):
        model = desugar(self.sugared_model())
        ids = [arc.id for arc in model.flows]
        assert ids == ["x__rel", "x__x", "x__rcv"]
        chain = [(arc.source, arc.target) for arc in model.flows]
        assert chain == [
            (StageRef(("a",), R), StageRef(("a",), T)),
            (StageRef(("a",), T), StageRef(("b",), T)),
            (StageRef(("b",), T), StageRef(("b",), V)),
        ]

    def test_auto_declares_missing_stages(self):
        model = desugar(self.sugared_model())
        assert model.machines[0].stages == (C, R, T)
        assert model.machines[1].stages == (P, T, V)

    def test_label_and_thing_placement(self):
        model = desugar(self.sugared_model())
        rel, mid, rcv = model.flows
        assert all(arc.thing == "t" for arc in (rel, mid, rcv))
        assert mid.label == "hop"
        assert rel.label is None and rcv.label is None

    def test_unknown_sugared_end_raises(self):
        model = TMModel(machines=(Machine("a", stages=(C,)),), flows=(
            FlowArc("x", StageRef(("a",), None), StageRef(("ghost",), None)),))
        with pytest.raises(UnknownMachineError, match="^no machine matches path 'ghost'$"):
            desugar(model)

    def test_idempotent(self):
        once = desugar(self.sugared_model())
        assert desugar(once) == once

    def test_plain_model_unchanged(self):
        model = nested_model()
        assert desugar(model) == model

    def test_every_expanded_arc_is_adjacency_legal(self):
        model = desugar(self.sugared_model())
        for arc in model.flows:
            src = normalize_ref(model, arc.source)
            tgt = normalize_ref(model, arc.target)
            assert flow_allowed(src.kind, tgt.kind, src.machine == tgt.machine)


class TestModelAccessors:
    def test_walk_yields_full_paths(self):
        paths = [path for path, _ in nested_model().walk()]
        assert paths == [("trap",), ("trap", "bait")]

    def test_stage_instances_in_tree_order(self):
        refs = nested_model().stage_instances()
        assert refs == [
            StageRef(("trap",), C),
            StageRef(("trap",), P),
            StageRef(("trap", "bait"), C),
            StageRef(("trap", "bait"), R),
        ]

    def test_stage_ref_str(self):
        assert str(StageRef(("trap", "bait"), C)) == "trap.bait.Create"

    def test_equal_stage_refs_hash_equal_and_key_alike(self):
        """StageKind hashes by identity, which agrees with its equality:
        StageRefs built apart are equal, hash equal, and find each other
        as dict and frozenset keys."""
        assert StageKind.__hash__ is object.__hash__
        refs = [StageRef(("trap", "bait"), kind) for kind in (C, P, C)]
        twins = [StageRef(tuple(["trap", "bait"]), StageKind(kind.value)) for kind in (C, P, C)]
        for ref, twin in zip(refs, twins):
            assert ref == twin and hash(ref) == hash(twin)
        table = {ref: i for i, ref in enumerate(refs)}
        assert len(table) == 2 and table[twins[0]] == 2 and table[twins[1]] == 1
        assert frozenset(refs) == frozenset(twins) and len(frozenset(twins)) == 2
        assert twins[1] in frozenset(refs) and StageRef(("trap",), C) not in frozenset(refs)
        assert {StageRef(("m",), None): 1}[StageRef(("m",), None)] == 1
