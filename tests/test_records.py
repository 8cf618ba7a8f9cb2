"""The value records of ``tm check`` and ``tm simulate`` are built
without ``dataclasses`` but keep the dataclass behaviour of the
definitions they replaced.  Those definitions are kept below, under the
same names, as the reference: on generated field values each record
must match its reference in ``repr``, ``==``, ``hash``, ``fields``,
``replace``, ``asdict``, defaults and immutability."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmflow import behavior, diagnostics, exprs, model, parser
from tmflow.exprs import ExprTable
from tmflow.model import StageKind

simulate = importlib.import_module("tmflow.simulate")  # ``tmflow.simulate`` is the function

# ---------------------------------------------------------------------------
# The reference: the dataclass definitions, fields only.


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    span: SourceSpan | None = None


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class StageRef:
    machine: tuple[str, ...]
    kind: StageKind | None


@dataclass(frozen=True)
class Machine:
    id: str
    name: str | None = None
    stages: tuple[StageKind, ...] = ()
    submachines: tuple["Machine", ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FlowArc:
    id: str
    source: StageRef
    target: StageRef
    thing: str | None = None
    guard: str | None = None
    label: str | None = None
    auto_id: bool = field(default=False, compare=False)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TriggerArc:
    id: str
    source: StageRef
    target: StageRef
    guard: str | None = None
    label: str | None = None
    auto_id: bool = field(default=False, compare=False)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ThingDecl:
    name: str
    attributes: tuple[tuple[str, str], ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TMModel:
    machines: tuple[Machine, ...] = ()
    flows: tuple[FlowArc, ...] = ()
    triggers: tuple[TriggerArc, ...] = ()
    things: tuple[ThingDecl, ...] = ()
    _exprs: ExprTable = field(default_factory=ExprTable, compare=False, repr=False)


@dataclass(frozen=True)
class Subdiagram:
    stages: frozenset[StageRef]
    arcs: frozenset[str]


@dataclass(frozen=True)
class Region:
    id: str
    body: Subdiagram
    label: str = ""
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Interval:
    start: int
    duration: int


@dataclass(frozen=True)
class Event:
    id: str
    region: str
    interval: Interval | None = None


@dataclass(frozen=True)
class BehaviorGraph:
    events: tuple[Event, ...]
    edges: tuple[tuple[str, str], ...]
    initial: tuple[str, ...]


@dataclass
class Document:
    model: TMModel = field(default_factory=TMModel)
    regions: tuple[Region, ...] = ()
    behavior: BehaviorGraph | None = None


# The AST nodes of ``exprs``, which share the record base.

@dataclass(frozen=True)
class Lit:
    value: int | str


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Assign:
    name: str
    expr: object


# The ``simulate`` types.

@dataclass(frozen=True)
class TokenSeed:
    id: str
    thing: str
    at: StageRef
    attrs: dict = field(default_factory=dict)

    def __hash__(self):
        return hash((self.id, self.thing, self.at))


@dataclass
class Token:
    id: str
    thing: str
    attrs: dict
    at: StageRef | None
    arrived: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    policy: str = "deterministic"
    seed: int = 0
    max_steps: int = 100
    tokens: tuple = ()
    injections: tuple = ()
    mints: tuple = ()
    actions: tuple = ()
    stop: str | None = None
    _exprs: ExprTable = field(default_factory=ExprTable, compare=False, repr=False)


# It was declared with ``slots=True`` too, but under Python 3.11 such a
# dataclass raises TypeError, not FrozenInstanceError, on assignment to a
# name that is not a field.  Its slots are checked with the others'.
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
    records: tuple = ()
    final_tokens: tuple = ()
    meta: TraceMeta = simulate.TraceMeta()  # the default compared is the record's own


@dataclass(frozen=True)
class Occurrence:
    region: str
    interval: Interval


@dataclass(frozen=True)
class Segmentation:
    occurrences: tuple
    unattributed: tuple = ()


PAIRS = [(getattr(module, ref.__name__), ref) for module, refs in [
    (diagnostics, [SourceSpan, Diagnostic, ValidationReport]),
    (model, [StageRef, Machine, FlowArc, TriggerArc, ThingDecl, TMModel]),
    (behavior, [Subdiagram, Region, Interval, Event, BehaviorGraph]),
    (parser, [Document]),
    (exprs, [Lit, Name, BinOp, Cmp, Assign]),
    (simulate, [TokenSeed, Token, Scenario, TraceRecord, TraceMeta, Trace, Occurrence,
                Segmentation]),
] for ref in refs]
IDS = [ref.__name__ for _, ref in PAIRS]

# Field values: few, so that two drawn records are often equal, hashable,
# and nested records among them (a frozen set of them is deep-copied by
# ``asdict``).
LEAVES = st.sampled_from([
    None, 0, 1, True, "a", "b", (), ("a",), ("a", "b"), StageKind.CREATE,
    model.StageRef(("a",), StageKind.CREATE), diagnostics.SourceSpan(1, 2),
    frozenset({model.StageRef(("a", "b"), None)}), frozenset({"x"}),
])


def test_every_check_path_record_has_a_reference():
    assert len(PAIRS) == 15 + 5 + 8
    for new, _ in PAIRS:
        # Slotted: only the model keeps a ``__dict__``, for its cached linked form.
        assert ("__dict__" in vars(new)["__slots__"]) == (new is model.TMModel)


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_fields_and_params_are_the_references(new, ref):
    def described(cls):
        return [(f.name, f.default, f.compare, f.repr, f.init, f.hash, f.kw_only,
                 getattr(f.default_factory, "__name__", f.default_factory))
                for f in fields(cls)]

    assert dataclasses.is_dataclass(new) and described(new) == described(ref)
    assert repr(new.__dataclass_params__) == repr(ref.__dataclass_params__)
    assert new.__match_args__ == ref.__match_args__
    assert (new.__hash__ is None) == (ref.__hash__ is None)


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_behave_as_their_references(new, ref, data):
    names = [f.name for f in fields(ref)]
    frozen = ref.__dataclass_params__.frozen
    values_a = {name: data.draw(LEAVES, label=name) for name in names}
    values_b = {name: data.draw(st.sampled_from([values_a[name], None, 1]), label=name)
                for name in names}
    a, b, ref_a, ref_b = new(**values_a), new(**values_b), ref(**values_a), ref(**values_b)

    assert repr(a) == repr(ref_a) and repr(b) == repr(ref_b)
    assert (a == b, a != b) == (ref_a == ref_b, ref_a != ref_b)
    assert dataclasses.is_dataclass(a) and asdict(a) == asdict(ref_a)
    assert dataclasses.astuple(a) == dataclasses.astuple(ref_a)
    assert repr(copy.copy(a)) == repr(a) and copy.deepcopy(a) == a

    name = data.draw(st.sampled_from(names), label="replaced")
    value = data.draw(LEAVES, label="by")
    changed = replace(a, **{name: value})
    assert type(changed) is new and repr(changed) == repr(replace(ref_a, **{name: value}))
    assert (changed == a) == (replace(ref_a, **{name: value}) == ref_a)

    if frozen:
        assert hash(a) == hash(ref_a) and hash(b) == hash(ref_b)
        # A record and its reference twin: the same hash, never equal.
        assert a != ref_a and ref_a != a and len({a, ref_a}) == 2
        for act in (lambda r: setattr(r, name, value), lambda r: setattr(r, "other", 1),
                    lambda r: delattr(r, name)):
            with pytest.raises(FrozenInstanceError) as got:
                act(a)
            with pytest.raises(FrozenInstanceError) as want:
                act(ref_a)
            assert str(got.value) == str(want.value)
    else:
        for record in (a, ref_a):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(record)
        setattr(a, name, value)
        setattr(ref_a, name, value)
        assert repr(a) == repr(ref_a)


@pytest.mark.parametrize("new, ref", PAIRS, ids=IDS)
def test_defaults_are_the_references_and_factories_are_fresh(new, ref):
    required = {f.name: "r" for f in fields(ref)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    one, two, ref_one = new(**required), new(**required), ref(**required)
    assert repr(one) == repr(ref_one)
    for f in fields(ref):
        if f.default_factory is not dataclasses.MISSING:
            made, ref_made = getattr(one, f.name), getattr(ref_one, f.name)
            assert type(made).__name__ == type(ref_made).__name__
            assert made is not getattr(two, f.name)
            assert made is not f.default_factory  # a made object, not the factory


def test_a_new_stage_ref_sits_in_a_set_beside_its_reference_twin():
    ref = model.StageRef(("m", "n"), StageKind.RECEIVE)
    twin = StageRef(("m", "n"), StageKind.RECEIVE)
    assert hash(ref) == hash(twin) == hash((("m", "n"), StageKind.RECEIVE))
    mixed = {ref, twin, model.StageRef(("m", "n"), StageKind.RECEIVE)}
    assert len(mixed) == 2 and ref in mixed and twin in mixed
    assert {ref: 1}.get(model.StageRef(("m", "n"), StageKind.RECEIVE)) == 1
    assert {ref: 1}.get(twin) is None


def test_the_record_bases_are_not_dataclasses():
    for base in (diagnostics.Record, exprs._Node):
        assert not dataclasses.is_dataclass(base)


def test_the_model_keeps_its_linked_form_beside_its_slots():
    built = model.TMModel()
    assert model.link(built) is model.link(built)
    assert model.link(built).model == built and replace(built) == built
    assert "_linked" not in vars(replace(built))


def test_a_trace_record_is_the_tuple_of_its_fields():
    source, target = model.StageRef(("m",), StageKind.CREATE), model.StageRef(("m", "n"), None)
    values = (3, "f", "t", source, target)
    record = simulate.TraceRecord(*values)
    assert isinstance(record, tuple) and record == values and hash(record) == hash(values)
    assert tuple.__new__(simulate.TraceRecord, values) == record
    step, arc, token, _, _ = record
    assert (step, arc, token) == (3, "f", "t")
    assert record < simulate.TraceRecord(4, "a", "a", target, source)


def test_a_trace_record_survives_copy_and_pickle():
    source = model.StageRef(("m",), StageKind.CREATE)
    record = simulate.TraceRecord(3, "f", "t", source, model.StageRef(("m", "n"), None))
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is simulate.TraceRecord
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)
    assert copy.copy(record).source is source and copy.deepcopy(record).source is not source
