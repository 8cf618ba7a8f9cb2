"""In-memory representation of a static flow-machine model.

A model is a tree of machines, each declaring up to five stages
(Create, Process, Release, Receive, Transfer), connected by solid flow
arcs and dashed trigger arcs.  Thing declarations name the token types
that move along the flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterator

from .diagnostics import SourceSpan
from .exprs import ExprTable


class StageKind(Enum):
    CREATE = "Create"
    PROCESS = "Process"
    RELEASE = "Release"
    RECEIVE = "Receive"
    TRANSFER = "Transfer"

    @classmethod
    def from_name(cls, name: str) -> "StageKind | None":
        return _STAGE_KINDS.get(name)

    def __str__(self) -> str:
        return self.value


_STAGE_KINDS = {kind.value: kind for kind in StageKind}

# Legal (source kind, target kind) pairs for solid flow arcs.
SAME_MACHINE_FLOWS = frozenset(
    {
        (StageKind.TRANSFER, StageKind.RECEIVE),
        (StageKind.RECEIVE, StageKind.PROCESS),
        (StageKind.RECEIVE, StageKind.RELEASE),
        (StageKind.CREATE, StageKind.PROCESS),
        (StageKind.CREATE, StageKind.RELEASE),
        (StageKind.PROCESS, StageKind.RELEASE),
        (StageKind.RELEASE, StageKind.TRANSFER),
    }
)
CROSS_MACHINE_FLOWS = frozenset({(StageKind.TRANSFER, StageKind.TRANSFER)})


def flow_allowed(source: StageKind, target: StageKind, same_machine: bool) -> bool:
    table = SAME_MACHINE_FLOWS if same_machine else CROSS_MACHINE_FLOWS
    return (source, target) in table


class ModelError(Exception):
    pass


class UnknownMachineError(ModelError):
    pass


class StageNotDeclaredError(ModelError):
    pass


@dataclass(frozen=True)
class StageRef:
    """Address of one stage instance: a machine path plus a stage kind.

    The path may be any unambiguous suffix of the machine's full path
    from the root (machine ids are unique model-wide, so the last
    component alone is enough).  ``kind`` is None only on the endpoints
    of sugared machine-to-machine arcs.
    """

    machine: tuple[str, ...]
    kind: StageKind | None

    def __str__(self) -> str:
        path = ".".join(self.machine)
        return path if self.kind is None else f"{path}.{self.kind.value}"

    def sort_key(self) -> tuple:
        return (self.machine, self.kind.value if self.kind else "")


@dataclass(frozen=True)
class Machine:
    """A machine: its stages and nested submachines."""

    id: str
    name: str | None = None
    stages: tuple[StageKind, ...] = ()
    submachines: tuple["Machine", ...] = ()
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FlowArc:
    """A solid arc: a thing flowing from one stage to another."""

    id: str
    source: StageRef
    target: StageRef
    thing: str | None = None
    guard: str | None = None
    label: str | None = None
    auto_id: bool = field(default=False, compare=False)
    span: SourceSpan | None = field(default=None, compare=False)

    @property
    def sugared(self) -> bool:
        return self.source.kind is None or self.target.kind is None


@dataclass(frozen=True)
class TriggerArc:
    """A dashed arc: a stage triggering another stage."""

    id: str
    source: StageRef
    target: StageRef
    guard: str | None = None
    label: str | None = None
    auto_id: bool = field(default=False, compare=False)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ThingDecl:
    """A declared thing and its typed attributes."""

    name: str
    attributes: tuple[tuple[str, str], ...] = ()  # (name, "int" | "text")
    span: SourceSpan | None = field(default=None, compare=False)

    def attribute_names(self) -> set[str]:
        return {name for name, _ in self.attributes}


@dataclass(frozen=True)
class TMModel:
    """A static model: machines, flow and trigger arcs, and things."""

    machines: tuple[Machine, ...] = ()
    flows: tuple[FlowArc, ...] = ()
    triggers: tuple[TriggerArc, ...] = ()
    things: tuple[ThingDecl, ...] = ()
    # The parsed guards, by ("guard", text): filled by the parser, and
    # parsed on first use for a model built by hand.
    _exprs: ExprTable = field(default_factory=ExprTable, compare=False, repr=False)
    _linked = cached_property(lambda self: Linked(self))  # see ``link``

    def walk(self) -> Iterator[tuple[tuple[str, ...], Machine]]:
        """Depth-first traversal yielding (full path, machine)."""

        def visit(machine: Machine, prefix: tuple[str, ...]):
            path = prefix + (machine.id,)
            yield path, machine
            for sub in machine.submachines:
                yield from visit(sub, path)

        for root in self.machines:
            yield from visit(root, ())

    def arcs(self) -> Iterator[FlowArc | TriggerArc]:
        yield from self.flows
        yield from self.triggers

    def thing_by_name(self, name: str) -> ThingDecl | None:
        for thing in self.things:
            if thing.name == name:
                return thing
        return None

    def stage_instances(self) -> list[StageRef]:
        """Every declared stage, as a fully-qualified StageRef, in tree order."""
        refs = []
        for path, machine in self.walk():
            for kind in machine.stages:
                refs.append(StageRef(path, kind))
        return refs


# Machine id -> (full path, machine) for every machine with that id.
_SuffixIndex = dict[str, list[tuple[tuple[str, ...], Machine]]]


def _suffix_index(model: TMModel) -> _SuffixIndex:
    index: _SuffixIndex = {}
    for path, machine in model.walk():
        index.setdefault(machine.id, []).append((path, machine))
    return index


def _lookup(
    index: _SuffixIndex, ref: StageRef
) -> tuple[tuple[str, ...], Machine, StageKind | None]:
    if not ref.machine:
        raise UnknownMachineError("empty machine path")
    matches = [
        (path, machine)
        for path, machine in index.get(ref.machine[-1], ())
        if path[-len(ref.machine):] == ref.machine
    ]
    if not matches:
        raise UnknownMachineError(f"no machine matches path '{'.'.join(ref.machine)}'")
    if len(matches) > 1:
        raise UnknownMachineError(
            f"machine path '{'.'.join(ref.machine)}' is ambiguous"
        )
    path, machine = matches[0]
    if ref.kind is not None and ref.kind not in machine.stages:
        raise StageNotDeclaredError(
            f"machine '{machine.id}' does not declare a {ref.kind.value} stage"
        )
    return path, machine, ref.kind


def resolve(model: TMModel, ref: StageRef) -> tuple[tuple[str, ...], Machine, StageKind | None]:
    """Resolve a (possibly suffix-addressed) StageRef against the model.

    Returns the machine's full path, the machine, and the stage kind.
    Raises UnknownMachineError if no machine path ends with the given
    path, StageNotDeclaredError if the machine does not declare the kind.
    """
    return _lookup(_suffix_index(model), ref)


def normalize_ref(model: TMModel, ref: StageRef) -> StageRef:
    """Rewrite a StageRef to use the machine's full path from the root."""
    path, _, kind = resolve(model, ref)
    return StageRef(path, kind)


# Stages auto-declared while expanding a sugared arc, in the order they
# are appended to the owning machine's stage list.
_SUGAR_SOURCE_STAGES = (StageKind.RELEASE, StageKind.TRANSFER)
_SUGAR_TARGET_STAGES = (StageKind.TRANSFER, StageKind.RECEIVE)


def desugar(model: TMModel) -> TMModel:
    """Expand machine-to-machine arcs into explicit stage-level flows.

    A sugared arc A => B becomes the chain
    A.Release -> A.Transfer -> B.Transfer -> B.Receive, auto-declaring
    the four stages when absent.  Idempotent: a model without sugared
    arcs is returned unchanged (structurally equal).
    """
    if not any(arc.sugared for arc in model.flows):
        return model
    linked = link(model)
    if linked.unresolved and linked.unresolved[0][0].sugared:
        raise linked.unresolved[0][1]
    return linked.model


def _desugar(model: TMModel, index: _SuffixIndex, unresolved: list) -> TMModel:
    needed: dict[tuple[str, ...], list[StageKind]] = {}

    def add_stages(path: tuple[str, ...], machine: Machine, kinds: tuple[StageKind, ...]):
        pending = needed.setdefault(path, [])
        for kind in kinds:
            if kind not in machine.stages and kind not in pending:
                pending.append(kind)

    flows: list[FlowArc] = []
    for arc in model.flows:
        if not arc.sugared:
            flows.append(arc)
            continue
        try:
            src_path, src_machine, _ = _lookup(index, arc.source)
            tgt_path, tgt_machine, _ = _lookup(index, arc.target)
        except ModelError as exc:
            unresolved.append((arc, exc))
            continue
        add_stages(src_path, src_machine, _SUGAR_SOURCE_STAGES)
        add_stages(tgt_path, tgt_machine, _SUGAR_TARGET_STAGES)
        rel = StageRef(arc.source.machine, StageKind.RELEASE)
        src_tx = StageRef(arc.source.machine, StageKind.TRANSFER)
        tgt_tx = StageRef(arc.target.machine, StageKind.TRANSFER)
        rcv = StageRef(arc.target.machine, StageKind.RECEIVE)
        flows += [
            FlowArc(f"{arc.id}__rel", rel, src_tx, thing=arc.thing, span=arc.span),
            replace(arc, id=f"{arc.id}__x", source=src_tx, target=tgt_tx, auto_id=False),
            FlowArc(f"{arc.id}__rcv", tgt_tx, rcv, thing=arc.thing, span=arc.span),
        ]

    def rebuild(machine: Machine, prefix: tuple[str, ...]) -> Machine:
        path = prefix + (machine.id,)
        extra = tuple(needed.get(path, ()))
        subs = tuple(rebuild(sub, path) for sub in machine.submachines)
        if not extra and subs == machine.submachines:
            return machine
        return replace(machine, stages=machine.stages + extra, submachines=subs)

    machines = tuple(rebuild(root, ()) for root in model.machines)
    return replace(model, machines=machines, flows=tuple(flows))


def link(model: TMModel) -> "Linked":
    """The one ``Linked`` of ``model``, built on first use."""
    return model._linked


class Linked:
    """A model linked once for analysis: ``model`` with its sugared arcs
    expanded, and ``flows``/``triggers`` rewritten to full-path refs
    through one suffix index.  ``link`` builds one per model and keeps it
    on the model, which is frozen, so it stays valid while the model lives.
    Arcs that do not resolve are left out and kept with their error in
    ``unresolved`` (sugared arcs, then flows, then triggers); ``validate``
    and ``check_regions`` report them, every other analysis calls
    ``require``.  ``model`` shares the original's parsed guards
    (``_exprs``), and ``region_link`` keeps the last region set checked
    against the model."""

    def __init__(self, model: TMModel):
        index = _suffix_index(model)
        self.unresolved: list[tuple[FlowArc | TriggerArc, ModelError]] = []
        if any(arc.sugared for arc in model.flows):
            model = _desugar(model, index, self.unresolved)
            index = _suffix_index(model)  # desugaring declared new stages
        else:
            model = replace(model)  # a copy: the model holds this, so no cycle
        self.model = model
        self._index = index
        self.flows: tuple[FlowArc, ...] = self._link(model.flows)
        self.triggers: tuple[TriggerArc, ...] = self._link(model.triggers)
        self.region_link: tuple | None = None  # see behavior._linked_regions

    def require(self) -> "Linked":
        """This linked form; raises the first unresolved arc's ModelError."""
        if self.unresolved:
            raise self.unresolved[0][1]
        return self

    def normalize(self, ref: StageRef) -> StageRef:
        """The full-path form of ``ref``; raises ModelError if it does not resolve."""
        path, _, kind = _lookup(self._index, ref)
        return StageRef(path, kind)

    def arcs(self) -> Iterator[FlowArc | TriggerArc]:
        yield from self.flows
        yield from self.triggers

    def _link(self, arcs):
        linked = []
        for arc in arcs:
            try:
                source = self.normalize(arc.source)
                target = self.normalize(arc.target)
            except ModelError as exc:
                self.unresolved.append((arc, exc))
                continue
            linked.append(replace(arc, source=source, target=target))
        return tuple(linked)
