"""In-memory representation of a static flow-machine model.

A model is a tree of machines, each declaring up to five stages
(Create, Process, Release, Receive, Transfer), connected by solid flow
arcs and dashed trigger arcs.  Thing declarations name the token types
that move along the flows.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple

from .diagnostics import Fresh, Record, SourceSpan, _setattr
from .exprs import ExprTable


class StageKind(Enum):
    CREATE = "Create"
    PROCESS = "Process"
    RELEASE = "Release"
    RECEIVE = "Receive"
    TRANSFER = "Transfer"

    # Members are singletons that compare by identity, so the C-level
    # identity hash agrees with equality; a StageRef hash then needs no
    # Python-level call.
    __hash__ = object.__hash__


_STAGE_KINDS = {kind.value: kind for kind in StageKind}

# Legal (source kind, target kind) pairs for solid flow arcs.
_SAME_MACHINE_FLOWS = frozenset(
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
_CROSS_MACHINE_FLOWS = frozenset({(StageKind.TRANSFER, StageKind.TRANSFER)})


def flow_allowed(source: StageKind, target: StageKind, same_machine: bool) -> bool:
    table = _SAME_MACHINE_FLOWS if same_machine else _CROSS_MACHINE_FLOWS
    return (source, target) in table


class ModelError(Exception):
    pass


class UnknownMachineError(ModelError):
    pass


class StageNotDeclaredError(ModelError):
    pass


class StageRef(NamedTuple):
    """Address of one stage instance: a machine path plus a stage kind.

    The path may be any unambiguous suffix of the machine's full path
    from the root (machine ids are unique model-wide, so the last
    component alone is enough).  ``kind`` is None only on the endpoints
    of sugared machine-to-machine arcs.

    A named tuple, as ``simulate.TraceRecord`` is: stage refs are the
    keys of every stage map, and a tuple is built, hashed and compared in
    C.  It keeps a record's ``repr`` and ``dataclasses`` view, so that
    ``dataclasses.replace`` takes it and ``pprint`` prints it; as a tuple
    it also unpacks into its two fields, compares equal to the plain
    tuple of them, and raises ``AttributeError`` on assignment.  Two refs
    of one machine do not order, as ``StageKind`` does not.
    """

    machine: tuple[str, ...]
    kind: StageKind | None

    __dataclass_fields__ = vars(Record)["__dataclass_fields__"]
    __dataclass_params__ = vars(Record)["__dataclass_params__"]

    def __str__(self) -> str:
        path = ".".join(self.machine)
        return path if self.kind is None else f"{path}.{self.kind.value}"

    def sort_key(self) -> tuple:
        return (self.machine, self.kind.value if self.kind else "")


class Machine(Record, uncompared=("span",)):
    """A machine: its stages and nested submachines."""

    def __init__(self, id: str, name: str | None = None, stages: tuple[StageKind, ...] = (),
                 submachines: tuple[Machine, ...] = (), span: SourceSpan | None = None):
        _setattr(self, "id", id)
        _setattr(self, "name", name)
        _setattr(self, "stages", stages)
        _setattr(self, "submachines", submachines)
        _setattr(self, "span", span)


class FlowArc(Record, uncompared=("auto_id", "span")):
    """A solid arc: a thing flowing from one stage to another."""

    def __init__(self, id: str, source: StageRef, target: StageRef, thing: str | None = None,
                 guard: str | None = None, label: str | None = None, auto_id: bool = False,
                 span: SourceSpan | None = None):
        _setattr(self, "id", id)
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "thing", thing)
        _setattr(self, "guard", guard)
        _setattr(self, "label", label)
        _setattr(self, "auto_id", auto_id)
        _setattr(self, "span", span)

    @property
    def sugared(self) -> bool:
        return self.source.kind is None or self.target.kind is None

    def with_ends(self, source: StageRef, target: StageRef) -> FlowArc:
        """This arc, between ``source`` and ``target``."""
        return FlowArc(self.id, source, target, self.thing, self.guard, self.label,
                       self.auto_id, self.span)


class TriggerArc(Record, uncompared=("auto_id", "span")):
    """A dashed arc: a stage triggering another stage."""

    def __init__(self, id: str, source: StageRef, target: StageRef, guard: str | None = None,
                 label: str | None = None, auto_id: bool = False,
                 span: SourceSpan | None = None):
        _setattr(self, "id", id)
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "guard", guard)
        _setattr(self, "label", label)
        _setattr(self, "auto_id", auto_id)
        _setattr(self, "span", span)

    def with_ends(self, source: StageRef, target: StageRef) -> TriggerArc:
        """This arc, between ``source`` and ``target``."""
        return TriggerArc(self.id, source, target, self.guard, self.label, self.auto_id,
                          self.span)


class ThingDecl(Record, uncompared=("span",)):
    """A declared thing and its typed attributes."""

    def __init__(self, name: str, attributes: tuple[tuple[str, str], ...] = (),
                 span: SourceSpan | None = None):
        _setattr(self, "name", name)
        _setattr(self, "attributes", attributes)  # (name, "int" | "text")
        _setattr(self, "span", span)


class TMModel(Record, uncompared=("_exprs",), unshown=("_exprs",)):
    """A static model: machines, flow and trigger arcs, and things."""

    __slots__ = ("__dict__",)  # holds the cached ``_linked``, beside the field slots

    def __init__(self, machines: tuple[Machine, ...] = (), flows: tuple[FlowArc, ...] = (),
                 triggers: tuple[TriggerArc, ...] = (), things: tuple[ThingDecl, ...] = (),
                 _exprs: ExprTable = Fresh(ExprTable)):
        _setattr(self, "machines", machines)
        _setattr(self, "flows", flows)
        _setattr(self, "triggers", triggers)
        _setattr(self, "things", things)
        # The parsed guards, by ("guard", text): filled by the parser, and
        # parsed on first use for a model built by hand.
        _setattr(self, "_exprs", _exprs.make() if isinstance(_exprs, Fresh) else _exprs)

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

    def stage_instances(self) -> list[StageRef]:
        """Every declared stage, as a fully-qualified StageRef, in tree order."""
        refs = []
        for path, machine in self.walk():
            for kind in machine.stages:
                refs.append(StageRef(path, kind))
        return refs


def _lookup(machines: list[tuple[tuple[str, ...], Machine]], index: dict[str, list[int]],
            ref: StageRef) -> tuple[str, ...]:
    """The full path of the one machine of ``machines`` whose path ends
    with ``ref.machine``; ``index`` maps a machine id to its places there."""
    if not ref.machine:
        raise UnknownMachineError("empty machine path")
    matches = [machines[place] for place in index.get(ref.machine[-1], ())
               if machines[place][0][-len(ref.machine):] == ref.machine]
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
    return path


def normalize_ref(model: TMModel, ref: StageRef) -> StageRef:
    """Rewrite a StageRef to use the machine's full path from the root."""
    return link(model).normalize(ref)


def desugar(model: TMModel) -> TMModel:
    """Expand machine-to-machine arcs into explicit stage-level flows.

    A sugared arc A => B becomes the chain
    A.Release -> A.Transfer -> B.Transfer -> B.Receive, auto-declaring
    the four stages when absent.  Built from the link's ``roots`` and
    ``expanded``; raises the first unresolved sugared arc's ModelError.
    Idempotent: a model without sugared arcs is returned unchanged.
    """
    linked = link(model)
    if linked.expanded is None:
        return model
    if linked.unresolved and linked.unresolved[0][0].sugared:
        raise linked.unresolved[0][1]
    return TMModel(linked.roots, linked.expanded, model.triggers, model.things, model._exprs)


def link(model: TMModel) -> "Linked":
    """The one ``Linked`` of ``model``, built on first use."""
    return model._linked


class Linked:
    """A model linked once for analysis: ``roots``, its top-level machines
    rebuilt where desugaring declared stages, and ``expanded``, its flows
    with each sugared arc expanded (``None`` if it has none), from which
    ``desugar`` builds its model; ``flows``/``triggers`` rewritten to
    full-path refs.  ``link`` builds one per model and keeps it on the
    model, which is frozen, so it stays valid while the model lives.  Only
    it walks the machine tree, once: ``machines`` holds the expanded
    tree's (full path, machine) pairs in tree order, and ``stages`` (built
    on first read) its declared stages as full-path refs.  ``normalize``
    resolves each distinct reference once, through an index of machine ids
    into ``machines``, and keeps its full-path form, keyed by value; every
    arc end, region and scenario stage goes through ``stage``, which also
    refuses a machine.  Arcs that do not resolve are left out and kept
    with their error in ``unresolved`` (sugared arcs, then flows, then
    triggers); ``validate`` and ``check_regions`` report them, every other
    analysis calls ``require``.  ``stage_index`` ranks the stages and arcs."""

    def __init__(self, model: TMModel):
        self.machines = list(model.walk())
        self._index: dict[str, list[int]] = {}  # machine id -> places in ``machines``
        for place, (_, machine) in enumerate(self.machines):
            self._index.setdefault(machine.id, []).append(place)
        self._resolved: dict[StageRef, StageRef] = {}  # see ``normalize``
        self.unresolved: list[tuple[FlowArc | TriggerArc, ModelError]] = []
        self.roots: tuple[Machine, ...] = model.machines
        self.expanded: tuple[FlowArc, ...] | None = None
        flows = model.flows
        if any(arc.sugared for arc in flows):
            flows = self.expanded = self._desugar(flows)
        self.flows: tuple[FlowArc, ...] = self._link(flows)
        self.triggers: tuple[TriggerArc, ...] = self._link(model.triggers)
        self.stage_index = None  # see behavior._stage_index

    def _desugar(self, arcs: tuple[FlowArc, ...]) -> tuple[FlowArc, ...]:
        """``arcs`` with each sugared arc expanded, its ends resolved by
        ``normalize``.  The machines that gain stages, and their ancestors,
        are rebuilt into ``roots`` and in place in ``machines``: desugaring
        declares no machine, so every place there holds."""
        needed: dict[tuple[str, ...], list[StageKind]] = {}
        flows: list[FlowArc] = []
        for arc in arcs:
            if not arc.sugared:
                flows.append(arc)
                continue
            try:
                if arc.source.kind or arc.target.kind:
                    raise ModelError("'=>' joins two machines, not a machine and a stage")
                source = self.normalize(arc.source).machine
                target = self.normalize(arc.target).machine
            except ModelError as exc:
                self.unresolved.append((arc, exc))
                continue
            # Declared where missing, in this order, after the machine's own.
            needed.setdefault(source, []).extend((StageKind.RELEASE, StageKind.TRANSFER))
            needed.setdefault(target, []).extend((StageKind.TRANSFER, StageKind.RECEIVE))
            rel = StageRef(arc.source.machine, StageKind.RELEASE)
            src_tx = StageRef(arc.source.machine, StageKind.TRANSFER)
            tgt_tx = StageRef(arc.target.machine, StageKind.TRANSFER)
            rcv = StageRef(arc.target.machine, StageKind.RECEIVE)
            flows += [
                FlowArc(f"{arc.id}__rel", rel, src_tx, thing=arc.thing, span=arc.span),
                FlowArc(f"{arc.id}__x", src_tx, tgt_tx, arc.thing, arc.guard, arc.label,
                        span=arc.span),
                FlowArc(f"{arc.id}__rcv", tgt_tx, rcv, thing=arc.thing, span=arc.span),
            ]

        places = iter(range(len(self.machines)))

        def rebuild(machine: Machine) -> Machine:
            place = next(places)  # tree order, as ``walk``
            path = self.machines[place][0]
            subs = tuple(map(rebuild, machine.submachines))
            extra = tuple(kind for kind in dict.fromkeys(needed.get(path, ()))
                          if kind not in machine.stages)
            if extra or any(new is not old for new, old in zip(subs, machine.submachines)):
                machine = Machine(machine.id, machine.name, machine.stages + extra, subs,
                                  machine.span)
                self.machines[place] = (path, machine)
            return machine

        self.roots = tuple(map(rebuild, self.roots))
        return tuple(flows)

    @cached_property
    def stages(self) -> list[StageRef]:
        return [StageRef(path, kind) for path, machine in self.machines
                for kind in machine.stages]

    def require(self) -> "Linked":
        """This linked form; raises the first unresolved arc's ModelError."""
        if self.unresolved:
            raise self.unresolved[0][1]
        return self

    def normalize(self, ref: StageRef) -> StageRef:
        """The full-path form of ``ref`` (``ref``, or the first ref equal to
        it, if it has the full path); raises ModelError if it does not
        resolve.  Each distinct ref is looked up once; one that does not
        resolve is not kept, so it raises again on every call."""
        full = self._resolved.get(ref)
        if full is None:
            path = _lookup(self.machines, self._index, ref)
            full = ref if len(path) == len(ref.machine) else StageRef(path, ref.kind)
            self._resolved[ref] = full
        return full

    def stage(self, ref: StageRef) -> StageRef:
        """``normalize(ref)``; raises ModelError also if it names a machine."""
        full = self.normalize(ref)
        if full.kind is None:
            raise ModelError(f"'{ref}' names a machine, not a stage")
        return full

    def arcs(self) -> Iterator[FlowArc | TriggerArc]:
        yield from self.flows
        yield from self.triggers

    def _link(self, arcs):
        linked = []
        for arc in arcs:
            try:
                source = self.stage(arc.source)
                target = self.stage(arc.target)
            except ModelError as exc:
                self.unresolved.append((arc, exc))
                continue
            if source is arc.source and target is arc.target:
                linked.append(arc)
            else:
                linked.append(arc.with_ends(source, target))
        return tuple(linked)
