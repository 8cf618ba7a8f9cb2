"""Source locations, diagnostics, and validation reports shared across the toolkit.

Also the base of the package's value records, ``Record``: this module
is the one every other imports first.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__  # sets a field of a frozen record in ``__init__``


class Fresh:
    """A default made anew for each record, as ``field(default_factory=make)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:  # as a dataclass shows a factory in a signature
        return "<factory>"


def _key_getter(names: tuple[str, ...]):
    """The function that gives the tuple of a record's ``names`` fields."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return attrgetter(*names)


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record
    class, so that ``dataclasses.fields``, ``replace``, ``asdict`` and
    ``is_dataclass`` take records, and ``pprint``, which reads
    ``__dataclass_params__.repr`` of any dataclass wider than its line,
    prints them.  Read from a dataclass with the same fields, defaults
    and flags, made on first use and kept on the class; only a caller
    that has imported ``dataclasses`` reads it.  A ``NamedTuple`` class
    that holds these views is read as a frozen dataclass of its fields,
    each compared and shown."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, record, cls):
        if not cls._fields:  # Record and the abstract bases: no dataclass
            raise AttributeError(self.name)
        shadow = cls.__dict__.get("_shadow")
        if shadow is None:
            from dataclasses import field, make_dataclass

            if issubclass(cls, tuple):
                defaults, types = cls._field_defaults, cls.__annotations__
                compared = shown = cls._fields
                frozen = True
            else:
                init = cls.__init__
                defaults = dict(zip(reversed(cls._fields), reversed(init.__defaults__ or ())))
                types = init.__annotations__
                compared, shown = cls._compared, cls._shown
                frozen = cls.__setattr__ is not object.__setattr__
            specs = []
            for name in cls._fields:
                flags = {"compare": name in compared, "repr": name in shown}
                if name not in defaults:
                    spec = field(**flags)
                elif isinstance(defaults[name], Fresh):
                    spec = field(default_factory=defaults[name].make, **flags)
                else:
                    spec = field(default=defaults[name], **flags)
                specs.append((name, types.get(name, "object"), spec))
            shadow = make_dataclass(cls.__name__, specs, frozen=frozen)
            cls._shadow = shadow
        return getattr(shadow, self.name)


class _RecordType(type):
    """The class of every record.  From the parameters of a class's own
    ``__init__`` and from its class keywords, it sets the record's fields,
    a slot for each (ahead of any slot the body lists), and what ``==``,
    ``hash`` and ``repr`` read."""

    def __new__(mcls, name, bases, ns, frozen: bool = True, uncompared=(), unshown=()):
        init = ns.get("__init__")
        if init is not None:
            code = init.__code__
            fields = ns["_fields"] = ns["__match_args__"] = (
                code.co_varnames[1:code.co_argcount])
            ns["__slots__"] = fields + ns.get("__slots__", ())
            ns["_compared"] = tuple(n for n in fields if n not in uncompared)
            ns["_shown"] = tuple(n for n in fields if n not in unshown)
            ns["_key"] = staticmethod(_key_getter(ns["_compared"]))
        if not frozen:
            ns["__setattr__"] = object.__setattr__
            ns["__delattr__"] = object.__delattr__
            ns.setdefault("__hash__", None)
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    """A value record, shown, compared, hashed and frozen as a dataclass
    is, and taken by ``dataclasses.fields``, ``replace`` and ``asdict``,
    but defined without ``dataclasses``: importing that module and
    compiling each class's methods from text at every ``tm`` start cost
    about half of what ``tm check`` takes.

    A subclass states its fields once, as the parameters of its
    ``__init__``, in order and with their defaults (a ``Fresh`` default
    is made anew for each record); each gets a slot, and a frozen
    record's ``__init__`` sets them with ``object.__setattr__``.  Its
    ``__slots__``, if any, lists only slots that are not fields.  Class
    keywords: ``frozen=False`` makes a mutable, unhashable record;
    ``uncompared`` and ``unshown`` name the fields left out of
    ``==``/``hash`` and of ``repr``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through __init__
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SourceSpan(Record):
    """1-based position of a piece of source text."""

    def __init__(self, line: int, column: int, length: int = 1):
        _setattr(self, "line", line)
        _setattr(self, "column", column)
        _setattr(self, "length", length)


class Diagnostic(Record):
    """One error or warning, with its code and optional source span."""

    def __init__(self, severity: str, code: str, message: str,
                 span: SourceSpan | None = None):
        _setattr(self, "severity", severity)  # "error" | "warning"
        _setattr(self, "code", code)
        _setattr(self, "message", message)
        _setattr(self, "span", span)

    def __str__(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f"{self.span.line}:{self.span.column}: "
        return f"{loc}{self.severity}[{self.code}]: {self.message}"


def error(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic("error", code, message, span)


def warning(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic("warning", code, message, span)


class ValidationReport(Record, frozen=False):
    """The diagnostics of one check, in the order found."""

    def __init__(self, diagnostics: list[Diagnostic] = Fresh(list)):
        self.diagnostics = diagnostics.make() if isinstance(diagnostics, Fresh) else diagnostics

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def extend(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __str__(self) -> str:
        if not self.diagnostics:
            return "ok"
        return "\n".join(str(d) for d in self.diagnostics)
