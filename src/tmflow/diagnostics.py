"""Source locations, diagnostics, and validation reports shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a piece of source text."""

    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    """One error or warning, with its code and optional source span."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan | None = None

    def __str__(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f"{self.span.line}:{self.span.column}: "
        return f"{loc}{self.severity}[{self.code}]: {self.message}"


def error(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic("error", code, message, span)


def warning(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    return Diagnostic("warning", code, message, span)


@dataclass
class ValidationReport:
    """The diagnostics of one check, in the order found."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def extend(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __str__(self) -> str:
        if not self.diagnostics:
            return "ok"
        return "\n".join(str(d) for d in self.diagnostics)
