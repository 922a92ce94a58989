"""Source positions and diagnostics shared by the parser and the validator."""

from __future__ import annotations

from .model import Record

ERROR = "error"
WARNING = "warning"


class SourceSpan(Record):
    """1-based position of a token or declaration in a model file."""

    file: str
    line: int
    column: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("source positions are 1-based")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Diagnostic(Record):
    """One problem found in a model, either syntactic or semantic.

    ``span`` is None for diagnostics raised against an in-memory model
    that was never parsed from text; renderers leave the location blank.
    ``code`` is a short stable slug so reports can be filtered mechanically.
    """

    severity: str  # ERROR or WARNING
    message: str
    span: SourceSpan | None = None
    code: str = ""

    def render(self) -> str:
        where = f" ({self.span})" if self.span is not None else ""
        tag = f"[{self.code}] " if self.code else ""
        return f"{self.severity}: {tag}{self.message}{where}"
