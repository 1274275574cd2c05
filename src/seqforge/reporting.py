"""Validation report and structural parse error shared by corpus and caption checks."""
from dataclasses import dataclass, field


class SchemaError(ValueError):
    """Input whose structure (field presence or JSON type) cannot be parsed."""


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def add(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    @property
    def ok(self) -> bool:
        return not self.violations
