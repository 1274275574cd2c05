"""Validation report, error types and the line reader shared across modules.

Nothing here loads the corpus data model, so commands that only read text
(eval) import this module alone.
"""
import re
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


class NotUtf8Error(ValueError):
    """An input file holds bytes that are not UTF-8."""

    def __init__(self, path, line_no: int):
        super().__init__(f"{path}: line {line_no} is not valid UTF-8")


# Under errors="surrogateescape" each byte that is not UTF-8 decodes to one of these.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def not_utf8(path) -> NotUtf8Error:
    """The error naming the first line of path that is not UTF-8.

    Decoding fails a whole buffer at a time, so the file is read again to
    find the line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        line_no = next(n for n, line in enumerate(fh, 1) if _ESCAPED_BYTE.search(line))
    return NotUtf8Error(path, line_no)


def read_lines(path):
    """Yield the lines of a UTF-8 text file; unreadable files raise.

    Bytes that are not UTF-8 raise NotUtf8Error naming the first such line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise not_utf8(path) from None
