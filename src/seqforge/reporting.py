"""Validation report, error types, the line reader and the JSON decoder shared across modules.

Nothing here loads the corpus data model, so commands that only read text
(eval) import this module alone.
"""
import json
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


# The whitespace JSON allows around a value; str.strip() with no argument also
# strips other Unicode whitespace, which makes a line that is not JSON look blank.
JSON_WHITESPACE = " \t\r\n"
# Text nested deeper than this is refused. Python's decoder recurses once per
# level, so without a cap whether a text near the recursion limit decodes would
# depend on the caller's stack depth, which --jobs changes.
MAX_DEPTH = 512
# A JSON string, or one bracket outside any string.
_STRUCTURE = re.compile(r'"(?:[^"\\]|\\.)*"|[\[\]{}]')
# Each escape, left to right: a surrogate pair, a lone surrogate (the group, a
# str no UTF-8 output can hold), or any other escape, an escaped backslash too.
_LONE_SURROGATE = re.compile(
    r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)")


def refusal(text: str) -> str | None:
    """Why decode refuses text that json alone would read, or None."""
    if text.count("[") + text.count("{") > MAX_DEPTH:  # no scan for almost every text
        depth = 0
        for token in _STRUCTURE.findall(text):
            if token in ("[", "{"):
                depth += 1
                if depth > MAX_DEPTH:
                    return "nested too deeply"
            elif token in ("]", "}"):
                depth -= 1
    if "\\" in text and any(_LONE_SURROGATE.findall(text)):  # 1 char: ~10x faster than "\\u"
        return "unpaired surrogate escape"
    return None


class DecodeError(ValueError):
    """Text decode refuses; msg and pos as in json.JSONDecodeError, pos None if it names none."""

    def __init__(self, msg: str, doc: str = "", pos: int | None = None):
        self.msg, self.pos = msg, pos
        super().__init__(msg if pos is None else str(json.JSONDecodeError(msg, doc, pos)))


def decode(text: str):
    """json.loads of text from outside the program; all it refuses raises DecodeError."""
    if why := refusal(text):
        raise DecodeError(why)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(exc.msg, text, exc.pos) from None
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise DecodeError(str(exc)) from None
