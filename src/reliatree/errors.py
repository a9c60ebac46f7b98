"""Exception types shared across the engine, and the readers of input
files: text that is not UTF-8 and JSON that is malformed or nested past
MAX_JSON_DEPTH are input errors."""
import json
import re

# Deepest bracket nesting any JSON input may have: a success tree of 256
# gates inside a system description, or a hierarchy of 256 levels. The
# readers of both recurse once or twice per level, so this keeps them well
# inside Python's default recursion limit on every supported version,
# whatever depth the JSON decoder itself would accept.
MAX_JSON_DEPTH = 514

# A JSON string (group 1 its body, group 2 set when it is a member name)
# or a bracket.
_JSON_TOKEN = re.compile(r'"((?:\\.|[^"\\])*)"(\s*:)?|[\[\]{}]')


class InputError(ValueError):
    """Invalid user-supplied input: model documents, netlists, traces, flags."""


class StageError(RuntimeError):
    """A pipeline stage failed; names the component and stage."""

    def __init__(self, component_id: str, stage: str, cause: BaseException):
        super().__init__(f"component {quoted(component_id)}, stage {stage!r}: {cause}")


def read_text(path: str) -> str:
    """A UTF-8 text file with its line ends as they are; InputError naming
    the file and the offset of the first byte that is not UTF-8."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None


def quoted(value) -> str:
    """repr(value), cut to about 60 characters, for a message that quotes a
    value read from outside the program."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _deepest_nesting(text: str) -> tuple:
    """Deepest bracket nesting of a JSON text, and the top-level member
    where it is first reached."""
    depth = deepest = 0
    member = where = None
    for m in _JSON_TOKEN.finditer(text):
        token = m.group()
        if m.group(2) and depth == 1:
            member = m.group(1)
        elif token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, where = depth, member
        elif token in ("]", "}"):
            depth -= 1
    return deepest, where


def read_json(text: str, what: str):
    """Decode a JSON input document named `what`, raising InputError when it
    nests deeper than MAX_JSON_DEPTH (naming the depth and the top-level
    member that reaches it) or is malformed."""
    # The nesting can be no deeper than the number of opening brackets,
    # so most documents need no scan.
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH:
        depth, member = _deepest_nesting(text)
        if depth > MAX_JSON_DEPTH:
            where = "" if member is None else f" in member {quoted(member)}"
            raise InputError(f"{what} nests {depth} levels deep{where}; the limit is {MAX_JSON_DEPTH}")
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"malformed {what}: {exc}") from None
