"""Exception types shared across the engine, and the reader of input text
files that turns bytes which are not UTF-8 into an InputError."""


class InputError(ValueError):
    """Invalid user-supplied input: model documents, netlists, traces, flags."""


class ModelError(InputError):
    """System description failed structural validation."""


class NetlistParseError(InputError):
    """Netlist text rejected; message carries the offending line number(s)."""


class StageError(RuntimeError):
    """A pipeline stage failed; names the component and stage."""

    def __init__(self, component_id: str, stage: str, cause: BaseException):
        super().__init__(f"component {component_id!r}, stage {stage!r}: {cause}")


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
