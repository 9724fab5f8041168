"""Reading of the text files the tool takes as input, and parsing of its
YAML documents: registry snapshots, overrides, usage facts and model
configurations.

libyaml's parser is used when PyYAML was built with it, and PyYAML's
pure-Python parser otherwise. Both feed the same safe constructor, so they
return equal documents; only the wording of syntax error messages differs.
PyYAML is imported on the first parse, not with this module, so commands
that read no YAML do not load it; `LOADER`, the parser class in use, is
resolved then too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable


def _loader() -> Any:
    """The parser class in use, `LOADER`, resolved on first use."""
    if "LOADER" not in globals():
        import yaml

        globals()["LOADER"] = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return globals()["LOADER"]


def __getattr__(name: str) -> Any:
    if name == "LOADER":
        return _loader()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def read_text(path: Path, error: Callable[[str], Exception]) -> str:
    """The text of a UTF-8 input file.

    Bytes that are not UTF-8 raise `error` naming the file and the offset
    of the first bad byte. OSError passes through.
    """
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: not valid UTF-8: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start}"
        ) from exc


def load_yaml(text: str, error: Callable[[str], Exception]) -> Any:
    """Parse one YAML document with the safe constructor.

    Any document that cannot be parsed or built raises `error` with a
    message starting "invalid YAML:" and naming the line and column where
    the parser could tell.
    """
    import yaml

    try:
        return _load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError also covers text the parser cannot encode, e.g. a
        # lone surrogate, which only libyaml rejects this way
        raise error(f"invalid YAML: {exc}") from exc


def compose_yaml(text: str) -> Any:
    """The node tree of one YAML document already known to parse, where
    each scalar keeps the text it was written as."""
    import yaml

    return yaml.compose(text, Loader=_loader())


def _load(text: str) -> Any:
    import yaml

    loader = _loader()(text)
    try:
        return loader.get_single_data()
    except ValueError as exc:
        # a scalar the resolver accepted but cannot build, such as the
        # timestamp 2026-13-01; the node under construction when it failed
        # is the last one the constructor entered
        node = next(reversed(loader.recursive_objects), None)
        raise yaml.constructor.ConstructorError(
            None, None, str(exc), node.start_mark if node is not None else None
        ) from exc
    finally:
        loader.dispose()
