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

import re
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


def load_yaml_records(
    text: str, key: str, error: Callable[[str], Exception], convert: Callable[[int, Any], Any]
) -> Any:
    """`load_yaml(text, error)`, with each item of the list under the
    top-level `key` replaced by `convert(index, item)`, and a block sequence
    there parsed one item at a time where splitting cannot change the result.

    That is where a column-0 `key:` line ends the top-level keys and is
    followed only by comments and blanks, then column-0 `- ` items, indented
    lines, comments and blanks; where no anchor name is written twice; and
    where the text holds no directive or document marker and no line break
    but `\\n`. Each item must then parse on its own to one mapping; an alias
    to an anchor outside the item, merge keys included, fails that parse,
    while tags read alike either way. Parsed so, each item is converted as
    soon as it parses and only the result is kept: one item's node graph and
    raw mapping are in memory at a time, never the whole list. Any other
    text, or an item that does not parse to one mapping, is parsed as one
    document by `load_yaml`, whose list under `key`, if the document is a
    mapping holding one, is then converted item by item; results and
    messages are the same either way. Items converted before such a fallback
    are converted again, so `convert` must neither raise nor have side
    effects.
    """
    document = _load_split(text, key, convert)
    if document is None:
        document = load_yaml(text, error)
        if isinstance(document, dict) and isinstance(document.get(key), list):
            document[key] = [convert(index, item) for index, item in enumerate(document[key])]
    return document


def _load_split(text: str, key: str, convert: Callable[[int, Any], Any]) -> dict | None:
    """The document `text` is, parsed as the text up to the first `key`
    item and each item on its own, with the items converted; None where the
    layout does not allow that, or where the text before does not parse to
    a mapping that ends with `key:` or an item to one mapping."""
    start = re.search(rf"(?m)^{re.escape(key)}:\n(?: *(?:#.*)?\n)*(?=- )", text)
    if not start or re.search(_SPLIT_OFF, text):
        return None
    anchors = re.findall(_ANCHOR, text)
    if len(set(anchors)) < len(anchors):
        return None
    begin = start.end()
    if re.compile(_OTHER_LINE).search(text, begin):
        return None
    document = _parsed(text[:begin])
    if not (isinstance(document, dict) and key in document and document[key] is None):
        return None
    starts = [item.start() for item in re.compile(_ITEM).finditer(text, begin)]
    records = []
    for index, (a, b) in enumerate(zip(starts, [*starts[1:], len(text)])):
        item = _parsed(text[a:b])
        if not (isinstance(item, list) and len(item) == 1 and isinstance(item[0], dict)):
            return None
        # popped, so the raw mapping is freed as soon as it is converted
        records.append(convert(index, item.pop()))
    document[key] = records
    return document


def _parsed(text: str) -> Any:
    """`_load(text)`, or None where `text` does not parse."""
    import yaml

    try:
        return _load(text)
    except (yaml.YAMLError, ValueError):
        return None


# patterns compiled on first use, which `re` caches, not on import
# what could tie a sequence item to text outside it: directives and
# document markers, and the line breaks YAML reads besides "\n"
_SPLIT_OFF = r"(?m)[\r\x85\u2028\u2029\ufeff]|^(?:%|---|\.\.\.)"
# what may be an anchor's name: a word after "&" where a token can start,
# so "R&D" holds none, while one in quotes or a comment may count; a name
# anchored twice fails the whole document ("found duplicate anchor") but
# not each of two items on its own
_ANCHOR = r"(?<![^\s\[{,:?-])&([\w-]+)"
# a line that is not a column-0 sequence item, indented, a comment or blank
_OTHER_LINE = r"(?m)^(?!- | |#|$)"
_ITEM = r"(?m)^- "


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
