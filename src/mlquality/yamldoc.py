"""Reading of the text files the tool takes as input, and parsing of its
YAML documents: registry snapshots, overrides, usage facts and model
configurations.

libyaml's parser is used when PyYAML was built with it, and PyYAML's
pure-Python parser otherwise. Either one's events go to PyYAML's composer
and safe constructor, so they return equal documents; only the wording of
syntax error messages differs. PyYAML is imported on the first parse, not
with this module, so commands that read no YAML do not load it; `LOADER`,
the parser class in use, is resolved then too.

PyYAML's composer composes every document. The hook it calls before each
node, `descend_resolver`, idle on a safe loader, here spots the value of
the root mapping's `key` entry: `load_yaml_records` streams it where it is
a sequence with no anchor or tag but `!!seq`, in any layout, building and
converting each item as soon as it is composed; anchors are kept across
items. A root with an anchor does not stream: an item may alias it. With
at most one fault the message is the whole-document parse's. Of several, a
syntax or composer fault wins over a value the constructor cannot build
(the timestamp 2026-13-01, say), and a value fault outside the streamed
list over one in it; in the list, the first item's is named, where the
whole-document parse builds level by level and may name a later one.
"""

from __future__ import annotations

import datetime as dt
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

_STR, _SEQ = "tag:yaml.org,2002:str", "tag:yaml.org,2002:seq"


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
    return load_yaml_records(text, None, error, None)


# YAML reads integers of thousands of digits: a message quotes at most this
# many characters of a value
_QUOTE_LIMIT = 40


def quoted(value: Any) -> str:
    """A parsed value as a message quotes it, cut to 40 characters."""
    text = _spelled(value)
    return text if len(text) <= _QUOTE_LIMIT else f"{text[:_QUOTE_LIMIT - 3]}..."


def _spelled(value: Any, outer: tuple = ()) -> str:
    """A date or timestamp in ISO form, as YAML writes it; a list or mapping
    item by item; anything else by its repr."""
    if isinstance(value, dt.date):
        return value.isoformat()
    if not isinstance(value, (list, dict)):
        return repr(value)
    if any(value is seen for seen in outer):  # an alias to a node it is in
        return "[...]" if isinstance(value, list) else "{...}"
    spell = partial(_spelled, outer=outer + (value,))
    if isinstance(value, list):
        return f"[{', '.join(map(spell, value))}]"
    items = map("{}: {}".format, map(spell, value), map(spell, value.values()))
    return f"{{{', '.join(items)}}}"


def sorted_keys(keys: Iterable) -> list:
    """A parsed mapping's keys: text sorted, then the rest by their text."""
    return sorted(keys, key=lambda key: (not isinstance(key, str), str(key)))


def load_yaml_records(
    text: str, key: str | None, error: Callable[[str], Exception], convert: Callable | None
) -> Any:
    """`load_yaml(text, error)`, with each item of the list under the
    top-level `key` replaced by `convert(index, item)`: as it is composed
    where the list streams, else once the document is built. `convert`
    runs once per item of every `key` list written; the last list wins."""
    import yaml

    try:
        loader = _parser(text, key, convert)
        try:
            root = loader.get_single_node()
            # each streamed list stands in the root as its records
            loader.constructed_objects.update(loader.streamed)
            document = None if root is None else _build(loader, root)
        except RecursionError as exc:
            # PyYAML's composer recurses once per level of nesting
            mark = loader.peek_event().start_mark
            raise yaml.composer.ComposerError(None, None, "nested too deeply", mark) from exc
        finally:
            loader.dispose()
        if loader.failure is not None:
            raise loader.failure
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: text libyaml cannot take, e.g. a lone surrogate
        raise error(f"invalid YAML: {exc}") from exc
    if (
        convert is not None
        and isinstance(document, dict)
        and isinstance(document.get(key), list)
        and all(document[key] is not records for records in loader.streamed.values())
    ):
        document[key] = [convert(index, item) for index, item in enumerate(document[key])]
    return document


def compose_yaml(text: str) -> Any:
    """The node tree of one YAML document already known to parse, where
    each scalar keeps the text it was written as."""
    return _parser(text).get_single_node()


class _Slices:
    """`text` for libyaml to read and encode a slice at a time, where it
    would encode a `str` whole first; named as libyaml names a `str`."""

    name = "<unicode string>"

    def __init__(self, text: str) -> None:
        self.text, self.offset = text, 0

    def read(self, size: int) -> bytes:
        start = self.offset
        self.offset += size
        try:
            return self.text[start : self.offset].encode("utf-8")
        except UnicodeEncodeError as exc:  # located in the whole text
            raise UnicodeEncodeError(
                exc.encoding, self.text, start + exc.start, start + exc.end, exc.reason
            ) from None


def _parser(text: str, key: str | None = None, convert: Callable | None = None) -> Any:
    """A `LOADER` over `text` that composes with PyYAML's composer."""
    import yaml

    base, composer = _loader(), yaml.composer.Composer

    class Walker(base, composer):
        get_single_node = composer.get_single_node  # libyaml's own composes in C
        descend_resolver, compose_records = _descend, _compose_records

    # PyYAML's reader quotes the text in its messages
    loader = Walker(text if issubclass(base, yaml.reader.Reader) else _Slices(text))
    loader.anchors, loader.streamed, loader.failure = {}, {}, None
    loader.key, loader.convert = key, convert
    return loader


def _descend(loader: Any, parent: Any, index: Any) -> None:
    """Hands the root's `key` list to `_compose_records`. The composer calls
    this before each node; `index` is None for a key, its node for a value."""
    if parent is None:  # the root: an item could alias an anchored one
        event = loader.peek_event()
        loader.root_mark = event.start_mark if event.anchor is None else None
    elif parent.start_mark is loader.root_mark and getattr(index, "tag", None) == _STR:
        import yaml

        event = loader.peek_event()
        if index.value == loader.key and isinstance(event, yaml.SequenceStartEvent):
            if event.anchor is None and event.tag in (None, "!", _SEQ):
                loader.compose_sequence_node = loader.compose_records


def _compose_records(loader: Any, anchor: None) -> Any:
    """`compose_sequence_node` for the root's `key` list: each item is built
    and converted as it is composed, into `loader.streamed` by the node."""
    import yaml

    del loader.compose_sequence_node  # lists within items compose as usual
    event = loader.get_event()
    node = yaml.SequenceNode(_SEQ, [], event.start_mark, None, flow_style=event.flow_style)
    records, index = loader.streamed.setdefault(node, []), 0
    while not loader.check_event(yaml.SequenceEndEvent):
        item = loader.compose_node(node, index)
        if loader.failure is None:
            try:
                built = _build(loader, item)
            except yaml.YAMLError as exc:
                loader.failure = exc  # composing goes on: a syntax error wins
            else:
                records.append(loader.convert(index, built))
        index += 1
    node.end_mark = loader.get_event().end_mark
    return node


def _build(loader: Any, node: Any) -> Any:
    """`node` built by the safe constructor."""
    import yaml

    try:
        return loader.construct_document(node)
    except ValueError as exc:
        # a scalar the resolver accepted but cannot build, such as the
        # timestamp 2026-13-01; the node under construction when it failed
        # is the last one the constructor entered
        failing = next(reversed(loader.recursive_objects), None)
        raise yaml.constructor.ConstructorError(
            None, None, str(exc), failing.start_mark if failing is not None else None
        ) from exc
    finally:
        # `construct_document` clears its state only when it succeeds
        yaml.constructor.BaseConstructor.__init__(loader)
