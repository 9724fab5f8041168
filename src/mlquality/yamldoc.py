"""Reading of the text files the tool takes as input, and parsing of its
YAML documents: registry snapshots, overrides, usage facts and model
configurations.

libyaml's parser is used when PyYAML was built with it, and PyYAML's
pure-Python parser otherwise. Either one's events go to PyYAML's composer
and safe constructor, so they return equal documents; only the wording of
syntax error messages differs. PyYAML is imported on the first parse, not
with this module, so commands that read no YAML do not load it; `LOADER`,
the parser class in use, is resolved then too.

One walker composes every document, a root mapping with no anchor entry
by entry. `load_yaml_records` streams a `key` entry whose value is a
sequence with no anchor or tag but `!!seq`, in any layout: each item is
built and converted as soon as it is composed. Anchors are kept across
items; any other value or root is composed whole. With at most one fault
the message is the whole-document parse's. Of several, a syntax or
composer fault wins over a value the constructor cannot build (the
timestamp 2026-13-01, say), and a value fault outside the streamed list
over one in it; in the list, the first item's is named, where the
whole-document parse builds level by level and may name a later one.
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
    return load_yaml_records(text, None, error, None)


def load_yaml_records(
    text: str, key: str | None, error: Callable[[str], Exception], convert: Callable | None
) -> Any:
    """`load_yaml(text, error)`, with each item of the list under the
    top-level `key` replaced by `convert(index, item)`: as it is composed
    where the list streams, else once the document is built. `convert`
    runs once per item of every `key` list written; the last list wins."""
    import yaml

    try:
        loader = _parser(text)
        try:
            root, streamed, failure = _compose(loader, key, convert)
            if root is None:
                return None
            # each streamed list stands in the root as its records
            loader.constructed_objects.update(streamed)
            document = _build(loader, root)
        except RecursionError as exc:
            # PyYAML's composer recurses once per level of nesting
            mark = loader.peek_event().start_mark
            raise yaml.composer.ComposerError(None, None, "nested too deeply", mark) from exc
        finally:
            loader.dispose()
        if failure is not None:
            raise failure
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: text libyaml cannot take, e.g. a lone surrogate
        raise error(f"invalid YAML: {exc}") from exc
    if (
        convert is not None
        and isinstance(document, dict)
        and isinstance(document.get(key), list)
        and all(document[key] is not records for records in streamed.values())
    ):
        document[key] = [convert(index, item) for index, item in enumerate(document[key])]
    return document


def compose_yaml(text: str) -> Any:
    """The node tree of one YAML document already known to parse, where
    each scalar keeps the text it was written as."""
    return _compose(_parser(text), None, None)[0]


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


def _parser(text: str) -> Any:
    """A `LOADER` over `text` that composes with PyYAML's composer."""
    import yaml

    base = _loader()
    # no path resolver is registered on a safe loader, so the composer's two
    # resolver calls per node do nothing: skipped, they cost no parse time
    skip = dict.fromkeys(["descend_resolver", "ascend_resolver"], lambda *args: None)
    if issubclass(base, yaml.reader.Reader):
        # PyYAML's reader quotes the text in its messages; it has the composer
        return type("Walker", (base,), skip)(text)
    # libyaml composes only in C, and whole
    loader = type("Walker", (base, yaml.composer.Composer), skip)(_Slices(text))
    loader.anchors = {}
    return loader


def _compose(loader: Any, key: str | None, convert) -> tuple[Any, dict, Exception | None]:
    """The root node of the stream's one document, None if it has none; the
    records of each streamed `key` list, by the empty node standing in for
    it in the root; the fault that stopped building items, if one did."""
    import yaml
    from yaml.events import MappingEndEvent, MappingStartEvent, SequenceEndEvent, StreamEndEvent
    from yaml.nodes import MappingNode, ScalarNode, SequenceNode

    root, streamed, failure, seq = None, {}, None, "tag:yaml.org,2002:seq"
    loader.get_event()  # stream start
    if not loader.check_event(StreamEndEvent):
        loader.get_event()  # document start
        event = loader.peek_event()
        if not isinstance(event, MappingStartEvent) or event.anchor is not None:
            root = loader.compose_node(None, None)
        else:
            # what `compose_node` does for a mapping, one entry at a time
            loader.get_event()
            tag = event.tag
            if tag in (None, "!"):
                tag = loader.resolve(MappingNode, None, event.implicit)
            root = MappingNode(tag, [], event.start_mark, None, flow_style=event.flow_style)
            while not loader.check_event(MappingEndEvent):
                entry = loader.compose_node(root, None)
                event = loader.peek_event()
                if not (
                    isinstance(entry, ScalarNode)
                    and (entry.tag, entry.value) == ("tag:yaml.org,2002:str", key)
                    and isinstance(event, yaml.SequenceStartEvent)
                    and event.anchor is None
                    and event.tag in (None, "!", seq)
                ):
                    root.value.append((entry, loader.compose_node(root, entry)))
                    continue
                loader.get_event()
                value = SequenceNode(seq, [], event.start_mark, None, flow_style=event.flow_style)
                streamed[value], index = [], 0
                while not loader.check_event(SequenceEndEvent):
                    item = loader.compose_node(value, index)
                    if failure is None:
                        try:
                            built = _build(loader, item)
                        except yaml.YAMLError as exc:
                            failure = exc  # composing goes on: a syntax error wins
                        else:
                            streamed[value].append(convert(index, built))
                    index += 1
                value.end_mark = loader.get_event().end_mark
                root.value.append((entry, value))
            root.end_mark = loader.get_event().end_mark
        loader.get_event()  # document end
    if not loader.check_event(StreamEndEvent):
        raise yaml.composer.ComposerError(
            "expected a single document in the stream", root.start_mark,
            "but found another document", loader.get_event().start_mark,
        )
    return root, streamed, failure


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
