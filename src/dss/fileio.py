"""Small YAML front end that keeps line numbers for error reporting.

The topology and selection-context file formats are plain YAML; parsing via
``yaml.compose`` (instead of ``safe_load``) retains each node's source mark,
so validation failures can point at the offending line.
"""

from __future__ import annotations

import yaml
from yaml.nodes import MappingNode, Node, ScalarNode, SequenceNode


class FileFormatError(ValueError):
    """Input file violates its format; carries a 1-based line number."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


def line_of(node: Node) -> int:
    """The node's 1-based line in its file."""
    return node.start_mark.line + 1


def parse_document(text: str, path: str) -> Node:
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else None
        raise FileFormatError(path, line, f"syntax error: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise FileFormatError(path, None, f"syntax error: {exc}") from exc
    if root is None:
        raise FileFormatError(path, None, "empty document")
    return root


def as_mapping(node: Node, path: str, what: str) -> dict[str, Node]:
    if not isinstance(node, MappingNode):
        raise FileFormatError(path, line_of(node), f"{what} must be a mapping")
    out = {}
    for key_node, value_node in node.value:
        if not isinstance(key_node, ScalarNode):
            raise FileFormatError(path, line_of(key_node), f"{what} keys must be scalars")
        if key_node.value in out:
            raise FileFormatError(path, line_of(key_node), f"duplicate key {key_node.value!r}")
        out[key_node.value] = value_node
    return out


def as_sequence(node: Node, path: str, what: str) -> list[Node]:
    if not isinstance(node, SequenceNode):
        raise FileFormatError(path, line_of(node), f"{what} must be a sequence")
    return node.value


def as_str(node: Node, path: str, what: str) -> str:
    if not isinstance(node, ScalarNode):
        raise FileFormatError(path, line_of(node), f"{what} must be a scalar")
    return str(node.value)


# YAML's spellings of the non-finite floats, which float() refuses.
_YAML_NON_FINITE = {
    f"{sign}.{word}": f"{sign}inf" for sign in ("", "+", "-") for word in ("inf", "Inf", "INF")
} | {f".{word}": "nan" for word in ("nan", "NaN", "NAN")}


def as_float(node: Node, path: str, what: str) -> float:
    """The scalar as a float; YAML's .inf, -.inf and .nan included."""
    raw = as_str(node, path, what)
    try:
        return float(_YAML_NON_FINITE.get(raw, raw))
    except ValueError:
        raise FileFormatError(path, line_of(node), f"{what} must be a number, got {raw!r}") from None


def as_int(node: Node, path: str, what: str) -> int:
    raw = as_str(node, path, what)
    try:
        return int(raw)
    except ValueError:
        raise FileFormatError(path, line_of(node), f"{what} must be an integer, got {raw!r}") from None


def require(mapping: dict[str, Node], key: str, node: Node, path: str, what: str) -> Node:
    if key not in mapping:
        raise FileFormatError(path, line_of(node), f"{what} is missing required key {key!r}")
    return mapping[key]
