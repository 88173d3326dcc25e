"""Shipped example diagrams in the `.tgl` format."""

import os

from ..diagram import TangleDiagram, parse_tangle

_HERE = os.path.dirname(__file__)


def names() -> list[str]:
    return sorted(entry[:-4] for entry in os.listdir(_HERE) if entry.endswith(".tgl"))


def source(name: str) -> str:
    with open(os.path.join(_HERE, f"{name}.tgl"), encoding="utf-8") as f:
        return f.read()


def load(name: str) -> TangleDiagram:
    return parse_tangle(source(name))
