"""Access to the shipped fixture files (proposition maps, models, goldens)."""

from __future__ import annotations

from importlib import resources


def fixture_text(name: str) -> str:
    return resources.files("protocheck").joinpath("fixtures", name).read_text(encoding="utf-8")

