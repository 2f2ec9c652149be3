"""Rule protocol, registry, and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from ..engine import Finding, Project, SourceFile

__all__ = [
    "Rule",
    "RULES",
    "register",
    "attr_chain",
    "contains_float_literal",
    "is_keyish",
]

RULES: Dict[str, "Rule"] = {}


class Rule:
    """One invariant check.  Subclasses set the class attributes and
    implement :meth:`check`, yielding :class:`Finding` objects."""

    name: str = ""
    summary: str = ""
    #: Section of PAPER.md / DESIGN.md whose contract the rule protects.
    contract: str = ""

    def check(self, src: SourceFile, project: Project, options: Dict[str, object]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=src.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def register(cls):
    """Class decorator: instantiate and add to the global registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if instance.name in RULES:
        raise ValueError(f"duplicate rule name: {instance.name}")
    RULES[instance.name] = instance
    return cls


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None if the chain has a non-name
    base (a call result, a subscript, ...)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def contains_float_literal(node: ast.AST) -> Optional[ast.AST]:
    """First float constant (or float() cast) inside an expression tree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return sub
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return sub
    return None


_KEYISH_EXACT = {"key", "fek", "fekek", "file_key", "plaintext_key"}


def is_keyish(name: str) -> bool:
    """Does an identifier plausibly bind raw key material?"""
    lowered = name.lower().lstrip("_")
    return lowered in _KEYISH_EXACT or lowered.endswith("_key")
