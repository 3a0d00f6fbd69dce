"""Shared plumbing for ``repro check`` lint rules."""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the package parent (``repro/...``)
    line: int
    col: int
    message: str
    snippet: str = ""

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression.

        Deliberately excludes the line number so a baseline survives
        unrelated edits above the finding; two identical snippets in one
        file share a fingerprint (suppressing one suppresses both).
        """
        text = "\0".join((self.rule, self.path, " ".join(self.snippet.split())))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


class ModuleSource:
    """One parsed source file handed to every AST rule."""

    def __init__(self, relpath: str, text: str, path: Optional[Path] = None) -> None:
        self.relpath = relpath
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=relpath)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: one rule id, one ``check`` generator over a module."""

    rule_id = "R000"
    title = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=lineno,
            col=col,
            message=message,
            snippet=module.line_at(lineno),
        )


class RepoRule:
    """Base class for repo-level rules: one ``check_repo`` over the
    package tree instead of a per-file ``check``."""

    rule_id = "R000"
    title = ""

    def check_repo(self, root: Optional[Path] = None) -> Iterator[Finding]:
        raise NotImplementedError


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute chain (``np.random.seed``) or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
