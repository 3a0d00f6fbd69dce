"""R007 — reference/fastsim engine parity.

Two pieces, one rule id:

* :class:`OverrideGuardRule` (AST, per-file) — fires on any Optional-knob
  fallback selected by truthiness instead of ``is not None``.  This is
  the exact shape of the historical nasc bug: ``nasc or vta_assoc``
  silently turns the valid ablation value ``nasc=0`` into
  ``vta_assoc``, freezing nothing.  The rule is scoped to the policy
  packages (``core/``, ``fastsim/``) where these knobs live; today the
  only fallbacks are in :meth:`repro.core.protected.ProtectionKnobs.resolve`.

* :class:`EngineParityRule` (repo-level) — reads the process's one
  extraction of width constants, fast-engine constant imports,
  ``@hw_checked`` declarations and the packed correspondence
  (:mod:`repro.check.analysis.parity`), enforces the cross-engine laws
  (constants imported not redefined, one width per hardware field,
  every packed array backed by a declared field, PL as wide as PD), and
  finally diffs the extraction against the committed
  ``parity_manifest.json`` so any intentional change shows in the diff
  as a ``repro check --update-parity`` refresh.  R006 derives its field
  table from the same extraction, so no second copy of the widths
  exists to drift.  The knobs need no such check: both engines read one
  declaration, :class:`repro.core.protected.ProtectionKnobs`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.check.analysis import parity
from repro.check.manifest import package_root
from repro.check.rules.base import Finding, ModuleSource, RepoRule, Rule

_SCOPED_PACKAGES = ("repro/core/", "repro/fastsim/")

_STYLE_HINTS = {
    "or_truthiness": (
        "uses `or` truthiness — an explicit 0 override is dropped "
        "(the historical nasc bug); use `x if x is not None else fallback`"
    ),
    "truthiness": (
        "uses bare truthiness — an explicit 0 override is dropped "
        "(the historical nasc bug); test `is not None` instead"
    ),
}


class OverrideGuardRule(Rule):
    rule_id = "R007"
    title = "Optional-knob fallback guard drops explicit zero overrides"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.relpath.startswith(_SCOPED_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.IfExp, ast.BoolOp)):
                continue
            hit = parity.classify_guard(node)
            if hit is None:
                continue
            knob, style = hit
            hint = _STYLE_HINTS.get(style)
            if hint is None:
                continue
            yield self.finding(
                module, node, f"override fallback for {knob!r} {hint}"
            )


class EngineParityRule(RepoRule):
    rule_id = "R007"
    title = "reference/fastsim policy surface drift"

    def check_repo(self, root: Optional[Path] = None) -> Iterator[Finding]:
        pkg_root = root or package_root()
        current = parity.live_parity(pkg_root)
        manifest_rel = (
            parity.parity_path(pkg_root).relative_to(pkg_root.parent).as_posix()
        )
        messages = parity.check_consistency(current)
        messages.extend(
            parity.diff_parity(parity.load_parity(pkg_root), current)
        )
        for message in messages:
            yield Finding(
                rule=self.rule_id,
                path=manifest_rel,
                line=1,
                col=0,
                message=message,
                snippet="",
            )
