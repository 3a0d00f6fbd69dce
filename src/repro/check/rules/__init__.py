"""Rule registry for ``repro check``.

AST rules implement ``check(module)`` over one parsed file; repo rules
implement ``check_repo(root)`` over the package tree.  Both produce
:class:`~repro.check.rules.base.Finding` streams the linter engine
deduplicates, baseline-filters and renders.
"""

from __future__ import annotations

from typing import List

from repro.check.rules.base import Finding, ModuleSource, RepoRule, Rule
from repro.check.rules.async_hygiene import AsyncHygieneRule
from repro.check.rules.bit_widths import BitWidthProofRule
from repro.check.rules.engine_parity import EngineParityRule, OverrideGuardRule
from repro.check.rules.float_contamination import FloatContaminationRule
from repro.check.rules.key_purity import KeyPurityRule
from repro.check.rules.nondeterminism import NondeterminismRule
from repro.check.rules.process_hazards import ProcessHazardRule
from repro.check.rules.sim_version import SimVersionRule


def ast_rules() -> List[Rule]:
    """Fresh instances of every per-file AST rule, in rule-id order."""
    return [
        NondeterminismRule(),
        FloatContaminationRule(),
        ProcessHazardRule(),
        BitWidthProofRule(),
        OverrideGuardRule(),
        KeyPurityRule(),
        AsyncHygieneRule(),
    ]


def repo_rules() -> List[RepoRule]:
    """Fresh instances of every repo-level rule."""
    return [SimVersionRule(), EngineParityRule()]


__all__ = [
    "Finding",
    "ModuleSource",
    "Rule",
    "RepoRule",
    "ast_rules",
    "repo_rules",
    "NondeterminismRule",
    "FloatContaminationRule",
    "ProcessHazardRule",
    "BitWidthProofRule",
    "OverrideGuardRule",
    "KeyPurityRule",
    "AsyncHygieneRule",
    "SimVersionRule",
    "EngineParityRule",
]
