"""R002 — float contamination of integer hardware counters.

Every modeled hardware field (each ``@hw_checked`` declaration, derived
for R006 by :func:`repro.check.rules.bit_widths.hw_field_names`) is an
unsigned integer register.  A single true division or float literal
reaching one of them turns exact counter comparisons into epsilon
comparisons and breaks bit-identical replay.  The Figure 9 flow exists
precisely to avoid a divider — shift-based step comparison
(``nasc >> 1``) instead of ``nasc / 2``.

Flagged: any assignment (plain or augmented) to a hardware field whose
right-hand side contains a float literal, a true division ``/``, or a
``float(...)`` call.  ``//``, ``>>`` and ``&`` are the hardware-honest
spellings and pass.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional

from repro.check.rules.base import Finding, ModuleSource, Rule
from repro.check.rules.bit_widths import hw_field_names


class FloatContaminationRule(Rule):
    rule_id = "R002"
    title = "float contamination of integer hardware counters"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        names = hw_field_names()
        for node in ast.walk(module.tree):
            target_attr: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _hw_attr(target, names):
                        target_attr = _hw_attr(target, names)
                value = node.value
            elif isinstance(node, ast.AugAssign):
                target_attr = _hw_attr(node.target, names)
                value = node.value
                if target_attr and isinstance(node.op, ast.Div):
                    yield self.finding(
                        module,
                        node,
                        f"true division written into integer field "
                        f"{target_attr!r} — use a shift or //",
                    )
                    continue
            if target_attr is None or value is None:
                continue
            reason = _float_taint(value)
            if reason is not None:
                yield self.finding(
                    module,
                    node,
                    f"{reason} written into integer hardware field "
                    f"{target_attr!r} — hardware counters hold ints; "
                    f"use shifts, // or explicit masking",
                )


def _hw_attr(node: ast.AST, names: FrozenSet[str]) -> Optional[str]:
    if isinstance(node, ast.Attribute) and node.attr in names:
        return node.attr
    return None


def _float_taint(value: ast.expr) -> Optional[str]:
    for node in ast.walk(value):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division (/)"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return "float(...) conversion"
    return None
