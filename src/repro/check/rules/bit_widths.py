"""Rule R006: statically prove bit-field writes fit their widths.

This rule runs the abstract-interpretation value-range analyzer
(:mod:`repro.check.analysis.intervals`) over every module that names a
declared hardware field and reports each store into such a field (in
a function, a class-body default or at module level) whose value
interval may leave ``[0, 2**bits - 1]``.  The runtime ``REPRO_CHECK=1``
contracts remain as a backstop for code paths the analysis cannot see
(constructor calls, ablation-widened fields), but the widths themselves
are proven here, at lint time, on every path.

The field table is derived, not mirrored: :func:`field_table` reads it
off the engine-parity extraction that R007 checks, the one
:func:`repro.check.analysis.parity.live_parity` makes per process, so
the ``@hw_checked`` declarations are the one place a width is written:

* scalar fields — every declared field, plus the fast engine's scalar
  global PD (``_gpd``);
* packed fields — the fast engine's struct-of-arrays encodings, each as
  wide as the reference field it encodes, tracked through local aliases
  (``pdl = self._pdl``);
* bound tokens — ``*_max`` attributes that hold a field's maximum,
  ``(1 << BITS) - 1`` of its width constant, evaluated exactly so
  clamps prove;
* constants — the width constants, resolvable by bare name.

Sites that are correct only because of a *data* invariant the analyzer
cannot see carry ``# repro-check: allow(R006)`` markers with a
justification.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator

from repro.check.analysis import parity
from repro.check.analysis.intervals import FieldTable, ValueRangeAnalyzer
from repro.check.manifest import package_root
from repro.check.rules.base import Finding, ModuleSource, Rule

#: The packed engine's one scalar field: a plain attribute, not an array.
_SCALAR_PACKED = "_gpd"

#: Bound token -> the width constant whose maximum it holds; the
#: ``_``-prefixed attribute form holds the same maximum.
_BOUND_CONSTANTS = {
    "pd_max": "PD_BITS",
    "pl_max": "PL_BITS",
    "tda_hit_max": "TDA_HIT_BITS",
    "vta_hit_max": "VTA_HIT_BITS",
}


def _ints(table: object) -> Dict[str, int]:
    """The integer entries of one extracted ``{name: value}`` table."""
    if not isinstance(table, dict):
        return {}
    return {
        name: value for name, value in table.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def field_table(extraction: Dict[str, object]) -> FieldTable:
    """R006's field table read off one parity extraction.  Widths that
    did not resolve to integers and packed arrays that claim an
    undeclared field are left out; R007 reports both."""
    declared: Dict[str, int] = {}
    hw_widths = extraction.get("hw_widths")
    if isinstance(hw_widths, dict):
        for fields in hw_widths.values():
            declared.update(_ints(fields))
    scalar = dict(declared)
    packed: Dict[str, int] = {}
    correspondence = extraction.get("packed_correspondence")
    if isinstance(correspondence, dict):
        for array, ref_field in correspondence.items():
            if ref_field in declared:
                target = scalar if array == _SCALAR_PACKED else packed
                target[array] = declared[ref_field]
    constants = _ints(extraction.get("width_constants"))
    bounds: Dict[str, int] = {}
    for token, constant in _BOUND_CONSTANTS.items():
        if constant in constants:
            maximum = (1 << constants[constant]) - 1
            bounds[token] = bounds["_" + token] = maximum
    return FieldTable(
        scalar_fields=scalar,
        packed_fields=packed,
        bound_tokens=bounds,
        const_names=constants,
    )


@lru_cache(maxsize=None)
def default_field_table() -> FieldTable:
    """The live package's field table, extracted on first use."""
    return field_table(parity.live_parity(package_root()))


def hw_field_names() -> FrozenSet[str]:
    """The ``@hw_checked`` field names (R002's write targets)."""
    return frozenset(default_field_table().scalar_fields) - {_SCALAR_PACKED}


@lru_cache(maxsize=None)
def _field_name_re(names: FrozenSet[str]) -> "re.Pattern[str]":
    alternatives = "|".join(re.escape(name) for name in sorted(names))
    return re.compile(rf"\b(?:{alternatives})\b")


def _names_a_field(module: ModuleSource, table: FieldTable) -> bool:
    """Whether a module can store into a table field: one of its names
    appears as an attribute or as an annotated name (a dataclass
    field).  A module whose text never spells a field name as a word is
    skipped without walking its tree."""
    names = frozenset(table.scalar_fields.keys() | table.packed_fields.keys())
    if not _field_name_re(names).search(module.text):
        return False
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ) and node.target.id in names:
            return True
    return False


class BitWidthProofRule(Rule):
    rule_id = "R006"
    title = "bit-field write may exceed its hardware width"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        table = default_field_table()
        if not _names_a_field(module, table):
            return
        analyzer = ValueRangeAnalyzer(table, package_root())
        for violation in analyzer.analyze_module(module.tree):
            yield self.finding(module, violation.node, violation.describe())
