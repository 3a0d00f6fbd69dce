"""Static analysis engines behind the ``repro check`` verification rules.

Two engines live here, both pure-AST (no imports of the analyzed code):

* :mod:`repro.check.analysis.intervals` — an abstract-interpretation
  value-range analyzer over integer intervals.  Rule R006 drives it over
  every module that names a declared hardware field to prove that each
  write into such a field fits its width.
* :mod:`repro.check.analysis.parity` — AST extraction of width
  constants, the fast engine's constant imports, ``@hw_checked``
  declarations and the packed arrays' correspondence to them.  Rule
  R007 checks the cross-engine laws on it and pins it in a committed
  manifest; R006 derives its field table from it.  Both engines read
  one knob declaration, so there are no knob defaults to compare.
  R007's AST rule uses its :func:`classify_guard` to refuse the
  truthiness fallback behind the historical ``nasc=0`` bug.
"""

from repro.check.analysis.intervals import (
    FieldTable,
    Interval,
    ValueRangeAnalyzer,
    WidthViolation,
)
from repro.check.analysis.parity import (
    PARITY_MANIFEST_NAME,
    check_consistency,
    compute_parity,
    diff_parity,
    load_parity,
    parity_path,
    write_parity,
)

__all__ = [
    "FieldTable",
    "Interval",
    "ValueRangeAnalyzer",
    "WidthViolation",
    "PARITY_MANIFEST_NAME",
    "check_consistency",
    "compute_parity",
    "diff_parity",
    "load_parity",
    "parity_path",
    "write_parity",
]
