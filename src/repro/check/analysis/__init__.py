"""Static analysis engines behind the ``repro check`` verification rules.

Two engines live here, both pure-AST (no imports of the analyzed code):

* :mod:`repro.check.analysis.intervals` — an abstract-interpretation
  value-range analyzer over integer intervals.  Rule R006 drives it over
  every module that names a declared hardware field to prove that each
  write into such a field fits its width.
* :mod:`repro.check.analysis.parity` — AST extraction of policy knob
  defaults, override-guard styles, width constants and ``@hw_checked``
  declarations from the reference policies and the packed fast engine.
  Rule R007 compares the two sides (and a committed manifest) to catch
  reference/fastsim drift of the class that caused the historical
  ``nasc=0`` override bug.
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
