"""Static analysis and runtime hardware contracts (``repro check``).

The reproduction's two pillars — bit-identical trace replay and the
parallel sweep oracle — silently depend on properties nothing else
enforces: every source of nondeterminism must flow through
:mod:`repro.utils.rng`, and every modeled hardware field must respect
the paper's declared widths (7-bit hashed instruction ID, 4-bit
Protected Life, clamped PD, saturating PDPT hit counters).  This
package makes both checkable:

* :mod:`repro.check.contracts` — declarative :class:`BitField` /
  :class:`SaturatingCounter` descriptors plus the ``@hw_checked`` class
  decorator.  Zero overhead when ``REPRO_CHECK`` is unset; raises
  :class:`HardwareContractViolation` on any out-of-range or non-integer
  write when enabled.
* :mod:`repro.check.lint` — an AST linter with repo-specific rules
  (R001 nondeterminism, R002 float contamination, R004 cross-process
  hazards, R005 missing ``SIM_VERSION`` bump, R006
  abstract-interpretation bit-width proofs, R007 reference/fastsim
  engine parity, R008 store-key purity, R009 async hygiene, R010
  strict-mode marker hygiene), statement-scoped allow-markers, a
  baseline-suppression file, ``--strict`` mode and JSON/SARIF output.
  The simulator imports this package for its contracts, so the linter
  is imported from :mod:`repro.check.lint` directly, never re-exported
  here.
* :mod:`repro.check.analysis` — the static engines behind R006/R007:
  an integer-interval abstract interpreter over the AST and the
  engine-parity extractor with its committed ``parity_manifest.json``.
* :mod:`repro.check.manifest` — the semantics manifest backing R005: a
  content hash of every source file in the simulation packages
  (:data:`~repro.check.manifest.SEMANTIC_PACKAGES`: ``core/``,
  ``cache/``, ``fastsim/``, ``batchsim/``, ``gpu/``, ``memory/`` and
  ``workloads/``), bound to the
  :data:`~repro.experiments.store.SIM_VERSION` it was recorded at.

``python -m repro check`` is the CLI front door; CI runs it with
``--strict`` plus the full test suite under ``REPRO_CHECK=1``.  The
runtime contracts are the *backstop*; the widths themselves are proven
statically by R006 at lint time.
"""

from repro.check.contracts import (
    BitField,
    HardwareContractViolation,
    SaturatingCounter,
    contracts_enabled,
    hw_checked,
    instrument,
    set_field_width,
)

__all__ = [
    "BitField",
    "SaturatingCounter",
    "HardwareContractViolation",
    "contracts_enabled",
    "hw_checked",
    "instrument",
    "set_field_width",
]
