"""repro.predict: the analytical prediction tier.

Given a captured ``.rptr`` trace or a registered workload, build a
temporal reuse profile (:mod:`repro.predict.profile`), estimate miss
rate / hit distribution / IPC for any scheme and L1D geometry without
stepping a cache (:mod:`repro.predict.model`), and pin the estimates to
the exact engines with a fitted calibration carrying explicit error
bars (:mod:`repro.predict.calibrate`).  The
:class:`~repro.predict.executor.PredictSweepExecutor` answers whole
experiment grids this way, and ``repro.serve`` uses the same path as
its tier-0: cold requests get an instant analytical answer while the
exact simulation runs behind it.
"""

from repro.predict.calibrate import (
    ENVELOPE_SCHEMES,
    Calibration,
    SchemeCalibration,
    build_envelope,
    default_calibration,
    fit_calibration,
)
from repro.predict.executor import PredictSweepExecutor, PredictSweepStats
from repro.predict.model import (
    PREDICTABLE_SCHEMES,
    Prediction,
    PredictionError,
    predict,
)
from repro.predict.profile import (
    NUM_EPOCHS,
    PredictProfile,
    profile_records,
    profile_trace,
    profile_workload,
    workload_insns,
)

__all__ = [
    "ENVELOPE_SCHEMES",
    "Calibration",
    "SchemeCalibration",
    "build_envelope",
    "default_calibration",
    "fit_calibration",
    "PredictSweepExecutor",
    "PredictSweepStats",
    "PREDICTABLE_SCHEMES",
    "Prediction",
    "PredictionError",
    "predict",
    "NUM_EPOCHS",
    "PredictProfile",
    "profile_records",
    "profile_trace",
    "profile_workload",
    "workload_insns",
]
