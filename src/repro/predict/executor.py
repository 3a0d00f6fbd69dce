"""Analytical sweep executor: answers grid cells without simulating.

``PredictSweepExecutor`` mirrors the :class:`ReplaySweepExecutor`
surface (``run_cell`` / ``run_sweep`` over an app x scheme grid) but
returns :class:`~repro.predict.model.Prediction` objects computed from
cached reuse profiles — one profiling pass per stream answers every
scheme and geometry.

Predictions are estimates, so this executor NEVER writes to a result
store: the exact-tier store keys (:func:`repro.experiments.store.
cell_key` / ``replay_cell_key``) stay reserved for simulated results,
and an analytical answer can never be mistaken for (or supersede) an
exact one.  The only cache here is the in-memory profile cache, keyed
by the same stream identity (:func:`repro.experiments.store.trace_key`)
the replay tier uses for its traces.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.experiments.store import trace_key
from repro.gpu.config import GPUConfig
from repro.predict.calibrate import Calibration, default_calibration
from repro.predict.model import Prediction, predict
from repro.predict.profile import (
    PredictProfile,
    profile_trace,
    profile_workload,
)

_UNSET = object()


@dataclass
class PredictSweepStats:
    """What the analytical sweep actually did."""

    profiled: int = 0        # profiling passes run this invocation
    profile_hits: int = 0    # cells answered from a cached profile
    predicted: int = 0       # analytical answers produced
    prediction_hits: int = 0  # answers served from the prediction memo

    def as_dict(self) -> Dict[str, int]:
        return {
            "profiled": self.profiled,
            "profile_hits": self.profile_hits,
            "predicted": self.predicted,
            "prediction_hits": self.prediction_hits,
        }


class PredictSweepExecutor:
    """Resolve an experiment grid analytically: profile once per stream,
    predict per scheme.

    Parameters
    ----------
    calibration:
        A :class:`~repro.predict.calibrate.Calibration` to pin the
        model, ``None`` for the raw model, or omitted for the packaged
        default table.
    trace_dir:
        Optional directory of recorded ``.rptr`` traces (the replay
        tier's :class:`~repro.trace.sweep.TraceStore` layout).  When a
        cell's stream is already recorded there, the profile is built
        from the trace instead of re-capturing the workload.
    """

    def __init__(self, config: Optional[GPUConfig] = None,
                 calibration: Any = _UNSET,
                 trace_dir: Optional[Union[str, Path]] = None) -> None:
        self.config = config
        self.calibration: Optional[Calibration] = (
            default_calibration() if calibration is _UNSET else calibration
        )
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._profiles: Dict[str, PredictProfile] = {}
        # A prediction is a pure function of (stream, scheme, geometry,
        # policy kwargs), so repeated cells — the serve tier-0 steady
        # state — are answered from this memo in microseconds.
        self._predictions: Dict[tuple, Prediction] = {}
        self.stats = PredictSweepStats()

    # ------------------------------------------------------------------

    def _resolved_config(self, num_sms: int) -> GPUConfig:
        return self.config if self.config is not None \
            else GPUConfig().scaled(num_sms)

    def profile_for(self, abbr: str, config: GPUConfig,
                    scale: float, seed: int) -> PredictProfile:
        """The stream's profile, computed at most once per stream key."""
        key = trace_key(abbr, config, scale=scale, seed=seed)
        profile = self._profiles.get(key)
        if profile is not None:
            self.stats.profile_hits += 1
            return profile
        trace_path = (self.trace_dir / f"{key}.rptr"
                      if self.trace_dir is not None else None)
        if trace_path is not None and trace_path.exists():
            from repro.trace.format import TraceReader

            profile = profile_trace(TraceReader(trace_path), config)
        else:
            profile = profile_workload(abbr, config, scale, seed)
        self.stats.profiled += 1
        self._profiles[key] = profile
        return profile

    def run_cell(
        self,
        abbr: str,
        scheme: str,
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs: Any,
    ) -> Prediction:
        abbr = abbr.upper()
        config = self._resolved_config(num_sms)
        memo_key = (abbr, scheme, num_sms, scale, seed,
                    tuple(sorted(policy_kwargs.items())))
        cached = self._predictions.get(memo_key)
        if cached is not None:
            self.stats.prediction_hits += 1
            return copy.deepcopy(cached)
        profile = self.profile_for(abbr, config, scale, seed)
        prediction = predict(profile, scheme, config,
                             calibration=self.calibration, **policy_kwargs)
        self.stats.predicted += 1
        self._predictions[memo_key] = copy.deepcopy(prediction)
        return prediction

    def run_sweep(
        self,
        apps: Sequence[str],
        schemes: Sequence[str],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs: Any,
    ) -> Dict[str, Dict[str, Prediction]]:
        """The full app x scheme matrix as ``{app: {scheme: prediction}}``
        — app-major, so each stream is profiled exactly once."""
        return {
            app.upper(): {
                scheme: self.run_cell(
                    app, scheme, num_sms=num_sms, scale=scale, seed=seed,
                    **policy_kwargs,
                )
                for scheme in schemes
            }
            for app in apps
        }
