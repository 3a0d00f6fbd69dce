"""The analytical cache model: profile + scheme + geometry -> estimate.

No cache is stepped.  The estimators work from the per-epoch joint
(stack position, counter distance) reuse counts of a
:class:`~repro.predict.profile.PredictProfile`:

* **baseline / stall_bypass / 32kb / 64kb** — pure LRU: a live reuse
  hits iff its stack position is below the associativity (Mattson).
  Stall-Bypass only diverges from baseline under *timing* resource
  pressure, which the functional exact tier has none of, so the two
  share an estimator (their calibrations differ).
* **global_protection / dlp** — the Figure 9 learning loop is emulated
  over the same sampling windows the hardware uses: for each
  ~``sample_limit``-access window the model derives expected TDA hits
  (reuses the current PD saves) and VTA hits (reuses just beyond the
  cache + VTA window) from the window's epoch of the profile, then
  applies the repo's own update rules
  (:func:`repro.core.protection.pd_increment` /
  :func:`run_global_pd_update`) to evolve the PD estimate — per
  instruction for DLP, one scalar for Global-Protection.  Protection
  side effects are modelled first-order: protected occupancy crowds
  unprotected LRU residency down to an effective associativity,
  saturated sets bypass the fills that find no victim, and a bypassed
  fill's next reuse can neither hit nor leave a VTA tag.

The raw estimates carry systematic bias (stack-inclusion breaks under
write-evicts and protection, window boundaries blur); the calibration
layer (:mod:`repro.predict.calibrate`) owns the affine correction and
the error bars attached to a :class:`Prediction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.analysis.reuse import RD_LABELS, bucket_of
from repro.core import ProtectionKnobs, check_policy_kwargs
from repro.core.protection import pd_increment, run_global_pd_update
from repro.gpu.config import GPUConfig, resolve_scheme
from repro.predict.profile import (
    RD_CAP, SD_CAP, TAIL, EpochCounts, PredictProfile,
)

if TYPE_CHECKING:
    from repro.predict.calibrate import Calibration

#: Schemes the model understands (the paper's four policies plus the
#: capacity comparators, which are baseline LRU at 8/16 ways).
PREDICTABLE_SCHEMES = (
    "baseline", "stall_bypass", "global_protection", "dlp", "32kb", "64kb",
)

#: Cap on emulated windows; past this the trajectory is downsampled by
#: holding each emulated window's state for several real ones.
MAX_WINDOWS = 4096

#: Feature names of the calibrated CPI model (per-thread-instruction
#: rates; cycles = CPI x per-SM instructions, so IPC = SMs / CPI).
IPC_FEATURES = ("reads", "misses", "bypasses", "writes")


class PredictionError(ValueError):
    """The model cannot answer this request (unknown scheme, geometry
    mismatch, unsupported policy knobs)."""


@dataclass
class Prediction:
    """An analytical answer, shaped like the L1D slice of a SimResult."""

    scheme: str
    reads: int
    hits: float
    misses: float
    bypasses: float
    compulsory: int
    miss_rate: float
    hit_rate: float
    #: Fraction of predicted hits per paper RD bucket (Fig. 3 ranges).
    hit_buckets: List[float] = field(default_factory=lambda: [0.0] * 4)
    #: Final protection state of the emulation (0 for LRU schemes).
    pd_final: float = 0.0
    windows: int = 0
    #: Analytical IPC estimate (``None`` when the profile has no static
    #: instruction count — trace-only sources — or no cycle model).
    ipc: Optional[float] = None
    #: Absolute miss-rate error bar (calibration residuals); ``None``
    #: until a calibration is applied.
    error: Optional[Dict[str, float]] = None
    calibrated: bool = False

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "tier": "analytical",
            "scheme": self.scheme,
            "reads": self.reads,
            "hits": round(self.hits, 3),
            "misses": round(self.misses, 3),
            "bypasses": round(self.bypasses, 3),
            "compulsory": self.compulsory,
            "miss_rate": round(self.miss_rate, 6),
            "hit_rate": round(self.hit_rate, 6),
            "hit_buckets": {
                label: round(frac, 6)
                for label, frac in zip(RD_LABELS, self.hit_buckets)
            },
            "pd_final": round(self.pd_final, 3),
            "windows": self.windows,
            "calibrated": self.calibrated,
        }
        if self.ipc is not None:
            out["ipc"] = round(self.ipc, 4)
        if self.error is not None:
            out["error"] = {k: round(v, 6) for k, v in self.error.items()}
        return out


# ----------------------------------------------------------------------
# per-epoch reuse tables
# ----------------------------------------------------------------------


class _EpochTable:
    """One epoch's reuses, split for O(1) window queries.

    ``split(reach)`` partitions every (insn, sd, rd) count against an
    effective LRU reach into

    * ``lru[insn]`` — stack position below the reach (hits regardless
      of protection);
    * ``cum[insn][k]`` — reuses beyond reach with counter distance
      ``rd <= k`` (cumulative); ``cum[pd]`` is the protection-rescued
      mass at distance ``pd``;
    * ``band_cum[insn][k]`` / ``band_total[insn]`` — the subset of the
      beyond-reach reuses whose stack distance falls inside the VTA
      window ``[reach, reach + vta_assoc)``: the evicted tag is still
      VTA-resident (``sd - reach`` distinct blocks overflowed after it,
      fewer than the VTA ways).  ``band_total - band_cum[pd]`` is the
      *unrescued* VTA-hit mass at protection distance ``pd``;
    * ``tail[insn]`` — all reuses beyond reach (rescued or not).
    """

    def __init__(self, epoch: EpochCounts, vta_assoc: int,
                 pl_max: int) -> None:
        self.epoch = epoch
        self.vta_assoc = vta_assoc
        self.pl_max = pl_max
        self.reuse_per_insn: Dict[int, int] = {
            insn: sum(pairs.values()) for insn, pairs in epoch.joint.items()
        }
        self._splits: Dict[int, tuple] = {}

    def split(self, reach: int) -> tuple:
        cached = self._splits.get(reach)
        if cached is not None:
            return cached
        vta_edge = reach + self.vta_assoc
        lru: Dict[int, int] = {}
        cum: Dict[int, List[int]] = {}
        band_cum: Dict[int, List[int]] = {}
        band_total: Dict[int, int] = {}
        tail: Dict[int, int] = {}
        for insn, pairs in self.epoch.joint.items():
            lru_i = 0
            by_rd = [0] * (RD_CAP + 1)
            band_rd = [0] * (RD_CAP + 1)
            band_i = 0
            tail_i = 0
            for (sd, rd), n in pairs.items():
                if sd != TAIL and sd < reach:
                    lru_i += n
                    continue
                tail_i += n
                if rd != TAIL:
                    by_rd[rd] += n
                if sd != TAIL and sd < vta_edge:
                    band_i += n
                    if rd != TAIL:
                        band_rd[rd] += n
            running = band_running = 0
            for k in range(RD_CAP + 1):
                running += by_rd[k]
                by_rd[k] = running
                band_running += band_rd[k]
                band_rd[k] = band_running
            lru[insn] = lru_i
            cum[insn] = by_rd
            band_cum[insn] = band_rd
            band_total[insn] = band_i
            tail[insn] = tail_i
        result = (lru, cum, band_cum, band_total, tail)
        self._splits[reach] = result
        return result


# ----------------------------------------------------------------------
# scheme estimators
# ----------------------------------------------------------------------


def _check_profile(profile: PredictProfile, config: GPUConfig) -> None:
    l1 = config.l1d
    if (l1.num_sets, l1.line_size, l1.index_fn) != profile.geometry_key():
        raise PredictionError(
            f"profile was built for geometry {profile.geometry_key()}, "
            f"cannot answer ({l1.num_sets}, {l1.line_size}, {l1.index_fn!r}) "
            "— re-profile the stream for this set mapping"
        )


def _lru_prediction(profile: PredictProfile, scheme: str,
                    assoc: int) -> Prediction:
    hits = 0
    buckets = [0.0] * 4
    for epoch in profile.epochs:
        for pairs in epoch.joint.values():
            for (sd, rd), n in pairs.items():
                if sd != TAIL and sd < assoc:
                    hits += n
                    buckets[3 if rd == TAIL else bucket_of(rd)] += n
    reads = profile.reads
    misses = reads - hits
    total = sum(buckets)
    return Prediction(
        scheme=scheme, reads=reads, hits=float(hits),
        misses=float(misses), bypasses=0.0, compulsory=profile.compulsory,
        miss_rate=misses / reads if reads else 0.0,
        hit_rate=hits / reads if reads else 0.0,
        hit_buckets=[b / total for b in buckets] if total else [0.0] * 4,
    )


def _protected_prediction(profile: PredictProfile, scheme: str, assoc: int,
                          *, vta: int, nasc_val: int, pl_max: int,
                          sample_limit: int,
                          bypass_enabled: bool) -> Prediction:
    """Window-by-window emulation of the Figure 9 learning loop, on
    resolved :class:`~repro.core.protected.ProtectionKnobs` values."""
    per_insn = scheme == "dlp"

    accesses = profile.accesses
    sms = max(1, profile.num_sms or 1)
    # One emulated window == one sampling period of every SM at once
    # (samplers are per-SM; the merged stream advances them together).
    n_windows = max(1, round(accesses / (sample_limit * sms)))
    emulated = min(n_windows, MAX_WINDOWS)
    hold = n_windows / emulated  # real windows represented by one step

    # Re-bin the profile's epochs onto the window grid: with fewer
    # windows than epochs, sampling one midpoint epoch per window and
    # rate-scaling it up would amplify one unrepresentative slice, so
    # merge each window's whole span instead.
    src = list(profile.epochs) or [profile.merged()]
    if emulated < len(src):
        merged: List[EpochCounts] = []
        n_src = len(src)
        for w in range(emulated):
            lo = w * n_src // emulated
            hi = max(lo + 1, (w + 1) * n_src // emulated)
            group = EpochCounts()
            for e in src[lo:hi]:
                group.merge(e)
            merged.append(group)
        src = merged
    tables = [_EpochTable(e, vta, pl_max) for e in src]
    n_epochs = len(tables)
    epoch_accesses = [e.accesses for e in src]

    insns = sorted({
        i for e in profile.epochs for i in e.joint
    } | set(profile.write_evicted))
    pd: Dict[int, int] = {i: 0 for i in insns}
    global_pd = 0

    # Cross-window couplings, seeded neutral and EMA-damped: each feeds
    # back with one window of lag, and the bypass/occupancy loop rings
    # undamped.
    cached_frac = 1.0   # P(previous touch actually left the line cached)
    grant_rate = (profile.reads / accesses) if accesses else 0.0
    bypass_frac = 0.0
    damp = 0.5

    acc_hits = acc_misses = acc_bypasses = 0.0
    acc_pd = 0.0
    weight_total = 0.0
    final_reach = assoc

    window_accesses = accesses / n_windows if n_windows else 0.0

    for step in range(emulated):
        # Midpoint of the span of real windows this step stands for.
        frac = (step + 0.5) / emulated
        e_idx = min(n_epochs - 1, int(frac * n_epochs)) if n_epochs else 0
        table = tables[e_idx]
        epoch = table.epoch
        scale = (window_accesses / epoch_accesses[e_idx]
                 if epoch_accesses[e_idx] else 0.0)

        # Protected occupancy -> effective associativity (crowd-out) and
        # set-saturation bypass probability (Little's law: each granting
        # access protects one line for ~PD set queries).
        if per_insn:
            grants = sum(table.reuse_per_insn.values())
            mean_pd = (
                sum(pd[i] * n for i, n in table.reuse_per_insn.items())
                / grants if grants else 0.0
            )
        else:
            mean_pd = float(global_pd)
        occupancy = grant_rate * cached_frac * mean_pd
        assoc_eff = max(1, assoc - int(occupancy))
        p_bypass = min(1.0, max(0.0, occupancy - (assoc - 1))) \
            if bypass_enabled else 0.0
        # A bypassed fill displaces nothing, so every bypass shrinks the
        # stack distances of the reuses around it: stretch the LRU reach
        # by the surviving-fill fraction.
        reach = max(assoc_eff, min(
            SD_CAP, int(round(assoc_eff / max(0.05, 1.0 - bypass_frac)))))
        final_reach = reach

        lru, cum, band_cum, band_total, tail = table.split(reach)
        w_hits = w_vta = w_tail = 0.0
        insn_stats: List[Tuple[int, float, float]] = []
        for i in insns:
            pd_i = pd[i] if per_insn else global_pd
            lru_i = lru.get(i, 0)
            cum_i = cum.get(i)
            saved = cum_i[min(pd_i, RD_CAP)] if cum_i else 0
            band_i = band_cum.get(i)
            vta_raw = (band_total.get(i, 0) - band_i[min(pd_i, RD_CAP)]) \
                if band_i else 0
            vta_i = vta_raw * scale * cached_frac
            tda_i = (lru_i + saved) * scale * cached_frac
            miss_i = (tail.get(i, 0) - saved) * scale
            w_hits += tda_i
            w_vta += vta_i
            w_tail += miss_i + (lru_i + saved) * scale * (1.0 - cached_frac)
            insn_stats.append((i, vta_i, tda_i))
        w_write_evicted = epoch.write_evicted * scale
        w_compulsory = epoch.compulsory * scale
        w_misses = w_tail + w_write_evicted + w_compulsory
        w_bypassed = p_bypass * w_misses

        acc_hits += hold * w_hits
        acc_misses += hold * (w_misses - w_bypassed)
        acc_bypasses += hold * w_bypassed
        acc_pd += hold * (
            sum(pd.values()) / len(pd) if per_insn and pd else global_pd
        )
        weight_total += hold

        # Couplings feed the *next* window (EMA-damped).
        w_reads = epoch.reads * scale
        if w_reads > 0:
            sample = min(1.0, w_bypassed / w_reads)
            bypass_frac += damp * (sample - bypass_frac)
            cached_frac = max(0.0, min(1.0, 1.0 - bypass_frac))
        w_acc = epoch.accesses * scale
        if w_acc > 0:
            sample = (w_hits + (w_misses - w_bypassed)) / w_acc
            grant_rate += damp * (sample - grant_rate)

        # Figure 9 decision at sample end, via the repo's own rules.
        g_tda, g_vta = w_hits, w_vta
        if per_insn:
            if g_vta > g_tda:
                for i, vta_i, tda_i in insn_stats:
                    delta = pd_increment(nasc_val, vta_i, tda_i)
                    if delta:
                        pd[i] = min(pd[i] + delta, pl_max)
            elif 2 * g_vta < g_tda:
                for i in insns:
                    pd[i] = max(pd[i] - nasc_val, 0)
        else:
            global_pd, _ = run_global_pd_update(
                global_pd, pl_max, nasc_val, g_tda, g_vta)

    hits = acc_hits
    misses = acc_misses
    bypasses = acc_bypasses
    serviced = max(profile.reads - bypasses, 1e-9)
    buckets = [0.0] * 4
    for table in tables:
        for insn, pairs in table.epoch.joint.items():
            pd_i = pd[insn] if per_insn else global_pd
            for (sd, rd), n in pairs.items():
                hit = (sd != TAIL and sd < final_reach) or (
                    rd != TAIL and rd <= pd_i)
                if hit:
                    buckets[3 if rd == TAIL else bucket_of(rd)] += n
    total = sum(buckets)
    return Prediction(
        scheme=scheme, reads=profile.reads, hits=hits, misses=misses,
        bypasses=bypasses, compulsory=profile.compulsory,
        miss_rate=min(1.0, misses / serviced),
        hit_rate=max(0.0, min(1.0, hits / serviced)),
        hit_buckets=[b / total for b in buckets] if total else [0.0] * 4,
        pd_final=(acc_pd / weight_total if weight_total else 0.0),
        windows=n_windows,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def predict(profile: PredictProfile, scheme: str,
            config: Optional[GPUConfig] = None,
            calibration: Optional[Calibration] = None,
            **policy_kwargs: Any) -> Prediction:
    """Analytically estimate one (stream, scheme, geometry) cell.

    ``calibration`` is a :class:`repro.predict.calibrate.Calibration`
    (or ``None`` for the raw model).  ``policy_kwargs`` accepts the
    protection knobs the replay path accepts, but for
    ``insn_sample_limit``, which the model has no notion of; any other
    knob, or a value :class:`~repro.core.protected.ProtectionKnobs`
    refuses, raises :class:`PredictionError`.
    """
    if scheme not in PREDICTABLE_SCHEMES:
        raise PredictionError(
            f"unknown scheme {scheme!r}; predictable: "
            f"{', '.join(PREDICTABLE_SCHEMES)}"
        )
    config = config or GPUConfig().scaled(profile.num_sms or 1)
    _, config = resolve_scheme(scheme, config)
    assoc = config.l1d.assoc
    _check_profile(profile, config)

    if "insn_sample_limit" in policy_kwargs:
        raise PredictionError(
            "the analytical model has no instruction cap on its sampling "
            "windows; submit insn_sample_limit without predict for exact "
            "results"
        )
    try:
        check_policy_kwargs(scheme, policy_kwargs)
    except (TypeError, ValueError) as exc:
        raise PredictionError(str(exc)) from None
    if scheme in ("global_protection", "dlp"):
        knobs = ProtectionKnobs(**policy_kwargs)
        vta, nasc_val = knobs.resolve(assoc)
        prediction = _protected_prediction(
            profile, scheme, assoc, vta=vta, nasc_val=nasc_val,
            pl_max=knobs.pl_max, sample_limit=knobs.sample_limit,
            bypass_enabled=knobs.bypass_enabled)
    else:
        prediction = _lru_prediction(profile, scheme, assoc)

    if calibration is not None:
        prediction = calibration.apply(prediction)
    if profile.insns is not None:
        prediction.ipc = _estimate_ipc(profile, prediction, config,
                                       calibration)
    return prediction


def _estimate_ipc(profile: PredictProfile, prediction: Prediction,
                  config: GPUConfig,
                  calibration: Optional[Calibration]) -> Optional[float]:
    """IPC from the calibrated CPI model (None without coefficients)."""
    tables = getattr(calibration, "ipc_coeffs", None) if calibration else None
    coeffs = tables.get(prediction.scheme) if tables else None
    if not coeffs or not profile.insns:
        return None
    sms = max(1, profile.num_sms or config.num_sms)
    insns = float(profile.insns)
    rates = {
        "reads": profile.reads / insns,
        "misses": prediction.misses / insns,
        "bypasses": prediction.bypasses / insns,
        "writes": profile.writes / insns,
    }
    cpi = coeffs.get("intercept", 0.0)
    for name in IPC_FEATURES:
        cpi += coeffs.get(name, 0.0) * rates[name]
    if cpi <= 0:
        return None
    # cycles = cpi * (insns / sms)  =>  ipc = insns / cycles = sms / cpi
    return sms / cpi
