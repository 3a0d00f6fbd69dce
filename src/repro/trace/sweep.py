"""Replay-mode sweeps: record each workload's stream once, replay it per
scheme.

A full (app x scheme) sweep through the timing simulator regenerates
the workload and re-runs the GPU front end for every cell even though
only the cache management differs — the coalesced access stream is
identical across schemes by construction.  This executor exploits that:
cells that differ only in scheme share one recorded trace (the trace key
hashes the *stream* identity, never the scheme — see
:func:`repro.experiments.store.stream_fingerprint`), so a 4-policy sweep
costs 1 capture + 4 replays instead of 4 full simulations.

Replay results resolve against the standard result store under
replay-mode keys (:func:`repro.experiments.store.replay_cell_key`), so
they warm-cache across invocations exactly like timing results while
never colliding with them.  All accounting is exposed as counters
(:class:`ReplaySweepStats` + the store's own stats) so tests assert
"1 capture + 4 replays" on counts, not wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover — typing only (lazy at runtime)
    from repro.batchsim.grid import GridAxis

from repro.experiments.store import (
    MemoryStore,
    replay_cell_key,
    trace_key,
)
from repro.fastsim import validate_engine
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceReader
from repro.trace.record import record_workload
from repro.trace.replay import replay_records, replay_trace
from repro.workloads import make_workload


@dataclass
class ReplaySweepStats:
    """What the replay sweep actually did (the acceptance counters)."""

    recorded: int = 0      # traces captured this run
    trace_hits: int = 0    # replayed cells whose stream was already captured
    replayed: int = 0      # cells driven through the replay engine
    store_hits: int = 0    # cells resolved from the result store

    def as_dict(self) -> Dict[str, int]:
        return {
            "recorded": self.recorded,
            "trace_hits": self.trace_hits,
            "replayed": self.replayed,
            "store_hits": self.store_hits,
        }


class TraceStore:
    """Directory of recorded traces, content-addressed by stream key."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.rptr"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def ls(self) -> List[Dict[str, object]]:
        entries = []
        for path in sorted(self.root.glob("*.rptr")):
            try:
                reader = TraceReader(path)
            except Exception:  # foreign/torn file: list nothing for it
                continue
            entries.append({"key": path.stem, **reader.meta,
                            "records": reader.total_records})
        return entries

    def clear(self) -> int:
        count = 0
        for path in self.root.glob("*.rptr"):
            path.unlink()
            count += 1
        return count


class ReplaySweepExecutor:
    """Resolve an experiment grid via record-once / replay-per-scheme.

    Parameters
    ----------
    store:
        Result store for replayed cells (``MemoryStore`` by default;
        pass a :class:`~repro.experiments.store.ResultStore` to share
        replay results across invocations).
    trace_dir:
        Where recorded traces live.  ``None`` keeps captures in a
        private in-memory record list (no file layer); point at a
        directory to persist traces in the binary format and share them
        across invocations and with the ``repro trace`` verbs.
    engine:
        L1D implementation used for replays (``reference`` or ``fast``,
        any spelling :func:`~repro.fastsim.validate_engine` accepts).
        The engines are bit-identical, so the choice never enters trace
        keys or replay-result store keys — results computed by either
        resolve the same entries.  Under ``fast``, each call replays an
        app's uncached cells as lanes of one
        :func:`~repro.batchsim.engine.replay_batch` pass.
    """

    def __init__(self, store=None, trace_dir=None,
                 config: Optional[GPUConfig] = None,
                 engine: str = "reference") -> None:
        self.store = store if store is not None else MemoryStore()
        self.traces = TraceStore(trace_dir) if trace_dir is not None else None
        self._memory_traces: Dict[str, List] = {}
        self.config = config
        self.engine = validate_engine(engine)
        self.stats = ReplaySweepStats()

    # ------------------------------------------------------------------

    def _resolved_config(self, num_sms: int) -> GPUConfig:
        return self.config if self.config is not None \
            else GPUConfig().scaled(num_sms)

    def _stream(self, abbr: str, config: GPUConfig, scale: float,
                seed: int) -> Tuple[Union[TraceReader, List], bool]:
        """Something replayable for this stream, and whether this call
        captured it (at most once per key)."""
        key = trace_key(abbr, config, scale=scale, seed=seed)
        if self.traces is not None:
            path = self.traces.path_for(key)
            captured = not path.exists()
            if captured:
                record_workload(make_workload(abbr, scale, seed=seed),
                                config, path)
            return TraceReader(path), captured
        records = self._memory_traces.get(key)
        if records is not None:
            return records, False
        from repro.trace.record import capture_records

        records = capture_records(make_workload(abbr, scale, seed=seed),
                                  config)
        self._memory_traces[key] = records
        return records, True

    def _cell_meta(self, abbr: str, scheme: str, config: GPUConfig,
                   scale: float, seed: int) -> Dict[str, object]:
        meta: Dict[str, object] = {
            "abbr": abbr, "scheme": scheme, "mode": "replay",
            "num_sms": config.num_sms, "scale": scale, "seed": seed,
        }
        if config.l1d.non_blocking:
            meta["non_blocking"] = True
        return meta

    def run_cell(
        self,
        abbr: str,
        scheme: str,
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs,
    ) -> SimResult:
        return self._run_cells(abbr, [(scheme, policy_kwargs)],
                               num_sms, scale, seed)[0]

    def _run_cells(
        self,
        abbr: str,
        cells: Sequence[Tuple[str, Dict[str, Any]]],
        num_sms: int,
        scale: float,
        seed: int,
    ) -> List[SimResult]:
        """Resolve (scheme, policy_kwargs) cells of one app: the store
        lookups, one capture-or-load of the app's stream for the misses,
        the replays, then the store puts.

        The fast engine replays the misses as lanes of one
        :func:`~repro.batchsim.engine.replay_batch` pass (one decode,
        shared set partitions); the reference engine replays them one
        by one.  Keys, meta and results are the same on both engines.
        A cell listed twice replays once, and the repeat counts as a
        store hit.
        """
        abbr = abbr.upper()
        config = self._resolved_config(num_sms)
        keys = [
            replay_cell_key(abbr, scheme, config, scale=scale, seed=seed,
                            policy_kwargs=policy_kwargs)
            for scheme, policy_kwargs in cells
        ]
        results: Dict[str, SimResult] = {}
        missing: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for key, cell in zip(keys, cells):
            if key in missing:
                self.stats.store_hits += 1
                continue
            cached = self.store.get(key)
            if cached is None:
                missing[key] = cell
            else:
                self.stats.store_hits += 1
                results[key] = cached
        if missing:
            source, captured = self._stream(abbr, config, scale, seed)
            self.stats.recorded += captured
            self.stats.trace_hits += len(missing) - captured
            replayed = self._replay(source, list(missing.values()), config)
            self.stats.replayed += len(missing)
            for (key, (scheme, _)), result in zip(missing.items(), replayed):
                self.store.put(key, result,
                               meta=self._cell_meta(abbr, scheme, config,
                                                    scale, seed))
                results[key] = result
        return [results[key] for key in keys]

    def _replay(self, source: Union[TraceReader, List],
                lanes: List[Tuple[str, Dict[str, Any]]],
                config: GPUConfig) -> List[SimResult]:
        if self.engine == "fast":
            from repro.batchsim.engine import replay_batch

            return replay_batch(source, lanes, config)
        if isinstance(source, TraceReader):
            return [replay_trace(source, scheme, config, **policy_kwargs)
                    for scheme, policy_kwargs in lanes]
        return [replay_records(iter(source), config, scheme, **policy_kwargs)
                for scheme, policy_kwargs in lanes]

    def run_sweep(
        self,
        apps: Sequence[str],
        schemes: Sequence[str],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs,
    ) -> Dict[str, Dict[str, SimResult]]:
        """The full app x scheme matrix as ``{app: {scheme: result}}``.

        Iteration is app-major so each app's trace is captured exactly
        once and immediately reused by every scheme."""
        return {
            app.upper(): dict(zip(schemes, self._run_cells(
                app, [(scheme, dict(policy_kwargs)) for scheme in schemes],
                num_sms, scale, seed,
            )))
            for app in apps
        }

    def run_grid(
        self,
        app: str,
        scheme: str,
        axes: Sequence["GridAxis"],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **base_kwargs,
    ) -> "Dict[str, SimResult]":
        """A Fig. 9-style frontier map: one app, one scheme, a cross
        product of policy-knob axes, as ``{cell_label: result}``.

        Every grid point stores under its own replay cell key (the
        policy kwargs enter the key), so grids warm-cache incrementally
        and across engines.
        """
        from repro.batchsim.grid import cell_label, expand_grid

        combos = expand_grid(list(axes))
        cells = [(scheme, {**base_kwargs, **combo}) for combo in combos]
        replayed = self._run_cells(app, cells, num_sms, scale, seed)
        return {
            cell_label(combo): result
            for combo, result in zip(combos, replayed)
        }
