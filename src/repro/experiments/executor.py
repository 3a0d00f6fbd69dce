"""Parallel sweep executor: fan an experiment grid across processes.

The unit of work is a :class:`Cell` — one ``(workload, scheme, config)``
point, simulated on the timing model or, in replay mode, replayed from
its recorded trace by :class:`repro.trace.sweep.ReplaySweepExecutor`.
:class:`SweepExecutor` resolves each timing cell against a result
store (see :mod:`repro.experiments.store`) and only simulates the
misses, either serially in-process (``jobs=1``) or on a
:class:`~concurrent.futures.ProcessPoolExecutor` (``jobs>=2``).

Correctness invariants (enforced by the differential oracle in
``tests/oracle.py`` / ``tests/integration/test_executor_differential.py``):

* serial and parallel execution of the same grid yield bit-identical
  :class:`~repro.gpu.simulator.SimResult` payloads — each cell's
  workload RNG is seeded deterministically from the cell itself
  (:func:`repro.utils.rng.derive_seed`), never from worker identity or
  submission order;
* cold-store and warm-store runs yield bit-identical payloads — both
  paths round-trip results through ``SimResult.to_dict``/``from_dict``,
  so a freshly simulated result and a replayed one are the same object
  shape bit for bit.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.experiments.store import (
    MemoryStore,
    cell_fingerprint,
    cell_key,
    replay_cell_fingerprint,
    replay_cell_key,
)
from repro.utils.rng import derive_seed

#: A cell runs in one of two modes; the mode picks the worker entry
#: point (:func:`simulate_cell`, or the replay sweep executor) and the
#: key namespace (:func:`cell_key` or :func:`replay_cell_key`).
MODE_SIM = "sim"
MODE_REPLAY = "replay"


@dataclass(frozen=True)
class Cell:
    """One experiment-grid cell, hashable and picklable.

    The one description of a cell for the sweep executors and the
    service: its machine, store key, fingerprint and store meta are
    computed here and nowhere else.  ``mode`` says whether the cell is
    simulated on the timing model (``"sim"``) or replayed from its
    recorded trace (``"replay"``).

    ``policy_kwargs`` is a sorted tuple of ``(name, value)`` pairs so the
    cell stays hashable; build cells through :meth:`make` to get the
    normalisation (upper-cased abbr, sorted kwargs) for free.

    ``engine`` selects the L1D implementation (reference or fast).  It
    is deliberately **excluded** from :meth:`key`, :meth:`meta` and
    :meth:`fingerprint`: the engines are bit-identical, so results
    computed by either resolve the same store entry.
    """

    abbr: str
    scheme: str
    num_sms: int = 4
    scale: float = 1.0
    seed: int = 0
    max_cycles: Optional[int] = None
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    config: Optional[GPUConfig] = None
    engine: str = "reference"
    mode: str = MODE_SIM
    #: The content address, stored by the first :meth:`key` call: a
    #: warm service request asks for it several times, and the cell is
    #: frozen.
    _key: Optional[str] = field(default=None, init=False, repr=False,
                                compare=False)

    @classmethod
    def make(
        cls,
        abbr: str,
        scheme: str,
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        max_cycles: Optional[int] = None,
        config: Optional[GPUConfig] = None,
        engine: str = "reference",
        mode: str = MODE_SIM,
        **policy_kwargs,
    ) -> "Cell":
        return cls(
            abbr=abbr.upper(),
            scheme=scheme,
            num_sms=num_sms,
            scale=scale,
            seed=seed,
            max_cycles=max_cycles,
            policy_kwargs=tuple(sorted(policy_kwargs.items())),
            config=config,
            engine=engine,
            mode=mode,
        )

    def cell(self, engine: str) -> "Cell":
        """This cell on ``engine``; the key is unchanged."""
        return self if engine == self.engine \
            else dataclasses.replace(self, engine=engine)

    def resolved_config(self) -> GPUConfig:
        """Explicit config wins; otherwise the scaled harness machine."""
        return self.config if self.config is not None else GPUConfig().scaled(self.num_sms)

    @property
    def non_blocking(self) -> bool:
        """Non-blocking L1D: part of the semantics, so (unlike the
        engine) it enters the key, through the config."""
        return self.config is not None and self.config.l1d.non_blocking

    def key(self) -> str:
        """Content address; the service coalesces on it."""
        if self._key is not None:
            return self._key
        kwargs = dict(self.policy_kwargs)
        if self.mode == MODE_REPLAY:
            key = replay_cell_key(
                self.abbr, self.scheme, self.resolved_config(),
                scale=self.scale, seed=self.seed, policy_kwargs=kwargs,
            )
        else:
            key = cell_key(
                self.abbr, self.scheme, self.resolved_config(),
                scale=self.scale, seed=self.seed,
                max_cycles=self.max_cycles, policy_kwargs=kwargs,
            )
        object.__setattr__(self, "_key", key)
        return key

    def meta(self) -> Dict[str, Any]:
        """Human-readable store metadata (what ``repro store ls`` shows),
        the same whoever writes the entry."""
        meta: Dict[str, Any] = {
            "abbr": self.abbr,
            "scheme": self.scheme,
            "num_sms": self.resolved_config().num_sms,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.mode == MODE_REPLAY:
            meta["mode"] = MODE_REPLAY
        if self.non_blocking:
            meta["non_blocking"] = True
        return meta

    def fingerprint(self) -> Dict[str, Any]:
        """The cell's full content-addressed identity (JSON data)."""
        kwargs = dict(self.policy_kwargs)
        if self.mode == MODE_REPLAY:
            return replay_cell_fingerprint(
                self.abbr, self.scheme, self.resolved_config(),
                scale=self.scale, seed=self.seed, policy_kwargs=kwargs,
            )
        return cell_fingerprint(
            self.abbr, self.scheme, self.resolved_config(),
            scale=self.scale, seed=self.seed, max_cycles=self.max_cycles,
            policy_kwargs=kwargs,
        )

    def describe(self) -> Dict[str, Any]:
        """Compact JSON identity (the service's job documents)."""
        out = {
            "mode": self.mode,
            "app": self.abbr,
            "scheme": self.scheme,
            "sms": self.num_sms,
            "scale": self.scale,
            "seed": self.seed,
            "key": self.key(),
        }
        if self.non_blocking:
            out["non_blocking"] = True
        return out


class CellExecutionError(RuntimeError):
    """One cell's simulation or replay failed.

    A bare ``ProcessPoolExecutor`` traceback says *that* a worker died
    but not *which cell* killed it — useless in a 40-cell sweep and
    worse in a service job-failure payload.  This wraps the original
    exception with the failing cell's identity: the human-readable
    summary in the message, and the full content-addressed
    :meth:`Cell.fingerprint` for machine consumers (``repro.serve``
    returns :meth:`payload` as a failed job's ``error``).
    """

    def __init__(self, cell: Cell, key: str, cause: BaseException) -> None:
        self.cell = cell
        self.key = key
        self.cause = cause
        meta = cell.meta()
        ident = ", ".join(f"{k}={v}" for k, v in meta.items())
        super().__init__(
            f"cell {key[:12]} ({ident}) failed: "
            f"{type(cause).__name__}: {cause}"
        )

    def payload(self) -> Dict[str, Any]:
        """Machine-readable failure description (service job payloads)."""
        return {
            "key": self.key,
            "unit": self.cell.describe(),
            "fingerprint": self.cell.fingerprint(),
            "error": f"{type(self.cause).__name__}: {self.cause}",
        }


def check_mode(cells: Sequence[Cell], mode: str) -> None:
    """Refuse a cell of another mode: its key names another experiment,
    so its result would answer that experiment from the store."""
    for cell in cells:
        if cell.mode != mode:
            raise ValueError(f"{cell.abbr}/{cell.scheme} is a {cell.mode} "
                             f"cell; this executor runs {mode} cells")


def simulate_cell(cell: Cell) -> Dict[str, Any]:
    """Run one cell and return its serialized result (worker entry point).

    Workload RNG streams are keyed by ``derive_seed(cell.key(), seed)``
    when the cell carries a nonzero seed, so results depend only on the
    cell's identity — the same cell simulated by any worker, in any
    order, produces the same payload.  Returns a plain dict (not a
    ``SimResult``) so the payload crossing the process boundary is the
    exact on-disk representation.
    """
    # Imported lazily: the runner imports this module, and pool workers
    # re-import repro anyway.
    from repro.experiments.runner import run_workload

    workload_seed = derive_seed(cell.key(), cell.seed) if cell.seed else 0
    result = run_workload(
        cell.abbr,
        cell.scheme,
        cell.resolved_config(),
        scale=cell.scale,
        seed=workload_seed,
        max_cycles=cell.max_cycles,
        engine=cell.engine,
        **dict(cell.policy_kwargs),
    )
    return result.to_dict()


@dataclass
class ExecutorStats:
    """What the executor actually did (vs. resolved from the store)."""

    simulated: int = 0
    store_hits: int = 0
    deduped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "simulated": self.simulated,
            "store_hits": self.store_hits,
            "deduped": self.deduped,
        }


class SweepExecutor:
    """Resolve experiment cells through a store, simulating only misses.

    Parameters
    ----------
    store:
        Any object with the store interface (``get``/``put``/``clear``/
        ``stats``); defaults to a fresh :class:`MemoryStore`, which makes
        a bare executor behave like the old per-process ``lru_cache``.
    jobs:
        Worker processes for miss simulation.  1 = serial in-process
        (no pool, no pickling); >=2 = ``ProcessPoolExecutor``.
    """

    def __init__(self, store=None, jobs: int = 1) -> None:
        self.store = store if store is not None else MemoryStore()
        self.jobs = max(1, int(jobs))
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------

    def run_cell(self, cell: Cell) -> SimResult:
        return self.run_cells([cell])[0]

    def run_cells(self, cells: Iterable[Cell]) -> List[SimResult]:
        """Resolve a batch of cells, preserving input order.

        Duplicate cells (same key) are simulated at most once; store
        misses fan out across the worker pool when ``jobs >= 2``.
        """
        cells = list(cells)
        check_mode(cells, MODE_SIM)
        keys = [cell.key() for cell in cells]
        resolved: Dict[str, SimResult] = {}
        pending: Dict[str, Cell] = {}
        for key, cell in zip(keys, cells):
            if key in resolved or key in pending:
                self.stats.deduped += 1
                continue
            cached = self.store.get(key)
            if cached is not None:
                resolved[key] = cached
                self.stats.store_hits += 1
            else:
                pending[key] = cell
        if pending:
            for key, payload in self._simulate_all(pending):
                result = SimResult.from_dict(payload)
                self.store.put(key, result, meta=pending[key].meta())
                resolved[key] = result
            self.stats.simulated += len(pending)
        return [resolved[key] for key in keys]

    def run_sweep(
        self,
        apps: Sequence[str],
        schemes: Sequence[str],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        engine: str = "reference",
        config: Optional[GPUConfig] = None,
        **policy_kwargs,
    ) -> Dict[str, Dict[str, SimResult]]:
        """The full app x scheme matrix as ``{app: {scheme: result}}``.

        ``config`` overrides the default scaled harness machine for every
        cell (e.g. a non-blocking L1D variant); it enters each cell's
        store key via :meth:`Cell.resolved_config`.
        """
        apps = [a.upper() for a in apps]
        grid = [
            Cell.make(app, scheme, num_sms=num_sms, scale=scale, seed=seed,
                      config=config, engine=engine, **policy_kwargs)
            for app in apps
            for scheme in schemes
        ]
        flat = iter(self.run_cells(grid))
        return {app: {scheme: next(flat) for scheme in schemes} for app in apps}

    # ------------------------------------------------------------------

    def _simulate_all(
        self, pending: Dict[str, Cell]
    ) -> List[Tuple[str, Dict[str, Any]]]:
        items = list(pending.items())
        if self.jobs == 1 or len(items) == 1:
            out = []
            for key, cell in items:
                try:
                    out.append((key, simulate_cell(cell)))
                except Exception as exc:
                    raise CellExecutionError(cell, key, exc) from exc
            return out
        out = []
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
            futures = {
                pool.submit(simulate_cell, cell): key for key, cell in items
            }
            for future in as_completed(futures):
                key = futures[future]
                try:
                    out.append((key, future.result()))
                except Exception as exc:
                    raise CellExecutionError(pending[key], key, exc) from exc
        return out
