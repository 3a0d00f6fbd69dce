"""Content-addressed on-disk store for simulation results.

Every experiment cell — one ``(workload, scheme, config)`` simulation —
is identified by a key hashed over *everything that determines its
outcome*: the workload abbreviation, scale and seed, the scheme name and
policy kwargs, every :class:`~repro.gpu.config.GPUConfig` field, and a
simulator version stamp.  Identical cells therefore share one store
entry across processes and invocations, and any semantic change to the
simulator is isolated by bumping :data:`SIM_VERSION`.

**Versioning rule:** bump :data:`SIM_VERSION` whenever a change alters
what any simulation *produces* (counters, timing, policy behaviour).
Pure refactors that keep results bit-identical must not bump it — the
differential oracle (``tests/oracle.py``) is the check for that.

Two implementations share the same interface:

* :class:`MemoryStore` — per-process dict; the default memoisation layer
  (replaces the old ``lru_cache`` in the experiment runner).
* :class:`ResultStore` — directory of JSON payloads, shared across
  processes and invocations; what ``repro sweep --store DIR`` and the
  benchmark harness use.

Both count hits/misses/puts so tests can assert "the second sweep
simulated nothing" on counters instead of wall clock.  Both also name
each entry's current version cheaply (:meth:`ResultStore.entry_version`),
so a caller that keeps what it parsed for one version (the serve
scheduler's shared payloads) can tell, without reading the entry,
whether it still matches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.utils import wallclock

#: Bump on any change that alters simulation *semantics* (see module
#: docstring); stale entries keyed under older stamps are simply never
#: matched again and can be dropped with ``repro store clear``.
SIM_VERSION = "2"

#: Default on-disk location, overridable via the environment.
STORE_ENV_VAR = "REPRO_STORE"
DEFAULT_STORE_DIR = ".repro-store"


def default_store_dir() -> str:
    return os.environ.get(STORE_ENV_VAR, DEFAULT_STORE_DIR)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_fingerprint(
    abbr: str,
    scheme: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    sim_version: str = SIM_VERSION,
) -> Dict[str, Any]:
    """The full identity of one experiment cell, as plain JSON data.

    ``non_blocking`` is part of the cache *semantics* (unlike the engine
    choice), so it stays in the fingerprint when enabled; when off it is
    dropped so every pre-existing blocking-mode key is preserved.
    """
    # ``dataclasses.asdict`` without its deep copy: every field is a
    # scalar but ``l1d``, and a nested config added later would fail to
    # serialize, never hash silently.  Fresh dicts: callers edit them.
    config_dict = {f.name: getattr(config, f.name)
                   for f in dataclasses.fields(config)}
    l1d = config_dict["l1d"] = {f.name: getattr(config.l1d, f.name)
                                for f in dataclasses.fields(config.l1d)}
    if not l1d["non_blocking"]:
        del l1d["non_blocking"]
    return {
        "abbr": abbr.upper(),
        "scheme": scheme,
        "scale": scale,
        "seed": seed,
        "max_cycles": max_cycles,
        "policy_kwargs": dict(policy_kwargs or {}),
        "config": config_dict,
        "sim_version": sim_version,
    }


def cell_key(
    abbr: str,
    scheme: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    sim_version: str = SIM_VERSION,
) -> str:
    """Content-address of one cell: SHA-256 over the canonical
    fingerprint JSON."""
    text = canonical_json(
        cell_fingerprint(
            abbr, scheme, config, scale, seed, max_cycles,
            policy_kwargs, sim_version,
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# trace-aware keys (repro.trace)
# ----------------------------------------------------------------------

#: Bump whenever the trace *capture* semantics change (what the
#: functional interleaving emits, or the on-disk record contents).
TRACE_VERSION = "1"


def stream_fingerprint(
    abbr: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    trace_version: str = TRACE_VERSION,
) -> Dict[str, Any]:
    """Identity of one workload's *access stream*, as plain JSON data.

    Deliberately narrower than :func:`cell_fingerprint`: only the fields
    that shape the coalesced L1D stream enter (CTA placement, residency,
    line granularity) — never the scheme, cache associativity or timing
    parameters.  Cells that differ only in those therefore share one
    recorded trace.
    """
    return {
        "abbr": abbr.upper(),
        "scale": scale,
        "seed": seed,
        "num_sms": config.num_sms,
        "max_ctas_per_sm": config.max_ctas_per_sm,
        "max_warps_per_sm": config.max_warps_per_sm,
        "line_size": config.l1d.line_size,
        "trace_version": trace_version,
    }


def trace_key(
    abbr: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    trace_version: str = TRACE_VERSION,
) -> str:
    """Content-address of one recorded access stream."""
    text = canonical_json(
        stream_fingerprint(abbr, config, scale, seed, trace_version)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay_cell_key(
    abbr: str,
    scheme: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content-address of one *replayed* cell: SHA-256 over
    :func:`replay_cell_fingerprint`."""
    fp = replay_cell_fingerprint(abbr, scheme, config, scale, seed,
                                 policy_kwargs)
    return hashlib.sha256(canonical_json(fp).encode("utf-8")).hexdigest()


def replay_cell_fingerprint(
    abbr: str,
    scheme: str,
    config: GPUConfig,
    scale: float = 1.0,
    seed: int = 0,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The full identity of one *replayed* cell, as plain JSON data.

    Replay results live in the same stores as timing results but under a
    distinct mode tag — a trace-driven functional replay and a full
    timing simulation of the same cell are different experiments and
    must never collide.  Replay has no cycle cap, so ``max_cycles`` is
    always ``None``.
    """
    fp = cell_fingerprint(
        abbr, scheme, config, scale, seed, None, policy_kwargs,
    )
    fp["mode"] = "replay"
    fp["trace_version"] = TRACE_VERSION
    return fp


@dataclass
class StoreStats:
    """Lookup/insert counters — the "was it cached?" oracle for tests."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}


class MemoryStore:
    """In-process result store (the default memoisation layer)."""

    def __init__(self) -> None:
        self._data: Dict[str, SimResult] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}
        #: Per key, the sequence number of the ``put`` that wrote it.
        self._versions: Dict[str, int] = {}
        self._put_seq = 0
        self.stats = StoreStats()

    def get(self, key: str) -> Optional[SimResult]:
        result = self._data.get(key)
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def entry_version(self, key: str) -> Optional[int]:
        """The entry's version: which ``put`` wrote it (a counter, never
        ``id()``, which a freed result can hand to its successor), or
        ``None`` when absent.  Every ``put`` gives a new version, even
        of an equal result."""
        return self._versions.get(key)

    def put(self, key: str, result: SimResult,
            meta: Optional[Dict[str, Any]] = None) -> None:
        self._data[key] = result
        self._meta[key] = dict(meta or {})
        self._put_seq += 1
        self._versions[key] = self._put_seq
        self.stats.puts += 1

    def ls(self) -> List[Dict[str, Any]]:
        return [
            {"key": key, **self._meta.get(key, {})}
            for key in sorted(self._data)
        ]

    def clear(self) -> int:
        count = len(self._data)
        self._data.clear()
        self._meta.clear()
        self._versions.clear()
        return count

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data


class ResultStore:
    """Directory-backed result store, shared across processes.

    Layout: one ``<key>.json`` file per cell under ``root``, holding
    ``{"meta": {...human-readable cell summary...}, "result": {...}}``
    where ``result`` is :meth:`SimResult.to_dict` output.  Writes are
    atomic (tmp file + ``os.replace``) so concurrent sweeps sharing a
    store directory never observe torn payloads.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _load(path: Path) -> Optional[Tuple[Dict[str, Any], SimResult]]:
        """One entry's ``(meta, result)``, or ``None`` when the file is
        gone, torn, or parses as JSON but is not a whole entry."""
        try:
            payload = json.loads(path.read_text())
            return (dict(payload.get("meta", {})),
                    SimResult.from_dict(payload["result"]))
        except (FileNotFoundError, ValueError, KeyError, TypeError,
                AttributeError):
            return None

    def get(self, key: str) -> Optional[SimResult]:
        """The stored result, or ``None`` (a counted miss) when the
        entry is absent, torn or malformed; the next ``put`` of the key
        overwrites a bad entry."""
        entry = self._load(self._path(key))
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry[1]

    def entry_version(self, key: str) -> Optional[Tuple[int, int, int]]:
        """The entry's version from one ``os.stat``: ``(st_ino,
        st_mtime_ns, st_size)``, or ``None`` when the entry is absent.

        A ``put`` stages its file while the old entry still exists, so
        the entry it publishes has another inode; an edit in place that
        changes the size or the mtime changes it too.  Only a same-size
        rewrite of the same inode within one mtime tick keeps it.  Says
        nothing about whether the entry parses: :meth:`get` does that.
        """
        try:
            st = os.stat(self._path(key))
        except FileNotFoundError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def put(self, key: str, result: SimResult,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Atomically publish one entry.

        The payload is staged in a per-process ``*.tmp.<pid>`` file,
        flushed and fsynced, then ``os.replace``d into place — so a
        reader (or a concurrent writer of the same key) only ever sees
        either no entry or one complete JSON payload, never a torn one,
        even if the writing process dies mid-``put``.  Failures clean up
        the staging file; a crash that skips cleanup leaves only a
        ``*.tmp.*`` orphan, which every read path ignores.
        """
        payload = {"meta": dict(meta or {}), "result": result.to_dict()}
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def ls(self) -> List[Dict[str, Any]]:
        entries = []
        for path in sorted(self.root.glob("*.json")):
            # Skips entries pruned by another worker and torn, malformed
            # or foreign files: the same ones get() reports as misses.
            entry = self._load(path)
            if entry is not None:
                entries.append({"key": path.stem, **entry[0]})
        return entries

    def clear(self) -> int:
        count = 0
        for path in self.root.glob("*.json"):
            count += self._try_unlink(path)
        return count

    def prune(
        self,
        max_age: Optional[float] = None,
        max_entries: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Evict old entries; returns the number removed.

        ``max_age`` drops every entry whose file mtime is older than
        that many seconds (against ``now``, wall clock by default —
        tests pass an explicit ``now``).  ``max_entries`` then keeps
        only the newest N by mtime.  Either may be ``None``; calling
        with both ``None`` is a no-op.  A long-running service calls
        this periodically so a shared store directory cannot grow
        without bound.
        """
        if max_age is None and max_entries is None:
            return 0
        entries = []
        for path in self.root.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except FileNotFoundError:  # raced with a concurrent prune
                continue
        removed = 0
        if max_age is not None:
            if now is None:
                now = wallclock.now()
            cutoff = now - max_age
            survivors = []
            for mtime, path in entries:
                if mtime < cutoff:
                    removed += self._try_unlink(path)
                else:
                    survivors.append((mtime, path))
            entries = survivors
        if max_entries is not None and len(entries) > max_entries:
            entries.sort(key=lambda e: (e[0], e[1].name))
            excess = len(entries) - max_entries
            for _mtime, path in entries[:excess]:
                removed += self._try_unlink(path)
        return removed

    @staticmethod
    def _try_unlink(path: Path) -> int:
        try:
            path.unlink()
        except FileNotFoundError:
            return 0
        return 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()


def open_store(spec: Optional[str]):
    """``None`` -> fresh :class:`MemoryStore`; a path -> :class:`ResultStore`."""
    if spec is None:
        return MemoryStore()
    return ResultStore(spec)
