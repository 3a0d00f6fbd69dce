"""Job request/response protocol for the simulation service.

A **job** is what a client submits; it decomposes into one or more
**units**, each an independently schedulable cell:

* ``kind: "cell"``   — one timing simulation (interactive by default);
* ``kind: "sweep"``  — an apps x schemes timing grid (bulk by default);
* ``kind: "replay"`` — trace-driven functional replay of an
  apps x schemes grid (record-once semantics come from the shared
  trace directory, exactly like ``repro sweep --replay``).

Any kind may additionally set ``predict: true`` (tier-0 serving): cold
units are answered instantly from the analytical prediction tier
(:mod:`repro.predict`), flagged ``tier: "analytical"`` with calibrated
error bars, while the scheduler refines each one to an exact result in
the background.  ``predict`` never changes a unit's identity or store
key — the exact result lands under the same address it always had, and
an analytical answer is never persisted.

Units are identified by the result store's content addresses —
:func:`repro.experiments.store.cell_key` for timing cells and
:func:`~repro.experiments.store.replay_cell_key` for replay cells — so
the scheduler's coalescing map, the on-disk store and the CLI all agree
on what "the same request" means.

Everything here is plain data + validation; no asyncio, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.experiments.executor import Cell
from repro.experiments.store import (
    TRACE_VERSION,
    cell_fingerprint,
    replay_cell_key,
)
from repro.gpu.config import GPUConfig
from repro.experiments.runner import SCHEME_LABELS
from repro.workloads.registry import WORKLOADS

#: Lower number = scheduled first.  Interactive single-cell requests
#: jump ahead of queued bulk-sweep cells (admission priority; a cell
#: already on a worker is never preempted mid-simulation).
PRIORITY_INTERACTIVE = 0
PRIORITY_BULK = 1
#: Background refinements of analytical answers (see ``predict`` on a
#: job body) sort behind every client-requested cell.  Scheduler
#: internal — never a job's admission priority.
PRIORITY_REFINE = 2

PRIORITY_NAMES: Dict[str, int] = {
    "interactive": PRIORITY_INTERACTIVE,
    "bulk": PRIORITY_BULK,
}

JOB_KINDS = ("cell", "sweep", "replay")

#: Units execute in one of two modes; the mode picks the worker entry
#: point and the key namespace.
MODE_SIM = "sim"
MODE_REPLAY = "replay"


class ProtocolError(ValueError):
    """A malformed or unsatisfiable job request (HTTP 400)."""


@dataclass(frozen=True)
class UnitSpec:
    """One schedulable cell of work, hashable and JSON-representable."""

    mode: str                     # MODE_SIM | MODE_REPLAY
    abbr: str
    scheme: str
    num_sms: int = 4
    scale: float = 1.0
    seed: int = 0
    max_cycles: Optional[int] = None
    policy_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: Non-blocking L1D mode.  Part of the semantics, so (unlike the
    #: engine) it flows into the cell's config and its store key.
    non_blocking: bool = False
    #: The content address, stored by the first :meth:`key` call: a
    #: warm request asks for it several times, and the unit is frozen.
    _key: Optional[str] = field(default=None, init=False, repr=False,
                                compare=False)

    def _config(self) -> Optional[GPUConfig]:
        if not self.non_blocking:
            return None
        return GPUConfig().scaled(self.num_sms).with_l1d(non_blocking=True)

    def cell(self, engine: str = "reference") -> Cell:
        """The executor-level cell (timing-simulation units only).

        ``engine`` is the scheduler's deployment-wide L1D engine choice;
        it never enters the cell's key (the engines are bit-identical).
        """
        return Cell.make(
            self.abbr,
            self.scheme,
            num_sms=self.num_sms,
            scale=self.scale,
            seed=self.seed,
            max_cycles=self.max_cycles,
            config=self._config(),
            engine=engine,
            **dict(self.policy_kwargs),
        )

    def key(self) -> str:
        """Content address; the scheduler coalesces on this."""
        if self._key is not None:
            return self._key
        if self.mode == MODE_REPLAY:
            key = replay_cell_key(
                self.abbr,
                self.scheme,
                self.cell().resolved_config(),
                scale=self.scale,
                seed=self.seed,
                policy_kwargs=dict(self.policy_kwargs),
            )
        else:
            key = self.cell().key()
        object.__setattr__(self, "_key", key)
        return key

    def fingerprint(self) -> Dict[str, Any]:
        """Full content-addressed identity (failed-job payloads)."""
        fp = cell_fingerprint(
            self.abbr,
            self.scheme,
            self.cell().resolved_config(),
            scale=self.scale,
            seed=self.seed,
            max_cycles=self.max_cycles,
            policy_kwargs=dict(self.policy_kwargs),
        )
        if self.mode == MODE_REPLAY:
            fp["mode"] = "replay"
            fp["trace_version"] = TRACE_VERSION
        return fp

    def describe(self) -> Dict[str, Any]:
        """Compact human/JSON-facing identity (job status payloads)."""
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

    def meta(self) -> Dict[str, Any]:
        """Store metadata, matching what the sweep executors write."""
        meta = {
            "abbr": self.abbr,
            "scheme": self.scheme,
            "num_sms": self.num_sms,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.mode == MODE_REPLAY:
            meta["mode"] = "replay"
        if self.non_blocking:
            meta["non_blocking"] = True
        return meta

    def worker_payload(self) -> Dict[str, Any]:
        """Picklable argument for the replay worker entry point."""
        return {
            "abbr": self.abbr,
            "scheme": self.scheme,
            "num_sms": self.num_sms,
            "scale": self.scale,
            "seed": self.seed,
            "policy_kwargs": dict(self.policy_kwargs),
            "non_blocking": self.non_blocking,
        }


@dataclass
class JobRequest:
    """A validated job: its kind, admission priority, and unit list."""

    kind: str
    priority: int
    units: List[UnitSpec] = field(default_factory=list)
    #: Tier-0 serving: answer every cold unit analytically (instant,
    #: flagged ``tier: "analytical"`` with error bars) and let the
    #: scheduler refine it to an exact result in the background.  Never
    #: part of a unit's identity — the store keys are unchanged.
    predict: bool = False
    #: Self-reported client identity.  The cluster scheduler keys its
    #: token buckets and weighted-fair queueing on it; never part of a
    #: unit's identity or store key.
    client: str = "anonymous"

    def describe(self) -> Dict[str, Any]:
        doc = {
            "kind": self.kind,
            "priority": self.priority,
            "units": [u.describe() for u in self.units],
        }
        if self.predict:
            doc["predict"] = True
        if self.client != "anonymous":
            doc["client"] = self.client
        return doc


# ----------------------------------------------------------------------
# request builders (client + CLI convenience)
# ----------------------------------------------------------------------

def cell_request(app: str, scheme: str, *, sms: int = 4, scale: float = 1.0,
                 seed: int = 0, max_cycles: Optional[int] = None,
                 priority: Optional[str] = None,
                 policy_kwargs: Optional[Mapping[str, Any]] = None,
                 non_blocking: bool = False, predict: bool = False,
                 client: Optional[str] = None,
                 ) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "kind": "cell", "app": app, "scheme": scheme, "sms": sms,
        "scale": scale, "seed": seed,
    }
    if max_cycles is not None:
        body["max_cycles"] = max_cycles
    if priority is not None:
        body["priority"] = priority
    if policy_kwargs:
        body["policy_kwargs"] = dict(policy_kwargs)
    if non_blocking:
        body["non_blocking"] = True
    if predict:
        body["predict"] = True
    if client is not None:
        body["client"] = client
    return body


def sweep_request(apps: Iterable[str], schemes: Iterable[str], *,
                  sms: int = 4, scale: float = 1.0,
                  seed: int = 0, priority: Optional[str] = None,
                  non_blocking: bool = False, predict: bool = False,
                  client: Optional[str] = None,
                  ) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "kind": "sweep", "apps": list(apps), "schemes": list(schemes),
        "sms": sms, "scale": scale, "seed": seed,
    }
    if priority is not None:
        body["priority"] = priority
    if non_blocking:
        body["non_blocking"] = True
    if predict:
        body["predict"] = True
    if client is not None:
        body["client"] = client
    return body


def replay_request(apps: Iterable[str], schemes: Iterable[str], *,
                   sms: int = 4, scale: float = 1.0,
                   seed: int = 0, priority: Optional[str] = None,
                   non_blocking: bool = False, predict: bool = False,
                   client: Optional[str] = None,
                   ) -> Dict[str, Any]:
    body = sweep_request(apps, schemes, sms=sms, scale=scale, seed=seed,
                         priority=priority, non_blocking=non_blocking,
                         predict=predict, client=client)
    body["kind"] = "replay"
    return body


# ----------------------------------------------------------------------
# parsing / validation
# ----------------------------------------------------------------------

def parse_job_request(payload: Any) -> JobRequest:
    """Validate a client JSON body into a :class:`JobRequest`.

    Raises :class:`ProtocolError` (mapped to HTTP 400) on anything the
    scheduler could not execute: unknown kind/app/scheme, bad numeric
    fields, empty grids.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("job request must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            f"unknown job kind {kind!r}; expected one of {list(JOB_KINDS)}"
        )

    apps = _parse_names(payload, "app", "apps")
    schemes = _parse_names(payload, "scheme", "schemes", upper=False)
    if kind == "cell" and (len(apps) != 1 or len(schemes) != 1):
        raise ProtocolError(
            "kind 'cell' takes exactly one app and one scheme "
            "(use kind 'sweep' for grids)"
        )
    for app in apps:
        if app not in WORKLOADS:
            raise ProtocolError(
                f"unknown app {app!r}; expected one of {sorted(WORKLOADS)}"
            )
    for scheme in schemes:
        if scheme not in SCHEME_LABELS:
            raise ProtocolError(
                f"unknown scheme {scheme!r}; "
                f"expected one of {sorted(SCHEME_LABELS)}"
            )

    sms = _parse_int(payload, "sms", default=4, minimum=1)
    seed = _parse_int(payload, "seed", default=0, minimum=0)
    scale = _parse_float(payload, "scale", default=1.0)
    max_cycles = payload.get("max_cycles")
    if max_cycles is not None:
        if not isinstance(max_cycles, int) or max_cycles < 1:
            raise ProtocolError("max_cycles must be a positive integer")
    if kind != "cell" and max_cycles is not None:
        raise ProtocolError("max_cycles is only valid for kind 'cell'")
    policy_kwargs = payload.get("policy_kwargs", {})
    if not isinstance(policy_kwargs, dict):
        raise ProtocolError("policy_kwargs must be a JSON object")
    non_blocking = payload.get("non_blocking", False)
    if not isinstance(non_blocking, bool):
        raise ProtocolError("non_blocking must be a boolean")
    predict = payload.get("predict", False)
    if not isinstance(predict, bool):
        raise ProtocolError("predict must be a boolean")
    client = payload.get("client", "anonymous")
    if not isinstance(client, str) or not client.strip() \
            or len(client) > 64:
        raise ProtocolError(
            "client must be a non-empty string of at most 64 characters"
        )
    client = client.strip()
    if predict and non_blocking:
        raise ProtocolError(
            "predict has no analytical model for the non-blocking L1D; "
            "submit without predict for exact non_blocking results"
        )

    mode = MODE_REPLAY if kind == "replay" else MODE_SIM
    units = [
        UnitSpec(
            mode=mode,
            abbr=app,
            scheme=scheme,
            num_sms=sms,
            scale=scale,
            seed=seed,
            max_cycles=max_cycles,
            policy_kwargs=tuple(sorted(policy_kwargs.items())),
            non_blocking=non_blocking,
        )
        for app in apps
        for scheme in schemes
    ]
    priority = _parse_priority(payload.get("priority"), len(units))
    return JobRequest(kind=kind, priority=priority, units=units,
                      predict=predict, client=client)


def _parse_names(payload: Dict[str, Any], singular: str, plural: str,
                 upper: bool = True) -> List[str]:
    raw = payload.get(plural, payload.get(singular))
    if raw is None:
        raise ProtocolError(f"missing {singular!r} (or {plural!r})")
    names = [raw] if isinstance(raw, str) else raw
    if not isinstance(names, list) or not names or not all(
        isinstance(n, str) and n.strip() for n in names
    ):
        raise ProtocolError(
            f"{plural!r} must be a non-empty string or list of strings"
        )
    out = []
    for name in names:
        name = name.strip()
        out.append(name.upper() if upper else name)
    return out


def _parse_int(payload: Dict[str, Any], name: str, default: int,
               minimum: int) -> int:
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ProtocolError(f"{name} must be an integer >= {minimum}")
    return value


def _parse_float(payload: Dict[str, Any], name: str, default: float) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name} must be a number")
    if not value > 0:
        raise ProtocolError(f"{name} must be > 0")
    return float(value)


def _parse_priority(raw: Any, n_units: int) -> int:
    if raw is None:
        return PRIORITY_INTERACTIVE if n_units == 1 else PRIORITY_BULK
    if isinstance(raw, str) and raw in PRIORITY_NAMES:
        return PRIORITY_NAMES[raw]
    if isinstance(raw, int) and not isinstance(raw, bool) \
            and raw in PRIORITY_NAMES.values():
        return raw
    raise ProtocolError(
        f"priority must be one of {sorted(PRIORITY_NAMES)} (or 0/1)"
    )
