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

Each unit is a :class:`repro.experiments.executor.Cell`, the same
description the sweep executors run, identified by the result store's
content address (:meth:`~repro.experiments.executor.Cell.key`) — so the
scheduler's coalescing map, the on-disk store and the CLI all agree on
what "the same request" means, and a unit's store entry is the one the
CLI writes for that cell.

Everything here is plain data + validation; no asyncio, no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.core import check_policy_kwargs
from repro.experiments.executor import MODE_REPLAY, MODE_SIM, Cell
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


class ProtocolError(ValueError):
    """A malformed or unsatisfiable job request (HTTP 400)."""


@dataclass
class JobRequest:
    """A validated job: its kind, admission priority, and unit list."""

    kind: str
    priority: int
    units: List[Cell] = field(default_factory=list)
    #: Tier-0 serving: answer every cold unit analytically (instant,
    #: flagged ``tier: "analytical"`` with error bars) and let the
    #: scheduler refine it to an exact result in the background.  Never
    #: part of a unit's identity — the store keys are unchanged.
    predict: bool = False
    #: Self-reported client identity.  The scheduler keys its
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
    fields, empty grids, policy knobs a scheme does not take.
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
        # a bool is an int to isinstance: True would cap at one cycle
        if not isinstance(max_cycles, int) or isinstance(max_cycles, bool) \
                or max_cycles < 1:
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
    if policy_kwargs:
        _check_policy_kwargs(schemes, policy_kwargs, predict)

    mode = MODE_REPLAY if kind == "replay" else MODE_SIM
    # Non-blocking mode is part of the semantics, so (unlike the engine)
    # it enters each cell's config and so its store key.
    config = GPUConfig().scaled(sms).with_l1d(non_blocking=True) \
        if non_blocking else None
    units = [
        Cell.make(app, scheme, num_sms=sms, scale=scale, seed=seed,
                  max_cycles=max_cycles, config=config, mode=mode,
                  **policy_kwargs)
        for app in apps
        for scheme in schemes
    ]
    priority = _parse_priority(payload.get("priority"), len(units))
    return JobRequest(kind=kind, priority=priority, units=units,
                      predict=predict, client=client)


def _check_policy_kwargs(schemes: List[str], policy_kwargs: Dict[str, Any],
                         predict: bool) -> None:
    """Refuse knobs a scheme does not take, and values the knob
    declaration refuses, before any unit is queued."""
    if predict and "insn_sample_limit" in policy_kwargs:
        raise ProtocolError(
            "predict has no analytical model of insn_sample_limit; "
            "submit without predict for exact results"
        )
    for scheme in schemes:
        try:
            check_policy_kwargs(scheme, policy_kwargs)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"policy_kwargs: {exc}") from None


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
