"""The paper's contribution: Dynamic Line Protection and its comparators.

Public surface:

* :class:`DlpPolicy` — per-instruction protection distances + bypass;
* :class:`GlobalProtectionPolicy` — single-PD PDP emulation;
* :class:`StallBypassPolicy` — bypass-on-any-stall comparator;
* :class:`BaselinePolicy` — plain LRU;
* :func:`make_policy` — name-based factory used by the experiment runner,
  and :func:`check_policy_kwargs`, which refuses a knob the scheme does
  not take before any work starts;
* :class:`ProtectionKnobs` — the one declaration of the protection knobs;
* the building blocks (:class:`ProtectedPolicy`, :class:`VictimTagArray`,
  :class:`PredictionTable`, :class:`SampleWindow`, the Figure 9 maths,
  the overhead model).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.core.baseline import BaselinePolicy
from repro.core.dlp import DlpPolicy
from repro.core.global_protection import GlobalProtectionPolicy
from repro.core.overhead import OverheadReport, compute_overhead
from repro.core.pdpt import PredictionTable
from repro.core.policy import CachePolicy, StallReason
from repro.core.protected import KNOB_NAMES, ProtectedPolicy, ProtectionKnobs
from repro.core.protection import pd_increment, run_global_pd_update, run_pd_update
from repro.core.sampler import SampleWindow
from repro.core.stall_bypass import StallBypassPolicy
from repro.core.vta import VictimTagArray

POLICIES: Dict[str, Callable[..., CachePolicy]] = {
    "baseline": BaselinePolicy,
    "stall_bypass": StallBypassPolicy,
    "global_protection": GlobalProtectionPolicy,
    "dlp": DlpPolicy,
}


def make_policy(name: str, **kwargs: object) -> CachePolicy:
    """Instantiate a policy by its registry name.

    ``kwargs`` forward to the policy constructor (sampling period, VTA
    associativity, ... for the protection schemes).
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
    return factory(**kwargs)


def check_policy_kwargs(scheme: str, kwargs: Mapping[str, Any]) -> None:
    """Raise a one-line ``ValueError`` for a knob ``scheme`` does not
    take, or a value :class:`ProtectionKnobs` refuses.

    Only the protecting policies take knobs; every other scheme,
    including the capacity comparators outside :data:`POLICIES`, takes
    none.
    """
    factory = POLICIES.get(scheme)
    protected = isinstance(factory, type) and issubclass(
        factory, ProtectedPolicy
    )
    takes = KNOB_NAMES if protected else ()
    unknown = sorted(set(kwargs) - set(takes))
    if unknown:
        accepted = (
            f"its knobs are {', '.join(takes)}" if takes else "it takes none"
        )
        raise ValueError(
            f"scheme {scheme!r} takes no knob {', '.join(unknown)}; {accepted}"
        )
    if protected:
        ProtectionKnobs(**kwargs)


__all__ = [
    "BaselinePolicy",
    "StallBypassPolicy",
    "GlobalProtectionPolicy",
    "DlpPolicy",
    "CachePolicy",
    "StallReason",
    "ProtectionKnobs",
    "ProtectedPolicy",
    "KNOB_NAMES",
    "VictimTagArray",
    "PredictionTable",
    "SampleWindow",
    "pd_increment",
    "run_pd_update",
    "run_global_pd_update",
    "compute_overhead",
    "OverheadReport",
    "POLICIES",
    "make_policy",
    "check_policy_kwargs",
]
