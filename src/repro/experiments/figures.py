"""Figure/table drivers: one function per experiment in the paper.

Each ``figN_data`` function computes the numbers the paper's figure
plots (normalized the same way); each ``render_figN`` turns them into
the ASCII rendering the benchmark harness prints.  Timing-based figures
share the memoised sweep in :mod:`repro.experiments.runner`, so running
every bench in one session simulates each (app, scheme) cell once.  Each
resolves its whole grid in one :func:`~repro.experiments.runner.run_sweep`
call, so an executor with ``jobs >= 2`` simulates its cold cells in
parallel.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.classify import classify_all
from repro.analysis.metrics import geometric_mean
from repro.analysis.report import (
    ascii_table,
    grouped_bars,
    normalized_summary,
    stacked_percent_rows,
)
from repro.analysis.reuse import RD_LABELS, rd_of_sequence
from repro.cache.tagarray import CacheGeometry
from repro.core.overhead import compute_overhead
from repro.experiments.cachesim import capacity_sweep, profile_reuse
from repro.experiments.runner import (
    FIG10_SCHEMES,
    SCHEME_LABELS,
    TRAFFIC_SCHEMES,
    harness_config,
    run_sweep,
)
from repro.gpu.config import GPUConfig
from repro.workloads import ALL_APPS, CI_APPS, CS_APPS, make_workload, table2_rows

# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_data(config: GPUConfig | None = None) -> List[Tuple[str, str]]:
    return (config or GPUConfig()).table1_rows()


def render_table1(config: GPUConfig | None = None) -> str:
    return ascii_table(
        ["Parameter", "Value"],
        table1_data(config),
        title="Table 1: GPU configuration",
    )


def table2_data():
    return table2_rows()


def render_table2() -> str:
    return ascii_table(
        ["Application", "Abbr.", "Suite", "Type", "Paper input", "Scaled input"],
        table2_data(),
        title="Table 2: benchmark applications",
    )


def overhead_data():
    return compute_overhead()


def render_overhead() -> str:
    report = compute_overhead()
    rows = [(name, f"{b} B") for name, b in report.rows()]
    rows.append(("overhead", f"{100 * report.overhead_fraction:.2f}%"))
    return ascii_table(
        ["Component", "Size"], rows, title="Section 4.3: DLP hardware overhead"
    )


# ---------------------------------------------------------------------------
# Fig. 2 — reuse-distance counting example
# ---------------------------------------------------------------------------


def fig2_data():
    """The worked example: accesses Addr0 Addr1 Addr2 Addr0 on a 2-way
    set; the second Addr0 access has RD 3 and misses under LRU."""
    geometry = CacheGeometry(num_sets=1, assoc=2)
    sequence = [0, 1, 2, 0]
    return {"sequence": sequence, "rds": rd_of_sequence(sequence, geometry)}


def render_fig2() -> str:
    data = fig2_data()
    rows = [
        (f"Addr {blk}", "-" if rd is None else str(rd))
        for blk, rd in zip(data["sequence"], data["rds"])
    ]
    return ascii_table(
        ["Access", "Reuse distance"],
        rows,
        title="Fig. 2: RD example (2-way set; the RD of Addr 0 is 3)",
    )


# ---------------------------------------------------------------------------
# Fig. 3 / Fig. 7 — reuse-distance distributions
# ---------------------------------------------------------------------------


def fig3_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Per-application RDD fractions over the paper's four ranges."""
    config = harness_config(num_sms)
    out: Dict[str, List[float]] = {}
    for app in apps:
        profiler = profile_reuse(make_workload(app), config)
        out[app] = profiler.overall_fractions()
    return out


def render_fig3(data=None) -> str:
    data = data or fig3_data()
    return stacked_percent_rows(
        list(data),
        list(data.values()),
        RD_LABELS,
        title="Fig. 3: Reuse Distance Distribution per application",
    )


def fig7_data(num_sms: int = 4):
    """Per-memory-instruction RDDs for BFS (paper Fig. 7)."""
    config = harness_config(num_sms)
    profiler = profile_reuse(make_workload("BFS"), config)
    per_pc = profiler.pc_fractions()
    # present in ascending PC order with insnN labels like the paper
    items = sorted(per_pc.items())
    return {f"insn{i + 1}": fracs for i, (pc, fracs) in enumerate(items)}


def render_fig7(data=None) -> str:
    data = data or fig7_data()
    return stacked_percent_rows(
        list(data),
        list(data.values()),
        RD_LABELS,
        title="Fig. 7: RDD per memory instruction of BFS",
    )


# ---------------------------------------------------------------------------
# Fig. 4 — reuse-data miss rate vs capacity
# ---------------------------------------------------------------------------

CAPACITIES_KB = (16, 32, 64)


def fig4_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    config = harness_config(num_sms)
    out: Dict[str, Dict[int, float]] = {}
    for app in apps:
        sweep = capacity_sweep(make_workload(app), CAPACITIES_KB, config)
        out[app] = {kb: sweep[kb]["reuse_miss_rate"] for kb in CAPACITIES_KB}
    return out


def render_fig4(data=None) -> str:
    data = data or fig4_data()
    series = {
        f"{kb}KB": [data[app][kb] for app in data] for kb in CAPACITIES_KB
    }
    return grouped_bars(
        list(data),
        series,
        title="Fig. 4: reuse-data miss rate at 16/32/64 KB (compulsory excluded)",
    )


# ---------------------------------------------------------------------------
# Fig. 5 — IPC vs capacity (timing)
# ---------------------------------------------------------------------------


def fig5_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    sweep = run_sweep(apps, ("baseline", "32kb", "64kb"), num_sms)
    out: Dict[str, Dict[str, float]] = {}
    for app in apps:
        row = sweep[app.upper()]
        base = row["baseline"].ipc
        out[app] = {
            "16KB": 1.0,
            "32KB": row["32kb"].ipc / base,
            "64KB": row["64kb"].ipc / base,
        }
    return out


def render_fig5(data=None) -> str:
    data = data or fig5_data()
    series = {
        kb: [data[app][kb] for app in data] for kb in ("16KB", "32KB", "64KB")
    }
    return grouped_bars(
        list(data),
        series,
        title="Fig. 5: IPC at 16/32/64 KB normalized to 16 KB",
    )


# ---------------------------------------------------------------------------
# Fig. 6 — memory access ratio
# ---------------------------------------------------------------------------


def fig6_data():
    rows = classify_all()
    return sorted(rows, key=lambda c: c.mem_access_ratio)


def render_fig6(data=None) -> str:
    data = data or fig6_data()
    rows = [
        (c.abbr, f"{100 * c.mem_access_ratio:.2f}%", c.predicted_type, c.paper_type)
        for c in data
    ]
    return ascii_table(
        ["App", "Memory access ratio", "Predicted", "Paper (Table 2)"],
        rows,
        title="Fig. 6: memory access ratios (sorted; CS/CI threshold 1%)",
    )


# ---------------------------------------------------------------------------
# Figs. 10-13 — policy comparison (timing)
# ---------------------------------------------------------------------------


def _group_geomeans(per_app: Dict[str, Dict[str, float]], schemes) -> Dict[str, Dict[str, float]]:
    means: Dict[str, Dict[str, float]] = {}
    for group, members in (("CS", CS_APPS), ("CI", CI_APPS)):
        present = [a for a in members if a in per_app]
        if present:
            means[group] = {
                s: geometric_mean([per_app[a][s] for a in present]) for s in schemes
            }
    return means


def _policy_metric(metric_fn, schemes, apps, num_sms: int):
    """Normalized per-app metric for each scheme plus CS/CI geomeans."""
    sweep = run_sweep(apps, schemes, num_sms)
    per_app: Dict[str, Dict[str, float]] = {}
    for app in apps:
        values = {s: metric_fn(sweep[app.upper()][s]) for s in schemes}
        base = values[schemes[0]]
        per_app[app] = {
            SCHEME_LABELS[s]: (values[s] / base if base else 0.0) for s in schemes
        }
    labels = [SCHEME_LABELS[s] for s in schemes]
    return per_app, _group_geomeans(per_app, labels), labels


def fig10_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Normalized IPC for baseline / Stall-Bypass / Global-Protection /
    DLP / 32KB (Fig. 10, including the G.MEANS bars)."""
    return _policy_metric(lambda r: r.ipc, FIG10_SCHEMES, apps, num_sms)


def fig11a_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Normalized L1D traffic: accesses the cache itself serviced."""
    return _policy_metric(
        lambda r: r.l1d.serviced_accesses, TRAFFIC_SCHEMES, apps, num_sms
    )


def fig11b_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Normalized L1D evictions (replacements + write-evicts)."""
    return _policy_metric(
        lambda r: max(r.l1d.evictions_total, 1), TRAFFIC_SCHEMES, apps, num_sms
    )


def fig12a_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """L1D hit rate (not normalized — the paper plots the rate itself)."""
    sweep = run_sweep(apps, TRAFFIC_SCHEMES, num_sms)
    per_app: Dict[str, Dict[str, float]] = {}
    for app in apps:
        per_app[app] = {
            SCHEME_LABELS[s]: sweep[app.upper()][s].l1d.hit_rate
            for s in TRAFFIC_SCHEMES
        }
    labels = [SCHEME_LABELS[s] for s in TRAFFIC_SCHEMES]
    return per_app, {}, labels


def fig12b_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Normalized number of L1D hits."""
    return _policy_metric(
        lambda r: max(r.l1d.hits_total, 1), TRAFFIC_SCHEMES, apps, num_sms
    )


def fig13_data(apps: Sequence[str] = tuple(ALL_APPS), num_sms: int = 4):
    """Normalized interconnect traffic (bytes, both directions)."""
    return _policy_metric(
        lambda r: r.interconnect["total_bytes"], TRAFFIC_SCHEMES, apps, num_sms
    )


def render_policy_figure(data, title: str) -> str:
    per_app, means, labels = data
    return title + "\n" + normalized_summary(per_app, labels, means)


RENDERERS = {
    "table1": render_table1,
    "table2": render_table2,
    "overhead": render_overhead,
    "fig2": render_fig2,
    "fig3": render_fig3,
    "fig4": render_fig4,
    "fig5": render_fig5,
    "fig6": render_fig6,
    "fig7": render_fig7,
}
