"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        simulate one application under one scheme and print a summary
compare    all five schemes on one application (a Figs. 10-13 column)
figure     regenerate one paper table/figure by name (fig2..fig13, table1,
           table2, overhead)
sweep      run an app x scheme grid through the parallel executor,
           optionally backed by an on-disk result store; ``--replay``
           switches to record-once / replay-per-scheme
store      inspect (``ls``), wipe (``clear``) or age out (``prune``)
           an on-disk result store
serve      run the long-lived async simulation service (HTTP job API,
           request coalescing, /healthz + /metrics, SIGTERM drain)
submit     drive a running service: submit cell/sweep/replay jobs,
           poll status, cancel, inspect metrics; ``--predict`` asks for
           instant tier-0 analytical answers with background refinement
loadtest   drive hundreds/thousands of concurrent clients against a
           cluster with a zipfian hot/cold mix; measures p50/p99,
           throughput, coalescing and 429 rates; gates on SLOs
predict    analytical miss-rate/IPC estimates for an app x scheme grid —
           no cache is stepped; calibrated error bars included
profile    reuse-distance analysis of one application (Fig. 3/7 style)
trace      record, inspect, replay and import memory traces
check      static verification: determinism, bit-width proofs, engine
           parity, key purity, async hygiene (rules R001-R010, CI gate)
fuzz       differential fuzzer: seeded adversarial streams through both
           L1D engines across the scheme x MSHR-mode grid (CI gate)
list       the Table 2 application registry

Examples
--------
::

    python -m repro run SS --policy dlp
    python -m repro compare KM --sms 4
    python -m repro figure fig3
    python -m repro sweep --apps BFS,KM --jobs 4 --store .repro-store
    python -m repro sweep --apps BFS,KM --replay --trace-dir .repro-traces
    python -m repro store ls
    python -m repro store prune --max-age 7d --max-entries 500
    python -m repro serve --port 8642 --workers 4 --store .repro-store
    python -m repro submit cell BFS dlp --wait
    python -m repro submit sweep --apps BFS,KM --schemes baseline,dlp
    python -m repro submit cell BFS dlp --predict --wait
    python -m repro submit status job-000001
    python -m repro submit metrics
    python -m repro loadtest --clients 1000 --workers 4 --slo-p99 5
    python -m repro loadtest --clients 200 --workers 2 --kill-worker-after 40
    python -m repro predict --apps BFS,KM --schemes baseline,dlp
    python -m repro profile BFS
    python -m repro trace record BFS --out bfs.rptr --scale 0.5
    python -m repro trace info bfs.rptr
    python -m repro trace info bfs.rptr --rdd
    python -m repro trace replay bfs.rptr --verify
    python -m repro trace import foreign.csv foreign.rptr
    python -m repro check
    python -m repro check --strict --sarif check.sarif
    python -m repro check --json src/repro/core
    python -m repro fuzz --streams 200 --length 400
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import RD_LABELS, ascii_table, stacked_percent_rows
from repro.experiments.figures import (
    RENDERERS,
    fig10_data,
    fig11a_data,
    fig11b_data,
    fig12a_data,
    fig12b_data,
    fig13_data,
    render_policy_figure,
)
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import (
    FIG10_SCHEMES,
    SCHEME_LABELS,
    TRAFFIC_SCHEMES,
    harness_config,
    run_workload,
)
from repro.experiments.store import ResultStore, default_store_dir, open_store
from repro.fastsim import DEFAULT_ENGINE, ENGINES, validate_engine
from repro.trace.format import TraceFormatError
from repro.workloads import ALL_APPS, make_workload, table2_rows

_TIMING_FIGURES = {
    "fig10": (fig10_data, "Fig. 10: normalized IPC"),
    "fig11a": (fig11a_data, "Fig. 11a: normalized L1D traffic"),
    "fig11b": (fig11b_data, "Fig. 11b: normalized L1D evictions"),
    "fig12a": (fig12a_data, "Fig. 12a: L1D hit rate"),
    "fig12b": (fig12b_data, "Fig. 12b: normalized L1D hits"),
    "fig13": (fig13_data, "Fig. 13: normalized interconnect traffic"),
}


def _engine_name(text: str) -> str:
    try:
        return validate_engine(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_engine_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """``--engine``, with the choices :mod:`repro.fastsim` defines; every
    accepted spelling parses to its canonical engine name."""
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        type=_engine_name, choices=ENGINES, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DLP (ICPP 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one application")
    p_run.add_argument("app", help="Table 2 abbreviation (e.g. BFS)")
    p_run.add_argument("--policy", default="baseline",
                       choices=["baseline", "stall_bypass",
                                "global_protection", "dlp", "32kb", "64kb"])
    p_run.add_argument("--sms", type=int, default=4,
                       help="number of SMs (scaled machine; default 4)")
    p_run.add_argument("--scale", type=float, default=1.0,
                       help="workload input scale factor")
    _add_engine_flag(p_run, "L1D implementation (bit-identical results; "
                            "'fast' is the packed array engine)")
    p_run.add_argument("--non-blocking", action="store_true",
                       help="non-blocking L1D (hit-under-miss, word-"
                            "granular MSHR merging); enters store keys")

    p_cmp = sub.add_parser("compare", help="all five schemes on one app")
    p_cmp.add_argument("app")
    p_cmp.add_argument("--sms", type=int, default=4)
    p_cmp.add_argument("--scale", type=float, default=1.0)

    p_fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    p_fig.add_argument("name",
                       choices=sorted(set(RENDERERS) | set(_TIMING_FIGURES)))
    p_fig.add_argument("--sms", type=int, default=4)

    p_sweep = sub.add_parser(
        "sweep", help="run an app x scheme grid through the parallel executor"
    )
    p_sweep.add_argument("--apps", default="all",
                         help="comma-separated Table 2 abbrs (default: all)")
    p_sweep.add_argument("--schemes", default=",".join(TRAFFIC_SCHEMES),
                         help="comma-separated scheme names "
                              f"(default: {','.join(TRAFFIC_SCHEMES)})")
    p_sweep.add_argument("--sms", type=int, default=4)
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="per-cell RNG seed (0 = default streams)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for uncached cells")
    p_sweep.add_argument("--store", default=None, metavar="DIR",
                         help="on-disk result store directory "
                              "(default: in-memory, this run only)")
    p_sweep.add_argument("--replay", action="store_true",
                         help="record each app's access stream once and "
                              "replay it per scheme (functional cache "
                              "counters; no timing)")
    p_sweep.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="with --replay: persist recorded traces here "
                              "(default: in-memory, this run only)")
    _add_engine_flag(p_sweep, "L1D implementation for uncached cells "
                              "(bit-identical results; store keys are "
                              "engine-independent; with --replay, 'fast' "
                              "replays all of an app's cells in one pass)")
    p_sweep.add_argument("--non-blocking", action="store_true",
                         help="non-blocking L1D for every cell "
                              "(semantic switch: enters store keys)")
    p_sweep.add_argument("--grid", action="append", default=None,
                         metavar="AXIS",
                         help="replay an ablation grid instead of a scheme "
                              "matrix: repeatable policy-knob axis "
                              "(name=v1,v2,... or name=lo:hi[:step]) "
                              "crossed over a single --schemes entry; "
                              "requires --replay")
    p_sweep.add_argument("--grid-out", default=None, metavar="FILE",
                         help="with --grid: also write the frontier map "
                              "as JSON to FILE")

    p_store = sub.add_parser("store", help="manage an on-disk result store")
    p_store.add_argument("action", choices=["ls", "clear", "prune"])
    p_store.add_argument("--store", default=None, metavar="DIR",
                         help="store directory (default: $REPRO_STORE "
                              "or .repro-store)")
    p_store.add_argument("--max-age", default=None, metavar="AGE",
                         help="prune: drop entries older than AGE "
                              "(seconds, or suffixed: 90s, 30m, 12h, 7d)")
    p_store.add_argument("--max-entries", type=int, default=None, metavar="N",
                         help="prune: keep only the newest N entries")

    p_serve = sub.add_parser(
        "serve", help="run the long-lived async simulation service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral; default 8642)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="simulation worker processes (default 2)")
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="result store directory (default: "
                              "$REPRO_STORE or .repro-store)")
    p_serve.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="shared trace directory for replay jobs "
                              "(default: capture in-worker, no sharing)")
    _add_engine_flag(p_serve, "L1D implementation the workers run "
                              "(bit-identical results; store keys are "
                              "engine-independent)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="max wait for active jobs on SIGTERM "
                              "(default 30)")
    p_serve.add_argument("--max-queued", type=int, default=0, metavar="N",
                         help="bound on queued cells; a submission over "
                              "the bound gets 429 + Retry-After "
                              "(default 0 = unbounded)")
    p_serve.add_argument("--rate", type=float, default=None,
                         metavar="CELLS_PER_S",
                         help="per-client token-bucket rate limit "
                              "(default: off)")
    p_serve.add_argument("--burst", type=float, default=None, metavar="N",
                         help="token-bucket burst capacity "
                              "(default: max(1, rate))")

    p_submit = sub.add_parser(
        "submit", help="submit jobs to / inspect a running service"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8642)
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="max seconds to wait with --wait")
    submit_sub = p_submit.add_subparsers(dest="submit_command", required=True)

    s_cell = submit_sub.add_parser("cell", help="one timing simulation")
    s_cell.add_argument("app", help="Table 2 abbreviation (e.g. BFS)")
    s_cell.add_argument("scheme", help="policy scheme (e.g. dlp)")
    s_cell.add_argument("--sms", type=int, default=4)
    s_cell.add_argument("--scale", type=float, default=1.0)
    s_cell.add_argument("--seed", type=int, default=0)
    s_cell.add_argument("--max-cycles", type=int, default=None)

    s_sweep = submit_sub.add_parser("sweep", help="a bulk timing grid")
    s_sweep.add_argument("--apps", required=True,
                         help="comma-separated Table 2 abbrs")
    s_sweep.add_argument("--schemes", default=",".join(TRAFFIC_SCHEMES))
    s_sweep.add_argument("--sms", type=int, default=4)
    s_sweep.add_argument("--scale", type=float, default=1.0)
    s_sweep.add_argument("--seed", type=int, default=0)

    s_replay = submit_sub.add_parser(
        "replay", help="a trace-replay grid (functional counters)"
    )
    s_replay.add_argument("--apps", required=True)
    s_replay.add_argument("--schemes", default=",".join(TRAFFIC_SCHEMES))
    s_replay.add_argument("--sms", type=int, default=4)
    s_replay.add_argument("--scale", type=float, default=1.0)
    s_replay.add_argument("--seed", type=int, default=0)

    for p in (s_cell, s_sweep, s_replay):
        p.add_argument("--priority", choices=["interactive", "bulk"],
                       default=None,
                       help="admission priority (default: interactive "
                            "for single cells, bulk for grids)")
        p.add_argument("--wait", action="store_true",
                       help="poll until the job settles and print results")
        p.add_argument("--non-blocking", action="store_true",
                       help="non-blocking L1D (semantic switch: enters "
                            "store keys)")
        p.add_argument("--predict", action="store_true",
                       help="tier-0: answer cold cells analytically now "
                            "(with error bars) and refine to exact "
                            "results in the background")
        p.add_argument("--client", default=None, metavar="NAME",
                       help="client identity for fair scheduling and "
                            "rate limiting (default: anonymous)")

    s_status = submit_sub.add_parser("status", help="poll one job")
    s_status.add_argument("job_id")
    s_status.add_argument("--wait", action="store_true")

    s_cancel = submit_sub.add_parser("cancel", help="cancel one job")
    s_cancel.add_argument("job_id")

    s_metrics = submit_sub.add_parser("metrics", help="service metrics")
    s_metrics.add_argument("--prom", action="store_true",
                           help="raw Prometheus text instead of tables")

    submit_sub.add_parser("health", help="service liveness/drain state")

    p_load = sub.add_parser(
        "loadtest",
        help="drive concurrent clients against a cluster with a "
             "zipfian mix and gate on SLOs",
    )
    p_load.add_argument("--clients", type=int, default=200,
                        help="concurrent client coroutines (default 200)")
    p_load.add_argument("--requests", type=int, default=1, metavar="N",
                        help="requests per client (default 1)")
    p_load.add_argument("--population", type=int, default=24,
                        help="distinct cells in the mix (default 24)")
    p_load.add_argument("--zipf", type=float, default=1.1,
                        help="zipf popularity exponent (default 1.1)")
    p_load.add_argument("--predict-fraction", type=float, default=0.0,
                        help="fraction of requests on the tier-0 "
                             "predict path (default 0)")
    p_load.add_argument("--apps", default="MM,BFS",
                        help="comma-separated Table 2 abbrs the "
                             "population cycles through")
    p_load.add_argument("--schemes", default="baseline,dlp")
    p_load.add_argument("--sms", type=int, default=1)
    p_load.add_argument("--scale", type=float, default=0.1)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--workers", type=int, default=4,
                        help="worker processes for the self-hosted "
                             "cluster (default 4)")
    p_load.add_argument("--store", default=None, metavar="DIR",
                        help="result store for the self-hosted cluster "
                             "(default: in-memory)")
    _add_engine_flag(p_load, "L1D implementation of the self-hosted "
                             "cluster's workers")
    p_load.add_argument("--max-queued", type=int, default=0)
    p_load.add_argument("--rate", type=float, default=None)
    p_load.add_argument("--burst", type=float, default=None)
    p_load.add_argument("--host", default=None,
                        help="target an already-running service instead "
                             "of self-hosting (needs --port)")
    p_load.add_argument("--port", type=int, default=None)
    p_load.add_argument("--retries", type=int, default=8)
    p_load.add_argument("--ramp", type=float, default=0.5,
                        metavar="SECONDS",
                        help="client start ramp-up window (default 0.5)")
    p_load.add_argument("--max-connections", type=int, default=256)
    p_load.add_argument("--timeout", type=float, default=120.0,
                        help="per-request deadline in seconds")
    p_load.add_argument("--kill-worker-after", type=int, default=None,
                        metavar="N",
                        help="chaos: SIGKILL one worker after N "
                             "completed requests (self-hosted only)")
    p_load.add_argument("--slo-p99", type=float, default=None,
                        metavar="SECONDS",
                        help="fail unless p99 latency <= this")
    p_load.add_argument("--slo-coalescing", type=float, default=None,
                        metavar="RATE",
                        help="fail unless coalesced/requested >= this")
    p_load.add_argument("--slo-max-throttle", type=float, default=None,
                        metavar="RATE",
                        help="fail if 429s/request exceed this")
    p_load.add_argument("--slo-max-failures", type=int, default=0)
    p_load.add_argument("--json", action="store_true", dest="json_output",
                        help="print the full report as JSON")

    p_pred = sub.add_parser(
        "predict",
        help="analytical miss-rate/IPC estimates for an app x scheme "
             "grid (no simulation; calibrated error bars)",
    )
    p_pred.add_argument("--apps", default="all",
                        help="comma-separated Table 2 abbrs (default: all)")
    p_pred.add_argument("--schemes", default=",".join(TRAFFIC_SCHEMES),
                        help="comma-separated scheme names "
                             f"(default: {','.join(TRAFFIC_SCHEMES)})")
    p_pred.add_argument("--sms", type=int, default=4)
    p_pred.add_argument("--scale", type=float, default=1.0)
    p_pred.add_argument("--seed", type=int, default=0)
    p_pred.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="profile streams from recorded traces here "
                             "instead of re-capturing the workloads")
    p_pred.add_argument("--raw", action="store_true",
                        help="skip the packaged calibration (uncorrected "
                             "model, no error bars)")

    p_prof = sub.add_parser(
        "profile",
        help="reuse-distance analysis, or (--scheme) engine phase timing",
    )
    p_prof.add_argument("app")
    p_prof.add_argument("--sms", type=int, default=4)
    p_prof.add_argument("--scheme", default=None,
                        choices=sorted(SCHEME_LABELS),
                        help="profile the L1D engine under this scheme "
                             "instead: per-phase reference timings "
                             "(set query / victim select / policy hooks / "
                             "sampling) plus the fast-engine comparison")
    p_prof.add_argument("--scale", type=float, default=1.0,
                        help="workload input scale factor (--scheme mode)")

    p_trace = sub.add_parser(
        "trace", help="record, inspect, replay and import memory traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_rec = trace_sub.add_parser(
        "record", help="capture an app's coalesced L1D access stream"
    )
    t_rec.add_argument("app", help="Table 2 abbreviation (e.g. BFS)")
    t_rec.add_argument("--out", required=True, metavar="FILE",
                       help="trace file to write (.rptr)")
    t_rec.add_argument("--sms", type=int, default=4)
    t_rec.add_argument("--scale", type=float, default=1.0)
    t_rec.add_argument("--seed", type=int, default=0)

    t_info = trace_sub.add_parser(
        "info", help="print a trace's header without decoding records"
    )
    t_info.add_argument("trace", metavar="FILE")
    t_info.add_argument("--rdd", action="store_true",
                        help="also profile the records: overall and "
                             "per-instruction reuse-distance "
                             "distributions (no replay)")

    t_rep = trace_sub.add_parser(
        "replay", help="drive cache policies from a recorded trace"
    )
    t_rep.add_argument("trace", metavar="FILE")
    t_rep.add_argument("--schemes", default=",".join(TRAFFIC_SCHEMES),
                       help="comma-separated scheme names "
                            f"(default: {','.join(TRAFFIC_SCHEMES)})")
    t_rep.add_argument("--sms", type=int, default=None,
                       help="SM count for the replayed machine "
                            "(default: the trace's own)")
    _add_engine_flag(t_rep, "replay engine (bit-identical results)")
    t_rep.add_argument("--non-blocking", action="store_true",
                       help="replay against the non-blocking L1D "
                            "(windowed fills; RESERVED lines survive "
                            "between accesses)")
    t_rep.add_argument("--verify", action="store_true",
                       help="re-run the functional path the trace was "
                            "recorded from and require identical counters")

    t_imp = trace_sub.add_parser(
        "import", help="convert a text/CSV access trace to the native format"
    )
    t_imp.add_argument("src", metavar="SRC",
                       help="text trace: sm_id block_addr pc is_write [warp_id]")
    t_imp.add_argument("dest", metavar="DEST", help="native trace to write")
    t_imp.add_argument("--sms", type=int, default=None,
                       help="SM count (default: max sm_id + 1 in SRC)")
    t_imp.add_argument("--line-size", type=int, default=128)

    p_check = sub.add_parser(
        "check",
        help="static verification: determinism, bit-width proofs, engine "
             "parity, key purity and async hygiene (rules R001-R010)",
    )
    p_check.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directories to lint (default: the "
                              "installed repro package; repo-level rules "
                              "like the R005 semantics manifest only run "
                              "on the full-package default)")
    p_check.add_argument("--json", action="store_true", dest="json_output",
                         help="machine-readable findings on stdout")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="suppress findings fingerprinted in FILE; "
                              "exit non-zero only on new ones")
    p_check.add_argument("--update-baseline", action="store_true",
                         help="rewrite --baseline FILE from the current "
                              "findings and exit 0")
    p_check.add_argument("--update-manifest", action="store_true",
                         help="regenerate the R005 semantics manifest "
                              "(after bumping SIM_VERSION)")
    p_check.add_argument("--update-parity", action="store_true",
                         help="regenerate the R007 engine-parity manifest "
                              "(after an intentional policy-surface change)")
    p_check.add_argument("--strict", action="store_true",
                         help="refuse a baseline and enforce allow-marker "
                              "hygiene (R010: unused or unjustified markers)")
    p_check.add_argument("--sarif", default=None, metavar="FILE",
                         help="also write findings as a SARIF 2.1.0 report")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: adversarial streams through both L1D "
             "engines across the scheme x MSHR-mode grid",
    )
    p_fuzz.add_argument("--streams", type=int, default=20,
                        help="seeded streams to generate (default 20)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; stream i uses seed+i (default 0)")
    p_fuzz.add_argument("--length", type=int, default=None,
                        help="truncate each stream to this many records")
    p_fuzz.add_argument("--sms", type=int, default=2,
                        help="SMs in the fuzz machine (default 2)")
    p_fuzz.add_argument("--scale", type=float, default=1.0,
                        help="generator input scale factor")
    p_fuzz.add_argument("--generators", default=None,
                        help="comma list of generators "
                             "(default ATH,APC,APH,ABS)")
    p_fuzz.add_argument("--policies", default=None,
                        help="comma list of schemes (default all four)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing the "
                             "failing prefix")
    p_fuzz.add_argument("--json", action="store_true", dest="json_output",
                        help="machine-readable report on stdout")

    sub.add_parser("list", help="list the Table 2 applications")
    return parser


def cmd_run(args) -> int:
    config = harness_config(args.sms)
    if args.non_blocking:
        config = config.with_l1d(non_blocking=True)
    result = run_workload(args.app.upper(), args.policy, config,
                          scale=args.scale, engine=args.engine)
    rows = [(k, f"{v:.4g}") for k, v in result.summary().items()]
    print(ascii_table(
        ["metric", "value"], rows,
        title=f"{args.app.upper()} under {SCHEME_LABELS.get(args.policy, args.policy)}",
    ))
    if result.policy:
        print("\npolicy internals:", result.policy)
    return 0


def cmd_compare(args) -> int:
    config = harness_config(args.sms)
    app = args.app.upper()
    results = {
        scheme: run_workload(app, scheme, config, scale=args.scale)
        for scheme in FIG10_SCHEMES
    }
    base = results["baseline"]
    rows = []
    for scheme in FIG10_SCHEMES:
        r = results[scheme]
        rows.append((
            SCHEME_LABELS[scheme],
            f"{r.ipc / base.ipc:.3f}",
            f"{r.l1d.hit_rate:.3f}",
            str(r.l1d.bypasses),
            f"{r.l1d.evictions_total / max(base.l1d.evictions_total, 1):.3f}",
        ))
    print(ascii_table(
        ["Scheme", "IPC (norm)", "Hit rate", "Bypasses", "Evictions (norm)"],
        rows,
        title=f"{app}: scheme comparison",
    ))
    return 0


def cmd_figure(args) -> int:
    if args.name in RENDERERS:
        print(RENDERERS[args.name]())
        return 0
    data_fn, title = _TIMING_FIGURES[args.name]
    print(render_policy_figure(data_fn(num_sms=args.sms), title))
    return 0


def _cli_config(args):
    """Explicit sweep config, or ``None`` for the default harness machine.

    Returning ``None`` in the blocking case keeps the executors on their
    default :func:`Cell.resolved_config` path, so blocking-mode store
    keys stay byte-identical to every earlier release."""
    if not getattr(args, "non_blocking", False):
        return None
    return harness_config(args.sms).with_l1d(non_blocking=True)


def cmd_sweep(args) -> int:
    apps = ALL_APPS if args.apps == "all" else [
        a.strip().upper() for a in args.apps.split(",") if a.strip()
    ]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in SCHEME_LABELS:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {sorted(SCHEME_LABELS)}"
            )
    if getattr(args, "grid", None) and not args.replay:
        raise ValueError("--grid is a replay mode; add --replay")
    if args.replay:
        if getattr(args, "grid", None):
            return _replay_grid(args, apps, schemes)
        return _replay_sweep(args, apps, schemes)
    executor = SweepExecutor(store=open_store(args.store), jobs=args.jobs)
    results = executor.run_sweep(
        apps, schemes, num_sms=args.sms, scale=args.scale, seed=args.seed,
        engine=args.engine, config=_cli_config(args),
    )
    rows = [
        (
            app,
            SCHEME_LABELS[scheme],
            str(r.cycles),
            f"{r.ipc:.4g}",
            f"{r.l1d.hit_rate:.3f}",
            str(r.l1d.bypasses),
        )
        for app, per_scheme in results.items()
        for scheme, r in per_scheme.items()
    ]
    print(ascii_table(
        ["App", "Scheme", "Cycles", "IPC", "Hit rate", "Bypasses"],
        rows,
        title=f"sweep: {len(apps)} apps x {len(schemes)} schemes "
              f"({args.sms} SMs, scale {args.scale:g}, jobs {args.jobs})",
    ))
    ex, st = executor.stats, executor.store.stats
    print(
        f"\nexecutor: simulated {ex.simulated} cells, "
        f"{ex.store_hits} store hits, {ex.deduped} deduped"
    )
    print(f"store: {st.hits} hits, {st.misses} misses, {st.puts} puts")
    return 0


def _replay_sweep(args, apps, schemes) -> int:
    from repro.trace.sweep import ReplaySweepExecutor

    executor = ReplaySweepExecutor(
        store=open_store(args.store), trace_dir=args.trace_dir,
        config=_cli_config(args), engine=args.engine,
    )
    results = executor.run_sweep(
        apps, schemes, num_sms=args.sms, scale=args.scale, seed=args.seed
    )
    rows = [
        (
            app,
            SCHEME_LABELS[scheme],
            f"{r.l1d.hit_rate:.3f}",
            str(r.l1d.bypasses),
            str(r.l1d.evictions_total),
            str(int(r.interconnect.get("total_requests", 0))),
        )
        for app, per_scheme in results.items()
        for scheme, r in per_scheme.items()
    ]
    print(ascii_table(
        ["App", "Scheme", "Hit rate", "Bypasses", "Evictions", "Interconnect"],
        rows,
        title=f"replay sweep: {len(apps)} apps x {len(schemes)} schemes "
              f"({args.sms} SMs, scale {args.scale:g})",
    ))
    tr, st = executor.stats, executor.store.stats
    print(
        f"\ntrace: recorded {tr.recorded} traces, {tr.trace_hits} trace hits; "
        f"replayed {tr.replayed} cells, {tr.store_hits} store hits"
    )
    print(f"store: {st.hits} hits, {st.misses} misses, {st.puts} puts")
    return 0


def _replay_grid(args, apps, schemes) -> int:
    """``repro sweep --replay --grid``: a frontier map over policy knobs."""
    import json as _json
    from pathlib import Path

    from repro.batchsim.grid import parse_grid_axis
    from repro.trace.sweep import ReplaySweepExecutor

    if len(schemes) != 1:
        raise ValueError(
            "--grid sweeps policy knobs of a single scheme; pass exactly "
            f"one --schemes entry (got {len(schemes)})"
        )
    scheme = schemes[0]
    axes = [parse_grid_axis(text) for text in args.grid]
    executor = ReplaySweepExecutor(
        store=open_store(args.store), trace_dir=args.trace_dir,
        config=_cli_config(args), engine=args.engine,
    )
    per_app = {
        app: executor.run_grid(
            app, scheme, axes, num_sms=args.sms, scale=args.scale,
            seed=args.seed,
        )
        for app in apps
    }
    rows = [
        (app, label, f"{r.l1d.hit_rate:.4f}", str(r.l1d.bypasses),
         str(r.l1d.evictions_total))
        for app, cells in per_app.items()
        for label, r in cells.items()
    ]
    n_cells = len(next(iter(per_app.values()))) if per_app else 0
    print(ascii_table(
        ["App", "Cell", "Hit rate", "Bypasses", "Evictions"],
        rows,
        title=f"replay grid: {scheme}, {len(apps)} apps x {n_cells} cells "
              f"({args.sms} SMs, scale {args.scale:g}, engine {args.engine})",
    ))
    tr, st = executor.stats, executor.store.stats
    print(
        f"\ntrace: recorded {tr.recorded} traces, {tr.trace_hits} trace hits; "
        f"replayed {tr.replayed} cells, {tr.store_hits} store hits"
    )
    print(f"store: {st.hits} hits, {st.misses} misses, {st.puts} puts")
    if args.grid_out:
        payload = {
            app: {
                label: {
                    "hit_rate": r.l1d.hit_rate,
                    "miss_rate": 1.0 - r.l1d.hit_rate,
                    "bypasses": r.l1d.bypasses,
                    "evictions": r.l1d.evictions_total,
                }
                for label, r in cells.items()
            }
            for app, cells in per_app.items()
        }
        Path(args.grid_out).write_text(
            _json.dumps({"scheme": scheme, "scale": args.scale,
                         "sms": args.sms, "grid": payload}, indent=2) + "\n"
        )
        print(f"frontier map written to {args.grid_out}")
    return 0


def _parse_age(text: str) -> float:
    """``"90"``/``"90s"``/``"30m"``/``"12h"``/``"7d"`` -> seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    scale = 1.0
    if text and text[-1].lower() in units:
        scale = units[text[-1].lower()]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ValueError(
            f"bad age {text!r}: expected seconds or a 90s/30m/12h/7d form"
        ) from None
    if seconds < 0:
        raise ValueError("age must be non-negative")
    return seconds


def cmd_store(args) -> int:
    store = ResultStore(args.store or default_store_dir())
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    if args.action == "prune":
        if args.max_age is None and args.max_entries is None:
            raise ValueError("prune needs --max-age and/or --max-entries")
        if args.max_entries is not None and args.max_entries < 0:
            raise ValueError("--max-entries must be >= 0")
        max_age = _parse_age(args.max_age) if args.max_age is not None else None
        removed = store.prune(max_age=max_age, max_entries=args.max_entries)
        print(f"pruned {removed} entries from {store.root} "
              f"({len(store)} remain)")
        return 0
    entries = store.ls()
    rows = [
        (
            e["key"][:12],
            str(e.get("abbr", "?")),
            str(e.get("scheme", "?")),
            str(e.get("num_sms", "?")),
            f"{e.get('scale', 1.0):g}",
            str(e.get("seed", 0)),
        )
        for e in entries
    ]
    print(ascii_table(
        ["Key", "App", "Scheme", "SMs", "Scale", "Seed"],
        rows,
        title=f"{store.root}: {len(entries)} entries",
    ))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import serve_async

    return asyncio.run(serve_async(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store=args.store or default_store_dir(),
        trace_dir=args.trace_dir,
        engine=args.engine,
        drain_timeout=args.drain_timeout,
        max_queued=args.max_queued,
        rate=args.rate,
        burst=args.burst,
    ))


def cmd_loadtest(args) -> int:
    from repro.loadtest import (
        LoadTestConfig,
        MixConfig,
        SloConfig,
        run_loadtest,
    )

    apps = tuple(a.strip().upper() for a in args.apps.split(",") if a.strip())
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    config = LoadTestConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        mix=MixConfig(
            population=args.population,
            zipf_exponent=args.zipf,
            predict_fraction=args.predict_fraction,
            apps=apps,
            schemes=schemes,
            sms=args.sms,
            scale=args.scale,
            seed=args.seed,
        ),
        slo=SloConfig(
            p99_s=args.slo_p99,
            min_coalescing_rate=args.slo_coalescing,
            max_throttled_rate=args.slo_max_throttle,
            max_failures=args.slo_max_failures,
        ),
        workers=args.workers,
        store=args.store,
        engine=args.engine,
        max_queued=args.max_queued,
        rate=args.rate,
        burst=args.burst,
        host=args.host,
        port=args.port,
        retries=args.retries,
        ramp_seconds=args.ramp,
        max_connections=args.max_connections,
        request_timeout=args.timeout,
        kill_worker_after=args.kill_worker_after,
    )
    report = run_loadtest(config)
    if args.json_output:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.passed else 1

    doc = report.to_dict()
    lat = {k: ("n/a" if v is None else v)
           for k, v in doc["latency_s"].items()}
    rows = [
        ("clients x requests", f"{report.clients} x "
                               f"{args.requests} = {report.requests}"),
        ("workers", str(report.workers)),
        ("completed / failed", f"{report.completed} / {report.failed}"),
        ("wall / throughput", f"{doc['wall_s']}s / "
                              f"{doc['throughput_rps']} req/s"),
        ("latency p50/p95/p99", f"{lat['p50']} / {lat['p95']} / "
                                f"{lat['p99']} s"),
        ("latency max", f"{lat['max']} s"),
        ("coalescing rate", f"{doc['coalescing_rate']}"),
        ("store-hit rate", f"{doc['store_hit_rate']}"),
        ("429 responses", str(report.throttled_responses)),
        ("predict answers", str(report.predict_answers)),
        ("requeued / restarts", f"{report.cells_requeued} / "
                                f"{report.worker_restarts}"),
    ]
    if args.kill_worker_after is not None:
        rows.append(("worker killed", str(report.worker_killed)))
    print(ascii_table(["metric", "value"], rows, title="repro loadtest"))
    for failure in report.failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)
    if report.violations:
        for violation in report.violations:
            print(f"SLO violation: {violation}", file=sys.stderr)
        print("loadtest: FAIL")
        return 1
    print("loadtest: PASS")
    return 0


def _render_job(doc) -> str:
    """One settled job's results as the familiar sweep-style table.

    Tier-0 answers (``tier: "analytical"``) have no cycle count; they
    render with a ``~`` marker and their calibrated error bars."""
    from repro.gpu.simulator import SimResult

    rows = []
    analytical = 0
    for entry in doc.get("results") or []:
        unit, payload = entry["unit"], entry["result"]
        scheme = SCHEME_LABELS.get(unit["scheme"], unit["scheme"])
        if payload.get("tier") == "analytical":
            analytical += 1
            err = payload.get("error") or {}
            ipc = payload.get("ipc")
            rows.append((
                unit["app"],
                scheme,
                "~",
                f"{ipc:.4g}" if ipc is not None else "-",
                f"{payload['hit_rate']:.3f}"
                + (f" ±{err['mean_abs']:.3f}" if "mean_abs" in err else ""),
                f"{payload['bypasses']:.0f}",
            ))
            continue
        r = SimResult.from_dict(
            {k: v for k, v in payload.items() if k != "tier"}
        )
        rows.append((
            unit["app"],
            scheme,
            str(r.cycles),
            f"{r.ipc:.4g}",
            f"{r.l1d.hit_rate:.3f}",
            str(r.l1d.bypasses),
        ))
    table = ascii_table(
        ["App", "Scheme", "Cycles", "IPC", "Hit rate", "Bypasses"],
        rows,
        title=f"{doc['id']}: {doc['kind']} {doc['state']} "
              f"({doc['units']} units)",
    )
    if analytical:
        table += (
            f"\n~ {analytical} analytical tier-0 answer(s); exact results "
            "are refining in the background and supersede in the store"
        )
    return table


def cmd_submit(args) -> int:
    from repro.analysis.telemetry import render_latency_histogram
    from repro.serve.client import JobFailedError, ServeClient
    from repro.serve.protocol import (
        cell_request,
        replay_request,
        sweep_request,
    )

    # transparent backoff on 429/transport errors (off in the library
    # default so tests observe raw responses; on for the human CLI)
    client = ServeClient(host=args.host, port=args.port, retries=3)
    cmd = args.submit_command

    if cmd == "health":
        doc = client.healthz()
        print(ascii_table(["field", "value"],
                          [(k, str(v)) for k, v in sorted(doc.items())],
                          title=f"{args.host}:{args.port}"))
        return 0 if doc.get("status") in ("ok", "draining") else 1

    if cmd == "metrics":
        if args.prom:
            print(client.metrics_prometheus(), end="")
            return 0
        doc = client.metrics()
        rows = [(f"{group}.{k}", str(v))
                for group in ("jobs", "cells", "predict", "http", "store")
                for k, v in sorted(doc.get(group, {}).items())]
        rows.append(("draining", str(doc.get("draining"))))
        rows.append(("uptime_seconds", str(doc.get("uptime_seconds"))))
        print(ascii_table(["metric", "value"], rows, title="repro-serve"))
        print()
        print(render_latency_histogram("queue wait",
                                       doc["queue_wait_seconds"]))
        if doc.get("supersede_latency_seconds", {}).get("count"):
            print()
            print(render_latency_histogram(
                "supersede latency (analytical -> exact)",
                doc["supersede_latency_seconds"]))
        for scheme, hist in doc.get("sim_latency_seconds", {}).items():
            print()
            print(render_latency_histogram(f"sim latency [{scheme}]", hist))
        return 0

    if cmd == "cancel":
        doc = client.cancel(args.job_id)
        print(f"{doc['id']}: cancelled={doc['cancelled']} "
              f"state={doc['state']}")
        return 0 if doc["cancelled"] else 1

    if cmd == "status":
        doc = client.wait(args.job_id, timeout=args.timeout,
                          raise_on_failure=False) \
            if args.wait else client.status(args.job_id)
        if doc.get("results"):
            print(_render_job(doc))
        else:
            print(f"{doc['id']}: {doc['state']} "
                  f"({doc['units']} units, kind {doc['kind']})")
            if doc.get("error"):
                print(f"error: {doc['error'].get('error')}", file=sys.stderr)
        return 0 if doc["state"] in ("queued", "running", "done") else 1

    if cmd == "cell":
        body = cell_request(args.app.upper(), args.scheme, sms=args.sms,
                            scale=args.scale, seed=args.seed,
                            max_cycles=args.max_cycles,
                            priority=args.priority,
                            non_blocking=args.non_blocking,
                            predict=args.predict, client=args.client)
    elif cmd == "sweep":
        body = sweep_request(
            [a.strip() for a in args.apps.split(",") if a.strip()],
            [s.strip() for s in args.schemes.split(",") if s.strip()],
            sms=args.sms, scale=args.scale, seed=args.seed,
            priority=args.priority, non_blocking=args.non_blocking,
            predict=args.predict, client=args.client,
        )
    else:  # replay
        body = replay_request(
            [a.strip() for a in args.apps.split(",") if a.strip()],
            [s.strip() for s in args.schemes.split(",") if s.strip()],
            sms=args.sms, scale=args.scale, seed=args.seed,
            priority=args.priority, non_blocking=args.non_blocking,
            predict=args.predict, client=args.client,
        )
    job = client.submit(body)
    print(f"submitted {job['id']} ({job['kind']}, {job['units']} units, "
          f"priority {job['priority']})")
    if not args.wait:
        return 0
    try:
        doc = client.wait(job["id"], timeout=args.timeout)
    except JobFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = exc.job.get("error") or {}
        if error.get("fingerprint"):
            import json as _json

            print(_json.dumps(error["fingerprint"], indent=2, sort_keys=True),
                  file=sys.stderr)
        return 1
    print(_render_job(doc))
    return 0


def cmd_predict(args) -> int:
    from repro.predict import PredictSweepExecutor

    apps = ALL_APPS if args.apps == "all" else [
        a.strip().upper() for a in args.apps.split(",") if a.strip()
    ]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in SCHEME_LABELS:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {sorted(SCHEME_LABELS)}"
            )
    kwargs = {"trace_dir": args.trace_dir}
    if args.raw:
        kwargs["calibration"] = None
    executor = PredictSweepExecutor(**kwargs)
    results = executor.run_sweep(
        apps, schemes, num_sms=args.sms, scale=args.scale, seed=args.seed
    )
    rows = []
    for app, per_scheme in results.items():
        for scheme, p in per_scheme.items():
            err = p.error or {}
            rows.append((
                app,
                SCHEME_LABELS[scheme],
                f"{p.miss_rate:.4f}",
                (f"{err['mean_abs']:.4f}/{err['max_abs']:.4f}"
                 if "mean_abs" in err else "-"),
                f"{p.hit_rate:.3f}",
                f"{p.ipc:.4g}" if p.ipc is not None else "-",
            ))
    print(ascii_table(
        ["App", "Scheme", "Miss rate", "±err mean/max", "Hit rate", "IPC"],
        rows,
        title=f"analytical predictions: {len(apps)} apps x "
              f"{len(schemes)} schemes ({args.sms} SMs, "
              f"scale {args.scale:g}"
              + (", raw model" if args.raw else ", calibrated") + ")",
    ))
    st = executor.stats
    print(
        f"\npredict: profiled {st.profiled} streams "
        f"({st.profile_hits} profile cache hits), "
        f"{st.predicted} analytical answers — no cache was stepped"
    )
    return 0


def cmd_profile(args) -> int:
    app = args.app.upper()
    if args.scheme is not None:
        from repro.fastsim.profile import profile_cell

        profile = profile_cell(app, args.scheme, num_sms=args.sms,
                               scale=args.scale)
        print(profile.render())
        return 0

    from repro.experiments.cachesim import profile_reuse

    config = harness_config(args.sms)
    profiler = profile_reuse(make_workload(app), config)
    print(stacked_percent_rows(
        [app], [profiler.overall_fractions()], RD_LABELS,
        title=f"{app}: reuse-distance distribution",
    ))
    per_pc = sorted(profiler.pc_fractions().items())
    print()
    print(stacked_percent_rows(
        [f"pc={pc:#x}" for pc, _ in per_pc],
        [fracs for _, fracs in per_pc],
        RD_LABELS,
        title="per-instruction RDDs",
    ))
    return 0


def cmd_trace(args) -> int:
    from repro.trace import (
        TraceReader,
        import_text_trace,
        record_app,
        replay_trace,
        replay_workload,
    )

    if args.trace_command == "record":
        config = harness_config(args.sms)
        path = record_app(args.app.upper(), args.out, config,
                          scale=args.scale, seed=args.seed)
        reader = TraceReader(path)
        print(f"recorded {reader.total_records} records "
              f"({reader.num_sms} SMs) -> {path}")
        return 0

    if args.trace_command == "info":
        reader = TraceReader(args.trace)
        info = reader.info()
        rows = [(k, str(v)) for k, v in info.items()]
        print(ascii_table(["field", "value"], rows, title=str(args.trace)))
        if args.rdd:
            from repro.predict import profile_trace

            profile = profile_trace(reader)
            print()
            print(stacked_percent_rows(
                ["overall"], [profile.rdd.fractions()], RD_LABELS,
                title=f"reuse-distance distribution "
                      f"({profile.rdd.total} reuses, "
                      f"{profile.compulsory} compulsory)",
            ))
            per_insn = sorted(profile.insn_rdd.items())
            if per_insn:
                print()
                print(stacked_percent_rows(
                    [f"insn={insn:#04x} ({hist.total})"
                     for insn, hist in per_insn],
                    [hist.fractions() for _insn, hist in per_insn],
                    RD_LABELS,
                    title="per-instruction RDDs (hashed instruction IDs)",
                ))
        return 0

    if args.trace_command == "import":
        reader = import_text_trace(args.src, args.dest, num_sms=args.sms,
                                   line_size=args.line_size)
        print(f"imported {reader.total_records} records "
              f"({reader.num_sms} SMs) -> {args.dest}")
        return 0

    # replay
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for scheme in schemes:
        if scheme not in SCHEME_LABELS:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {sorted(SCHEME_LABELS)}"
            )
    reader = TraceReader(args.trace)
    config = harness_config(args.sms) if args.sms is not None else None
    if args.non_blocking:
        config = (config or harness_config(reader.num_sms)) \
            .with_l1d(non_blocking=True)
    results = {s: replay_trace(reader, s, config, engine=args.engine)
               for s in schemes}
    rows = [
        (
            SCHEME_LABELS[s],
            f"{r.l1d.hit_rate:.3f}",
            str(r.l1d.bypasses),
            str(r.l1d.evictions_total),
            str(int(r.interconnect.get("total_requests", 0))),
        )
        for s, r in results.items()
    ]
    print(ascii_table(
        ["Scheme", "Hit rate", "Bypasses", "Evictions", "Interconnect"],
        rows,
        title=f"replay of {args.trace} ({reader.total_records} records)",
    ))
    if args.verify:
        meta = reader.meta
        if meta.get("source") != "registry":
            raise ValueError(
                "--verify needs a registry-recorded trace "
                f"(this one has source={meta.get('source')!r})"
            )
        workload_config = config or harness_config(reader.num_sms)
        mismatches = 0
        for scheme in schemes:
            live = replay_workload(
                make_workload(meta["abbr"], meta.get("scale", 1.0),
                              seed=meta.get("seed", 0)),
                workload_config, scheme,
            )
            ok = live.to_dict() == results[scheme].to_dict()
            mismatches += 0 if ok else 1
            print(f"verify {scheme}: {'identical' if ok else 'MISMATCH'}")
        if mismatches:
            print(f"verify: {mismatches} scheme(s) diverged", file=sys.stderr)
            return 1
        print("verify: replay identical to functional path "
              f"for all {len(schemes)} schemes")
    return 0


def cmd_check(args) -> int:
    from repro.check.lint import run_check

    return run_check(
        paths=args.paths or None,
        baseline=args.baseline,
        json_output=args.json_output,
        update_baseline=args.update_baseline,
        update_manifest=args.update_manifest,
        update_parity=args.update_parity,
        strict=args.strict,
        sarif=args.sarif,
    )


def cmd_fuzz(args) -> int:
    from repro.experiments.fuzz import (
        ADVERSARIAL_APPS,
        FUZZ_SCHEMES,
        run_fuzz,
    )

    generators = (
        [g.strip().upper() for g in args.generators.split(",") if g.strip()]
        if args.generators else list(ADVERSARIAL_APPS)
    )
    for gen in generators:
        if gen not in ADVERSARIAL_APPS:
            raise ValueError(
                f"unknown generator {gen!r}; "
                f"expected one of {list(ADVERSARIAL_APPS)}"
            )
    schemes = (
        [s.strip() for s in args.policies.split(",") if s.strip()]
        if args.policies else list(FUZZ_SCHEMES)
    )
    for scheme in schemes:
        if scheme not in SCHEME_LABELS:
            raise ValueError(
                f"unknown scheme {scheme!r}; "
                f"expected one of {sorted(SCHEME_LABELS)}"
            )
    report = run_fuzz(
        streams=args.streams,
        base_seed=args.seed,
        generators=generators,
        schemes=schemes,
        scale=args.scale,
        num_sms=args.sms,
        length=args.length,
        shrink=not args.no_shrink,
    )
    if args.json_output:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    print(
        f"fuzz: {report.cases} streams ({report.records} records), "
        f"{report.checks} grid points x 2 engines"
    )
    if report.ok:
        print("fuzz: reference and fast engines bit-identical everywhere")
        return 0
    rows = [
        (
            d.case.generator,
            str(d.case.seed),
            d.scheme,
            "non-blocking" if d.non_blocking else "blocking",
            f"{d.prefix}/{d.records}",
            d.ref_fingerprint[:12],
            d.fast_fingerprint[:12],
        )
        for d in report.divergences
    ]
    print(ascii_table(
        ["Generator", "Seed", "Scheme", "MSHR mode", "Prefix", "ref", "fast"],
        rows,
        title=f"{len(report.divergences)} divergence(s)",
    ))
    for d in report.divergences:
        print("repro:", d.to_dict()["repro"], file=sys.stderr)
    return 1


def cmd_list(_args) -> int:
    print(ascii_table(
        ["Application", "Abbr.", "Suite", "Type", "Paper input", "Scaled input"],
        table2_rows(),
        title="Table 2 applications",
    ))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "figure": cmd_figure,
    "sweep": cmd_sweep,
    "store": cmd_store,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "loadtest": cmd_loadtest,
    "predict": cmd_predict,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "check": cmd_check,
    "fuzz": cmd_fuzz,
    "list": cmd_list,
}


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.executor import CellExecutionError
    from repro.serve.client import ServeError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CellExecutionError as exc:
        # one cell's failure, labelled with its content-addressed
        # identity — never a bare worker-pool traceback
        import json as _json

        print(f"error: {exc}", file=sys.stderr)
        print(_json.dumps(exc.payload()["fingerprint"], indent=2,
                          sort_keys=True), file=sys.stderr)
        return 3
    except (ValueError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output truncated by a shell pipe (| head)
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
