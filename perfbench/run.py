"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload timing-fig10 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload replay-ablation --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off, over as
many whole rounds as fit ``--seconds`` on the reference host;
``--trace 1`` runs one untraced and two traced rounds and reports the
per-layer metrics.  Both print a human-readable report and, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": 25, "failed": 0, "metrics": {...}}

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  The exit code is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads, metrics and noise notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import HostClock  # noqa: E402  (needs ROOT on the path)
from perfbench.tracer import Tracer  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Counts that must repeat exactly across the two traced rounds.
EXACT_WORKLOADS = ("timing-fig10", "replay-ablation")
EXACT_NAMES = ("batchsim.lanes", "replay.l1d_accesses", "gpu.events")
#: Per-layer values only some workloads produce; zero elsewhere.
LAYER_DEFAULTS = (
    "sim.cycles", "sim.warp_insns", "sim.l1d_accesses", "sim.l1d_hits",
    "sim.l1d_bypasses", "sim.ldst_stall_cycles", "sim.icnt_bytes",
    "batchsim.lanes", "replay.l1d_accesses", "loadtest.polls_per_request",
    "serve.simulated", "serve.store_hits",
)

perf = time.perf_counter


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    #: (wall, cpu, index of the calibration slice after it) per part.
    segments: List[Tuple[float, float, Optional[int]]]
    attempted: int
    failures: List[str]
    summary: Dict[str, float]
    layer: Dict[str, float]
    latencies: List[float]

    def normalized(self, clock: HostClock, column: int) -> float:
        """Wall (column 0) or CPU (1) time, each part host-normalized."""
        return sum(part[column] * clock.factor(part[2])
                   for part in self.segments)


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe_imports(modules) -> None:
    """Import the workload's modules in a fresh interpreter (set-up cost
    a user pays per process)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import the program:\n{proc.stderr}")


def git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def timed(workload, work: Path, clock: Optional[HostClock]):
    """One round of the workload's timed work, in the parts it marks with
    ``pause()``; with a ``clock``, a calibration slice follows each part."""
    segments: List[Tuple[float, float, Optional[int]]] = []
    mark = [perf(), cpu_seconds()]

    def pause() -> None:
        wall, cpu = perf() - mark[0], cpu_seconds() - mark[1]
        segments.append((wall, cpu, clock.mark() if clock else None))
        mark[:] = perf(), cpu_seconds()

    outputs = workload.run_round(work, pause)
    pause()
    return outputs, segments


def finish(workload, outputs, segments) -> Round:
    """Check a round's outputs and collect its figures (clock stopped)."""
    wall = sum(part[0] for part in segments)
    attempted, failures = workload.check(outputs)
    return Round(wall, sum(part[1] for part in segments), segments,
                 attempted, failures, workload.summary(outputs, wall),
                 workload.layer_values(outputs), workload.latencies(outputs))


def run_round(workload, work: Path, tag: str,
              clock: Optional[HostClock] = None) -> Round:
    return finish(workload, *timed(workload, work / f"round-{tag}", clock))


def traced_round(workload, work: Path, tag: str):
    """A round with every layer wrapped; checks run after unwrapping."""
    with Tracer() as tracer:
        outputs, segments = timed(workload, work / f"round-{tag}", None)
    tracer.link_requests("loadtest.request", "serve.route")
    return finish(workload, outputs, segments), tracer


def layer_values(tracer, layer: Dict[str, float]) -> Dict[str, float]:
    values: Dict[str, float] = dict.fromkeys(LAYER_DEFAULTS, 0)
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.self_s"] = stat.self_s
        values[f"{name}.useful_ratio"] = (
            stat.useful / stat.calls if stat.calls else 0.0)
    values["gpu.events"] = tracer.stats["gpu.events"].calls
    values.update(tracer.counters)
    values.update(layer)
    return values


def exact_mismatches(first: Dict[str, float], second: Dict[str, float],
                     names) -> List[str]:
    return [
        f"{name}: {first[name]} in the first traced round, "
        f"{second[name]} in the second"
        for name in names
        if (name.endswith(".calls") or name.startswith("sim.")
            or name in EXACT_NAMES) and first[name] != second[name]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite digests.json from this run (default "
                             "seed, --trace 0) instead of checking it")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t0 = perf()
    from perfbench import workloads as wl

    import_s = perf() - t0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(wl.WORKLOADS)}")
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    if args.update_digests and (seed != wl.DEFAULT_SEED or args.trace):
        parser.error("--update-digests needs the default seed and --trace 0")
    pinned = {} if args.update_digests or seed != wl.DEFAULT_SEED \
        else wl.load_digests(args.workload)
    if seed == wl.DEFAULT_SEED and not pinned and not args.update_digests:
        raise SystemExit(f"digests.json pins nothing for {args.workload}")
    workload = wl.WORKLOADS[args.workload](seed, pinned)

    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    clock = HostClock()
    try:
        clock.mark()
        setups = [(set_up(workload, work / f"setup-{rep}"), clock.mark())
                  for rep in range(SETUP_REPEATS)]
        if args.trace:
            rounds, values, errors = measure_traced(workload, work, spec)
        else:
            # A fixed number of rounds, not a deadline, so two commits
            # always do the same work.
            count = max(1, round(args.seconds / workload.round_s))
            rounds = [run_round(workload, work, str(i), clock)
                      for i in range(count)]
            errors = []
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    simulated = sum(r.layer.get("serve.simulated", 0) for r in rounds)
    if simulated:
        errors.append(f"serve simulated {simulated} cells; the pre-warmed "
                      f"store must answer every request")

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    e2e = {
        "setup_s": statistics.median(t * clock.factor(i) for t, i in setups),
        "wall_s": statistics.median(r.normalized(clock, 0) for r in rounds),
        "cpu_s": statistics.median(r.normalized(clock, 1) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - len(failures)) / attempted,
        "ops_per_s": statistics.median(r.attempted / r.normalized(clock, 0)
                                       for r in rounds),
    }
    raw = {
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "raw_wall_s": statistics.median(r.wall_s for r in rounds),
        "raw_cpu_s": statistics.median(r.cpu_s for r in rounds),
        "raw_ops_per_s": statistics.median(r.attempted / r.wall_s
                                           for r in rounds),
    }
    section = "per_layer" if args.trace else "end_to_end"
    source = values if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    lines = [f"workload {args.workload}  seed {seed}  trace {args.trace}  "
             f"rounds {len(rounds)}  ops {attempted}  failed {len(failures)}"]
    if args.trace:
        lines += trace_report(spec, values, rounds[-1].wall_s)
    else:
        lines += [f"  {name:<22} {value:>14.6g} {metrics[name]['unit']}"
                  for name, value in e2e.items()]
        lines += [f"  {name:<22} {value:>14.6g}" for name, value in raw.items()]
        extra = workload_figures(wl, workload, rounds)
        lines += [f"  {key:<22} {value:>14.6g}" for key, value in extra.items()]
        if "dlp_ipc_gain" in extra:
            lines.append(
                f"  (paper's dlp_ipc_gain: {wl.PAPER_DLP_IPC_GAIN}.  This grid "
                f"runs {workload.NUM_SMS} SMs at scale {workload.SCALE}, not "
                f"the paper's machine, and its CI gains are muted: "
                f"EXPERIMENTS.md deviation #1)")
        e2e.update(extra)
    lines += [f"  FAILED: {message}" for message in (failures + errors)[:20]]
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "config": workload.config(), "import_s": import_s,
        "setups": [{"raw_s": t, "factor": clock.factor(i)} for t, i in setups],
        "calibration_s": clock.slices,
        "rounds": [{"raw_wall_s": r.wall_s, "raw_cpu_s": r.cpu_s,
                    "wall_s": r.normalized(clock, 0),
                    "cpu_s": r.normalized(clock, 1),
                    "segments": r.segments, "ops": r.attempted,
                    "failed": len(r.failures), **r.summary} for r in rounds],
        "end_to_end": {**e2e, **raw}, "metrics": metrics,
        "failures": (failures + errors)[:100],
    }
    out = ROOT / ".perfbench" / "runs" / \
        f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    lines.append(f"  run record: {out.relative_to(ROOT)}")
    if args.update_digests:
        wl.save_digests(args.workload, workload.observed)
        lines.append(f"  wrote {len(workload.observed)} digests")

    for line in lines:
        print(line)
    correct = not failures and not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0 if correct else 1


def set_up(workload, work: Path) -> float:
    """One set-up: a fresh interpreter's imports, then the workload's own."""
    t0 = perf()
    probe_imports(workload.imports)
    workload.setup(work)
    return perf() - t0


def measure_traced(workload, work: Path, spec):
    """Traced, untraced, traced: per-layer values from the second traced
    round, and any exact count that differs between the traced rounds."""
    first, tracer_a = traced_round(workload, work, "traced-1")
    plain = run_round(workload, work, "untraced")
    second, tracer = traced_round(workload, work, "traced-2")
    values = layer_values(tracer, second.layer)
    values["tracing.overhead_ratio"] = second.wall_s / plain.wall_s
    errors: List[str] = []
    if workload.name in EXACT_WORKLOADS:
        errors = exact_mismatches(layer_values(tracer_a, first.layer), values,
                                  [m["name"] for m in spec["per_layer"]])
    tracer.write_spans(ROOT / ".perfbench" / "spans"
                       / f"{workload.name}-seed{workload.seed}.jsonl")
    return [first, plain, second], values, errors


def workload_figures(wl, workload, rounds: List[Round]) -> Dict[str, float]:
    """The workload's own figures: medians over rounds, pooled latencies."""
    figures = {key: statistics.median(r.summary[key] for r in rounds)
               for key in rounds[0].summary}
    samples = [v for r in rounds for v in r.latencies]
    if samples:
        figures.update(wl.latency_summary(samples))
    return figures


def trace_report(spec, values: Dict[str, float], wall: float) -> List[str]:
    """Every per-layer metric, then each layer's share of the traced round."""
    lines = [f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}"
             for m in spec["per_layer"]]
    timed = {name[:-len(".self_s")]: v for name, v in values.items()
             if name.endswith(".self_s") and v > 0}
    # Spans on concurrent threads can sum past the wall time.
    timed["(outside any span)"] = max(0.0, wall - sum(timed.values()))
    total = sum(timed.values())
    lines.append("  self-time shares of the traced round:")
    lines += [f"    {name:<26} {100 * v / total:6.1f}%"
              for name, v in sorted(timed.items(), key=lambda kv: -kv[1])]
    return lines


if __name__ == "__main__":
    sys.exit(main())
