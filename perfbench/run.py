#!/usr/bin/env python3
"""aansim benchmark: two closed-loop workloads over scenarios/lab_study.json.

Run from the repository root:

    python3 perfbench/run.py --workload paired_study --seed 0 --seconds 45 --trace 0

One caller runs the workload's units back to back (a closed loop) until the
measured time reaches ``--seconds``.  ``--trace 0`` wraps nothing and reports
the end-to-end metrics; ``--trace 1`` runs each episode (each study on
paired_study) of the workload's fixed digest block untraced and traced back
to back, and reports the per-layer metrics with the tracing overhead.  Every
run checks the simulator's output.  The last stdout line is the result
object; the line before it is a report with the host record, sample counts,
the tail percentile, the output digest and the exact-count fingerprint.
Workloads, metrics and predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import scipy

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "lab_study.json"
OUT = ROOT / ".perfbench_out"
# Workload seed n draws its episode seeds from [n * SEED_SPAN, (n + 1) * SEED_SPAN).
SEED_SPAN = 100_000
SETUP_REPEATS = 3
MODULES = ("cli", "episode", "geometry", "metrics", "navigation", "orchestrator",
           "scenario", "seeding", "session", "usersim", "world")


@dataclass(frozen=True)
class Workload:
    condition: str | None  # None runs both conditions through the batch driver
    digest_units: int  # fixed block behind the digest, the fingerprint and the trace
    tail_pct: int  # leaves at least ten samples beyond it at today's speed


# Condition B's episode time is set mostly by where the bottle hides (about
# 0.44, 0.96 and 1.36 s for the three lab_study locations), so every unit is a
# run of consecutive seeds that hides it at each location in the scenario's
# own proportions (see unit_quota): runs on different seeds then share the mix
# of short and long searches that `aansim batch` over consecutive seeds sees.
WORKLOADS = {
    "handsoff": Workload("A", digest_units=36, tail_pct=99),
    "paired_study": Workload(None, digest_units=2, tail_pct=80),
}


@dataclass
class Episode:
    """What a run keeps of one episode once its log is checked."""

    seed: int
    condition: str
    sim_s: float  # simulated session seconds, 0 without a log
    problem: str | None  # why the output check failed, None when it passed
    data: bytes | None = None  # canonical log bytes, digest block only
    counts: Counter | None = None  # exact counts, digest block only


def import_aansim() -> SimpleNamespace:
    if not (SRC / "aansim" / "__init__.py").is_file() or not SCENARIO.is_file():
        raise SystemExit(f"perfbench: no aansim source tree or scenario under {ROOT}")
    sys.path.insert(0, str(SRC))
    sim = SimpleNamespace(**{m: importlib.import_module(f"aansim.{m}") for m in MODULES})
    if Path(sim.cli.__file__).resolve().parent != SRC / "aansim":
        raise SystemExit(f"perfbench: imported aansim from {sim.cli.__file__}, not {SRC}")
    return sim


def placement(sim, scenario, seed: int) -> str:
    """Where the condition-independent placement stream hides the bottle."""
    rng = sim.seeding.stream(seed, None, "placement")
    return scenario.rois[sim.usersim.choose_bottle_roi(len(scenario.rois), scenario.profile, rng)].id


def unit_quota(scenario) -> Counter:
    """Bottles per location in the smallest seed unit whose placement shares are
    the scenario's own odds: ``usersim.choose_bottle_roi`` keeps the bottle at
    the usual spot (the first ROI) with 1 - p_misplace and otherwise moves it
    to one of the other ROIs uniformly.  For lab_study (p_misplace 0.6, three
    ROIs) that is 4/3/3 in ten seeds."""
    p, n = scenario.profile.p_misplace, len(scenario.rois)
    shares = [1.0 - p] + [p / (n - 1)] * (n - 1) if n > 1 else [1.0]
    for size in range(1, 101):
        counts = [round(size * share) for share in shares]
        if all(abs(c - size * share) < 1e-9 for c, share in zip(counts, shares)):
            return Counter({roi.id: c for roi, c in zip(scenario.rois, counts) if c})
    raise SystemExit(f"perfbench: no seed unit of at most 100 matches shares {shares}")


def balanced_blocks(sim, scenario, start: int, quota: Counter, scanned: Counter):
    """Consecutive seed blocks, scanning up from ``start``, whose placements
    match ``quota``; items are (seed, roi id).  ``scanned`` tallies every
    placement looked at, so the report can show the shares the seeds have."""
    window: deque = deque(maxlen=sum(quota.values()))
    seed = start
    while True:
        roi = placement(sim, scenario, seed)
        scanned[roi] += 1
        window.append((seed, roi))
        seed += 1
        if len(window) == window.maxlen and Counter(r for _, r in window) == quota:
            yield list(window)
            window.clear()


def log_bytes(sim, log, workdir: Path) -> bytes:
    path = workdir / "log.jsonl"
    sim.session.write_log(log, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Workload passes


@dataclass
class Pass:
    episodes: list[Episode] = field(default_factory=list)
    busy: float = 0.0  # host seconds inside the timed calls
    latency_ms: list[float] = field(default_factory=list)  # host ms per episode
    latency_source: Counter = field(default_factory=Counter)  # samples per timing source
    units: list[list[tuple[int, str]]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def run_pass(sim, scenario, wl: Workload, units, seconds: float, min_units: int,
             workdir: Path) -> Pass:
    """Run whole units back to back until ``seconds`` are measured and at least
    ``min_units`` units are done."""
    run = Pass()
    for unit in units:
        run_unit(sim, scenario, wl, unit, len(run.units) < min_units, workdir, run)
        run.units.append(unit)
        if run.busy >= seconds and len(run.units) >= min_units:
            break
    return run


def run_unit(sim, scenario, wl: Workload, unit, in_digest: bool, workdir: Path,
             run: Pass) -> None:
    if wl.condition is None:
        run_study(sim, scenario, unit, in_digest, workdir, run)
    else:
        for seed, roi in unit:
            t0 = perf_counter()
            try:
                log = sim.episode.run_episode(scenario, wl.condition, seed).log
            except Exception:
                traceback.print_exc()
                log = None
            dt = perf_counter() - t0
            run.busy += dt
            run.latency_ms.append(1e3 * dt)
            run.latency_source["run_episode"] += 1
            keep_episode(sim, run, seed, wl.condition, roi, log, in_digest, workdir)


def run_study(sim, scenario, unit, in_digest: bool, workdir: Path, run: Pass) -> None:
    """One paired study as a researcher runs it: ``aansim batch``, then
    ``aansim report`` on its output directory.

    The output check reads only what the study wrote.  Episode latency comes
    from wrapping ``cli.run_episode`` in this process when the wrapper saw every
    episode of the study; a driver that runs episodes elsewhere (worker
    processes) gives each pair the study's wall time per episode instead.
    """
    seeds = [s for s, _ in unit]
    out = workdir / f"study_{seeds[0]}"
    where = f"study at seed {seeds[0]}"
    episode_s: dict[tuple[int, str], float] = {}
    run_episode = sim.cli.run_episode

    def timed_run_episode(scenario_, condition, seed):
        t0 = perf_counter()
        try:
            return run_episode(scenario_, condition, seed)
        finally:
            episode_s[(seed, condition)] = perf_counter() - t0

    codes: list = []
    sim.cli.run_episode = timed_run_episode
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(sim.cli.main(["batch", "--scenario", str(SCENARIO),
                                       "--seeds", str(len(seeds)), "--seed-start", str(seeds[0]),
                                       "--out", str(out)]))
            codes.append(sim.cli.main(["report", "--logs", str(out)]))
    except Exception:
        traceback.print_exc()
        codes.append("raised")
    finally:
        wall = perf_counter() - t0
        run.busy += wall
        sim.cli.run_episode = run_episode

    if all((s, c) in episode_s for s in seeds for c in ("A", "B")):
        run.latency_ms += [1e3 * (episode_s[(s, "A")] + episode_s[(s, "B")]) / 2 for s in seeds]
        run.latency_source["run_episode"] += len(seeds)
    else:
        run.latency_ms += [1e3 * wall / (2 * len(seeds))] * len(seeds)
        run.latency_source["study_wall"] += len(seeds)

    if codes != [0, 0]:
        run.problems.append(f"{where}: exit codes {codes}")
    summary = out / "summary.csv"
    rows = summary.read_text(encoding="utf-8").splitlines() if summary.is_file() else []
    if len(rows) != 1 + 2 * len(seeds):
        run.problems.append(f"{where}: summary.csv has {len(rows)} lines")
    if not (out / "report.txt").is_file() or not (out / "report.txt").stat().st_size:
        run.problems.append(f"{where}: no report.txt")
    for seed, roi in unit:
        for condition in ("A", "B"):
            path = out / f"{scenario.name}_{condition}_seed{seed:04d}.jsonl"
            data = path.read_bytes() if path.is_file() else None
            try:
                log = sim.session.read_log(path) if data is not None else None
            except sim.session.LogInvalid as exc:
                print(f"perfbench: {where}: {path.name}: {exc}", file=sys.stderr)
                log = None
            keep_episode(sim, run, seed, condition, roi, log, in_digest, workdir, data)
    if out.exists():
        shutil.rmtree(out)


# ---------------------------------------------------------------------------
# Output checks


def log_problem(sim, seed: int, condition: str, expected_roi: str, log) -> str | None:
    """Why an episode fails the output check, or None when it passes.

    Both conditions of a seed must hide the bottle where the condition-
    independent placement stream puts it, so A/B pairs share ``bottle_roi``.
    """
    if log is None:
        return "raised or wrote no log"
    try:
        sim.session.validate_log(log)
    except sim.session.LogInvalid as exc:
        return f"invalid log: {exc}"
    meta = log.meta
    if (meta.get("seed"), meta.get("condition")) != (seed, condition):
        return f"log is for {meta.get('condition')} seed {meta.get('seed')}"
    if meta.get("bottle_roi") != expected_roi:
        return f"bottle_roi {meta.get('bottle_roi')} != {expected_roi}"
    motion = {k.value for k in sim.orchestrator.MOTION_ACTION_KINDS}
    if condition == "A" and any(
        a.get("kind") in motion
        for r in log.records if r["kind"] == "event" for a in r["actions"]
    ):
        return "condition A log holds a motion action"
    return None


def keep_episode(sim, run: Pass, seed: int, condition: str, expected_roi: str, log,
                 in_digest: bool, workdir: Path, data: bytes | None = None) -> None:
    """Check an episode's log as soon as it is done and keep only a summary.

    Holding every SessionLog until the end would grow the heap that Python's
    cyclic collector scans with the length of the run, and full collections
    are a large share of a condition-A episode's time; ``aansim batch`` keeps
    only each session's metrics.
    """
    problem = log_problem(sim, seed, condition, expected_roi, log)
    if problem is not None:
        print(f"perfbench: {condition} seed {seed}: {problem}", file=sys.stderr)
    ep = Episode(seed, condition, log.end_time if log is not None else 0.0, problem)
    if in_digest and log is not None:
        ep.data = data if data is not None else log_bytes(sim, log, workdir)
        ep.counts = Counter({
            f"completed.{condition}": int(sim.metrics.session_metrics(log).completed),
            "log_records": len(log.records),
            "log_bytes": len(ep.data),
            "sim_s": log.end_time,
            "gaze_samples": sum(r["data"]["n_samples"] for r in log.records
                                if r.get("note") == "gaze_summary"),
        })
    run.episodes.append(ep)


def digest_block(run: Pass, units: int) -> list[Episode]:
    """Episodes of the first ``units`` units in (seed, condition) order."""
    seeds = {s for unit in run.units[:units] for s, _ in unit}
    return sorted((ep for ep in run.episodes if ep.seed in seeds),
                  key=lambda e: (e.seed, e.condition))


def output_fingerprint(block: list[Episode]) -> tuple[str, dict]:
    """SHA-256 over the block's logs and its exact counts."""
    digest = hashlib.sha256()
    fp: Counter = Counter()
    for ep in block:
        digest.update(ep.data or b"")
        fp[f"episodes.{ep.condition}"] += 1
        fp.update(ep.counts or {})
    return digest.hexdigest(), dict(sorted(fp.items()))


def failures(run: Pass) -> int:
    return sum(ep.problem is not None for ep in run.episodes) + len(run.problems)


# ---------------------------------------------------------------------------
# Host record and set-up time


def host_record() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    text = cpuinfo.read_text() if cpuinfo.is_file() else ""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), value.strip())
    simd = sorted(f for f in fields.get("flags", fields.get("Features", "")).split()
                  if f.startswith(("sse", "ssse", "avx", "fma", "amx", "neon", "asimd", "sve")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": fields.get("model name", platform.processor()),
        "simd_flags": simd,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS the process loaded, read through its C API."""
    maps = Path("/proc/self/maps")
    libs = ({line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line}
            if maps.is_file() else set())
    counts = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = int(fn())
                break
    return counts


def os_threads() -> int | None:
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def setup_seconds() -> list[float]:
    """Wall time of cold interpreters that import aansim and load the scenario."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import aansim.cli; "
            f"from aansim.scenario import load_scenario; load_scenario({str(SCENARIO)!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run: Pass, wl: Workload, setup: list[float], rss: float) -> tuple[dict, dict]:
    """Gated metrics by name, and the report-only ones as name -> (value, unit).

    Latency samples are per episode; on paired_study each pair gives one, the
    mean of its A and B episode."""
    lat = run.latency_ms
    tail = float(np.percentile(lat, wl.tail_pct))
    sim_s = sum(ep.sim_s for ep in run.episodes)
    gated = {
        "setup_s": statistics.median(setup),
        "episodes_per_s": len(run.episodes) / run.busy,
        "episode_p50_ms": statistics.median(lat),
        "episode_tail_ms": tail,
        "sim_s_per_host_s": sim_s / run.busy,
        "peak_rss_mb": rss,
    }
    also = {
        "latency_samples": (len(lat), "count"),
        "tail_percentile": (wl.tail_pct, "pct"),
        "samples_beyond_tail": (sum(1 for x in lat if x > tail), "count"),
        "setup_samples": (len(setup), "count"),
        "measured_s": (run.busy, "s"),
    }
    also.update({f"latency_from_{k}": (v, "count") for k, v in sorted(run.latency_source.items())})
    if wl.condition is None:
        also["study_pairs_per_s"] = (len(run.episodes) / 2 / run.busy, "1/s")
    return gated, also


def traced_pair(sim, scenario, wl: Workload, units, workdir: Path):
    """Run each episode (each study on paired_study) untraced and traced back
    to back, alternating which goes first, so both passes see the same host
    speed; returns both passes."""
    tracer = tracing.Tracer()
    wrap = tracing.targets(sim)
    with tracer.installed(wrap):
        traced_scenario = sim.scenario.load_scenario(SCENARIO)
    plain, traced = Pass(), Pass()
    turn = 0
    for unit in units:
        for piece in [unit] if wl.condition is None else [[key] for key in unit]:
            for with_trace in (False, True) if turn % 2 == 0 else (True, False):
                if with_trace:
                    with tracer.installed(wrap):
                        run_unit(sim, traced_scenario, wl, piece, True, workdir, traced)
                else:
                    run_unit(sim, scenario, wl, piece, True, workdir, plain)
            turn += 1
        plain.units.append(unit)
        traced.units.append(unit)
    return plain, tracer, traced


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metrics of BENCHMARK.json, as name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def declared_values(declared: dict, values: dict) -> dict:
    """The result's metrics: every declared name with its measured value."""
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"perfbench: no value for declared metrics {missing}")
    return {name: (values[name], unit) for name, unit in declared.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sim = import_aansim()
    declared_e2e, declared_layer = declared_metrics()
    wl = WORKLOADS[args.workload]
    scenario = sim.scenario.load_scenario(SCENARIO)
    quota = unit_quota(scenario)
    start = args.seed * SEED_SPAN
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work_") as tmp:
        workdir = Path(tmp)
        # Warm-up on the last seeds of the workload's range, outside its units.
        warm = [(s, placement(sim, scenario, s))
                for s in range(start + SEED_SPAN - (3 if wl.condition == "A" else 1),
                               start + SEED_SPAN)]
        run_pass(sim, scenario, wl, [warm], 0.0, 1, workdir)

        scanned: Counter = Counter()
        blocks = balanced_blocks(sim, scenario, start, quota, scanned)
        if args.trace:
            run, tracer, traced = traced_pair(
                sim, scenario, wl, itertools.islice(blocks, wl.digest_units), workdir)
        else:
            run = run_pass(sim, scenario, wl, blocks, args.seconds, wl.digest_units, workdir)
        block = digest_block(run, wl.digest_units)
        digest, fingerprint = output_fingerprint(block)
        problems = run.problems  # failures(run) counts these

        if args.trace:
            for a, b in zip(block, digest_block(traced, wl.digest_units)):
                if a.data != b.data:
                    problems.append(f"{a.condition} seed {a.seed}: log bytes change when traced")
            untraced_eps = len(run.episodes) / run.busy
            traced_eps = len(traced.episodes) / traced.busy
            overhead = 100.0 * (untraced_eps - traced_eps) / untraced_eps
            metrics = declared_values(declared_layer, tracing.layer_metrics(tracer, overhead))
            fingerprint.update(tracing.fingerprint(tracer))
            spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.json"
            tracer.write(spans_path)
            report.update(untraced_episodes_per_s=untraced_eps, traced_episodes_per_s=traced_eps,
                          spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
            attempted = len(run.episodes) + len(traced.episodes)
            failed = failures(run) + failures(traced)
        else:
            # One key of the run again (B on paired_study): its bytes must repeat.
            first = max((ep for ep in block if ep.seed == block[0].seed),
                        key=lambda ep: ep.condition)
            try:
                again = log_bytes(
                    sim, sim.episode.run_episode(scenario, first.condition, first.seed).log, workdir)
            except Exception:
                traceback.print_exc()
                again = None
            if again != first.data:
                problems.append(f"{first.condition} seed {first.seed}: rerun bytes differ")
            rss = peak_rss_mb()
            values, also = end_to_end(run, wl, setup_seconds(), rss)
            metrics = declared_values(declared_e2e, values)
            report["also"] = {k: {"value": v, "unit": u} for k, (v, u) in also.items()}
            attempted = len(run.episodes)
            failed = failures(run)

    for problem in problems + (traced.problems if args.trace else []):
        print(f"perfbench: {problem}", file=sys.stderr)
    report.update(
        host=host_record(),
        load={"processes": 1, "callers": 1, "os_threads": os_threads()},
        failed_fraction=failed / attempted,
        unit_quota=dict(quota),
        placement_shares={roi: n / sum(scanned.values()) for roi, n in sorted(scanned.items())},
        seeds_scanned=sum(scanned.values()),
        output_digest=digest, digest_episodes=len(block), fingerprint=fingerprint,
    )
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
