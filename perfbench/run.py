"""Benchmark of the cubesums laboratory, run from the root of a checkout:

    python3 perfbench/run.py --workload local --seed 1 --seconds 40 --trace 0

Each round of a run is one fresh single-threaded interpreter
(perfbench/worker.py) with a fresh, empty cache directory; rounds follow one
another until --seconds have passed (and at least MIN_ROUNDS have run).  The
seed picks the inputs inside fixed size classes; every round of a run uses
the same inputs, so counts repeat exactly for a seed.

--trace 0 prints the end-to-end metrics: medians over the rounds of

    wall_ref     spawn of the round's process -> its last timed call returns
    setup_s      spawn -> the warm-up call returns
    work_ref     sum of the timed calls after set-up
    peak_rss_mb  peak resident memory of the round's process

wall_ref and work_ref are in units of ref_s, the time of a fixed reference
computation that each round makes after its checks (see worker.reference_s);
set-up is in seconds.

--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones (self time of the spans around each call into a
layer, counters and rates), plus the tracing overhead.  The spans go to
.perfbench/spans-<workload>-seed<seed>.json, and every run writes its
machine record and per-round figures to .perfbench/<workload>-seed<seed>-
trace<trace>.json.  The last line of stdout is the result as one JSON
object; --corrupt changes one result per round inside the benchmark, which
the output checks must count as failed (a self-check of the checks).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
PACKAGE = ROOT / "src" / "cubesums"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("local", "lattice", "archimedean")
MIN_ROUNDS = 3
# a run ends within 180 s even if the program gets much slower
HARD_LIMIT_S = 160.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "work_ref": "ref",
              "peak_rss_mb": "MB"}
# self time (s) of the spans charged to each metric
SPAN_METRICS = (
    "arith.sieve_s",
    "expsums.pcv_direct_s", "expsums.pcv_large_s", "expsums.t_full_s",
    "expsums.reload_s",
    "series.gamma_first_s", "series.gamma_repeat_s",
    "series.window_double_s", "series.window_exact_s",
    "variance.moment_check_s", "cli.verify_s",
    "weights.rrule_setup_s", "weights.sample_s",
    "lattice.count_exact_s", "lattice.count_float_s", "lattice.pair_exact_s",
    "lattice.special_s", "lattice.prime_demo_s",
    "densities.chi_first_s", "densities.chi_surface_s",
    "densities.sigma_direct_s",
)
COUNTERS = {"expsums.lru_hits": "count", "expsums.lru_misses": "count",
            "cache.files": "count", "cache.bytes": "bytes",
            "lattice.points_alive": "count"}
RATES = {  # name: (counter, spans whose self time is the denominator)
    "weights.evals_per_s": ("weights.evals", ("weights.evaluate_s",)),
    "lattice.alive_per_s": ("lattice.points_alive",
                            ("lattice.count_exact_s", "lattice.count_float_s")),
    "densities.sigma_per_s": ("densities.sigma_calls",
                              ("densities.sigma_direct_s",)),
}
# the raw seconds behind the end-to-end figures
ROUND_SECONDS = ("wall_s", "work_s", "ref_s")
PER_LAYER = {**{f"run.{m}": "s" for m in ROUND_SECONDS},
             **{m: "s" for m in SPAN_METRICS}, **COUNTERS,
             **{m: "1/s" for m in RATES},
             "trace.coverage": "ratio", "trace_overhead_frac": "ratio"}


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the worker's readings compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
    }


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CUBESUMS_CACHE_DIR"}
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(args, index: int, traced: bool, tmp: Path, deadline: float) -> dict:
    """One fresh worker process; returns its figures (ok=False on failure)."""
    cache_dir = tmp / f"cache-{index}"
    cache_dir.mkdir()
    spec = {"workload": args.workload, "seed": args.seed,
            "run_id": f"{args.workload}-{args.seed}-{index}",
            "cache_dir": str(cache_dir), "result": str(tmp / f"round-{index}.json"),
            "trace": traced, "corrupt": args.corrupt}
    spec_path = tmp / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec))
    record = {"index": index, "traced": traced, "ok": False,
              "loadavg_before": loadavg()}
    spawn = now()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                            cwd=ROOT, env=worker_env(), stdout=sys.stderr)
    try:
        proc.wait(timeout=max(deadline - now(), 1.0))
    except subprocess.TimeoutExpired:
        record["error"] = "round exceeded the run's time limit"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    record["round_s"] = now() - spawn
    record["loadavg_after"] = loadavg()
    shutil.rmtree(cache_dir, ignore_errors=True)
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        record.setdefault("error", f"worker exited with {proc.returncode}")
        return record
    res = json.loads(result_path.read_text())
    record.update(
        ok=True,
        wall_s=res["work_end"] - spawn,
        setup_s=res["setup_end"] - spawn,
        work_s=res["work_s"],
        ref_s=res["ref_s"],
        wall_ref=(res["work_end"] - spawn) / res["ref_s"],
        work_ref=res["work_s"] / res["ref_s"],
        peak_rss_mb=res["peak_rss_kb"] / 1024.0,
        attempted=res["attempted"],
        failed=res["failed"],
        errors=res["errors"],
        counters=res["counters"],
        spans=res["spans"],
    )
    return record


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum per span name of duration minus the time its children cover."""
    child_s: dict[str, float] = {}
    for s in spans:
        child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_s.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def layer_metrics(rnd: dict) -> dict[str, float]:
    self_s = self_times(rnd["spans"])
    out = {f"run.{m}": rnd[m] for m in ROUND_SECONDS}
    out.update({m: self_s.get(m, 0.0) for m in SPAN_METRICS})
    counters = rnd["counters"]
    out.update({m: float(counters[m]) for m in COUNTERS})
    for name, (counter, denominators) in RATES.items():
        busy = sum(self_s.get(m, 0.0) for m in denominators)
        out[name] = counters[counter] / busy if busy > 0 else 0.0
    work_id = f"{rnd['spans'][0]['run']}/work"
    calls_s = sum(s["end"] - s["start"] for s in rnd["spans"]
                  if s["parent"] == work_id)
    out["trace.coverage"] = (rnd["setup_s"] + calls_s) / rnd["wall_s"]
    return out


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def summarize(args, rounds: list[dict]) -> dict:
    ok = [r for r in rounds if r["ok"]]
    attempted = sum(r.get("attempted", 1) for r in rounds)
    failed = sum(r["failed"] if r["ok"] else 1 for r in rounds)
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if args.trace == 0 and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median_of(plain, lambda r: r[name]),
                             "unit": unit}
    elif args.trace == 1 and plain and traced:
        per_round = [layer_metrics(r) for r in traced]
        for name in PER_LAYER:
            if name == "trace_overhead_frac":
                value = (median_of(traced, lambda r: r["wall_ref"])
                         / median_of(plain, lambda r: r["wall_ref"]) - 1.0)
            else:
                value = statistics.median(m[name] for m in per_round)
            metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    correct = failed == 0 and len(ok) == len(rounds) and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run(args) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    # bytecode is written once here, never inside a timed round
    compileall.compile_dir(str(PACKAGE), quiet=1)
    machine = machine_record()
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    rounds: list[dict] = []
    start = now()
    deadline = start + HARD_LIMIT_S
    # the trace mode needs MIN_ROUNDS untraced and MIN_ROUNDS traced rounds
    need = MIN_ROUNDS * (2 if args.trace else 1)
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = run_round(args, len(rounds), traced, tmp, deadline)
            rounds.append(rnd)
            elapsed = now() - start
            if not rnd["ok"] or elapsed + rnd["round_s"] > HARD_LIMIT_S:
                break
            if len(rounds) >= need and elapsed + rnd["round_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = summarize(args, rounds)
    stem = f"{args.workload}-seed{args.seed}"
    spans = [s for r in rounds if r.get("traced") for s in r.get("spans", ())]
    if spans:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "corrupt": args.corrupt, "machine": machine,
              "rounds": [{k: v for k, v in r.items() if k != "spans"}
                         for r in rounds],
              "result": result}
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for r in rounds:
        for err in r.get("errors", ()):
            print(err, file=sys.stderr)
        if "error" in r:
            print(f"round {r['index']}: {r['error']}", file=sys.stderr)
    n = sum(1 for r in rounds if r["ok"] and r["traced"] == bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {n} rounds)",
              file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one result per round (self-check)")
    args = ap.parse_args(argv)
    # SIGTERM unwinds through run_round, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: the package source {PACKAGE} is missing",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
