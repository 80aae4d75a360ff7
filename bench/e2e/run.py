#!/usr/bin/env python3
"""Build and run bench_e2e the way BENCHMARK.json declares it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --workload all --seed 1 --out results.json
    python3 bench/e2e/run.py --smoke [--build-dir DIR]

Run from the repository root. The first run configures and builds the
benchmark (library included) into .bench_build/e2e. Each workload runs in
a fresh bench_e2e process. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, and each trace file must also pass
bstc_trace_check.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["abcd-fine", "abcd-coarse", "synth-ranks2", "serve-mix"]
RANKS = {"synth-ranks2": 2}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; False when the sources are not there."""
    steps = []
    generated = [build_dir / f for f in ("Makefile", "build.ninja")]
    if not any(f.exists() for f in generated):
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "bench_e2e", "bstc_trace_check"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def run_bench(cmd):
    """Run one bench_e2e process in its own process group, so a timeout
    also stops the rank processes it forked. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("run.py: timed out: " + " ".join(cmd))
        return 1, out
    return proc.returncode, out


def run_workload(build_dir, workload, seed, seconds, trace, smoke=False):
    """One workload in a fresh process; returns its results JSON plus the
    verdict of its correctness gates (and of the trace check), or None."""
    run_dir = build_dir / "runs" / (
        f"{workload}-seed{seed}-{'traced' if trace else 'untraced'}")
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "results.json"
    trace_file = run_dir / f"{workload}.trace.json"
    for stale in (out, trace_file):
        if stale.exists():
            stale.unlink()
    cmd = [str(build_dir / "bench_e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(run_dir)]
    if smoke:
        cmd += ["--smoke"]
    code, stdout = run_bench(cmd)
    sys.stdout.write(stdout)
    if not out.exists():
        log(f"run.py: {workload} produced no results (exit {code})")
        return None
    res = json.loads(out.read_text())
    res["correct"] = code == 0
    if trace:
        check = subprocess.run(
            [str(build_dir / "bstc_trace_check"), str(trace_file),
             "--ranks", str(RANKS.get(workload, 1))],
            stdout=sys.stderr, stderr=sys.stderr)
        res["trace_check_ok"] = check.returncode == 0
        res["correct"] = res["correct"] and res["trace_check_ok"]
    return res


def declared(manifest, trace):
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def contract_line(res, names):
    """The driver's result object; a declared metric that is missing or
    has another unit makes the run incorrect."""
    metrics = {}
    correct = res["correct"]
    for name, unit in names.items():
        m = res["metrics"].get(name)
        if m is None or m["unit"] != unit:
            log(f"run.py: {res['workload']}: metric {name} [{unit}] missing")
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def dump(results):
    """Indented JSON with every list of numbers kept on one line."""
    return re.sub(r"\[[^\[\]{}\"]*\]",
                  lambda m: json.dumps(json.loads(m.group(0))),
                  json.dumps(results, indent=1))


def smoke(build_dir, manifest):
    """Every workload at toy size, untraced and traced: every declared
    metric printed with its unit, every gate and trace check passing."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_workload(build_dir, workload, 1, 0.3, trace, smoke=True)
            line = (contract_line(res, declared(manifest, trace))
                    if res else {"correct": False})
            mode = "traced" if trace else "untraced"
            log(f"smoke {workload} {mode}: "
                f"{'ok' if line['correct'] else 'FAILED'}")
            ok = ok and line["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write every workload's raw results")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / ".bench_build" / "e2e")
    args = ap.parse_args()
    if not build(args.build_dir):
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return 0 if smoke(args.build_dir, manifest) else 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        log(f"run.py: unknown workload {args.workload}")
        return 2
    names = declared(manifest, args.trace)
    results, lines = {}, {}
    for w in workloads:
        res = run_workload(args.build_dir, w, args.seed, args.seconds,
                           args.trace)
        if res is None:
            return 1
        results[w] = res
        lines[w] = contract_line(res, names)
    if args.out:
        Path(args.out).write_text(dump(results) + "\n")
    if len(workloads) == 1:
        line = lines[workloads[0]]
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{w}.{k}": v for w, l in lines.items()
                            for k, v in l["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
