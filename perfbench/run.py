#!/usr/bin/env python3
"""geomstir benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-wide --seed 1 --seconds 56 --trace 0

Run it from the root of a checkout; the program is imported from ``src``.
It sets up the program several times in fresh interpreters (``setup_s``),
then measures operations for ``--seconds`` seconds in a closed loop with one
client, each operation from cold caches.  It checks the outputs, prints a
table of metrics with units, writes a result file with the run's metadata
under ``.bench_build/perfbench/``, and prints one JSON line last.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics instead.
See ``perfbench/README.md`` for the workloads, metrics and how to re-run a
claim on a second seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUPS = 3  # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT = 60  # seconds for one interpreter to import and generate
OUT_DIR = os.path.join(".bench_build", "perfbench")
# end-to-end metrics in the JSON line; wall_s_tail and fail_ratio are printed
# in the table only (see README.md)
GATED = ("wall_s", "setup_s", "peak_rss_mb")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it.  With ten or fewer samples no percentile has ten beyond it,
    and the maximum is reported as percentile 100."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def worker_env() -> dict:
    env = dict(os.environ)
    # the default serial path is measured; numeric libraries start no threads
    env.pop("GEOMSTIR_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def start_worker(args, root: str, workdir: str) -> tuple[subprocess.Popen, float]:
    """Start one fresh interpreter; return it once it is set up, with the
    seconds that took."""
    cmd = [sys.executable, "-u", os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, "--tiny", "1" if args.tiny else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=worker_env(), cwd=root)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError("the program could not be set up (see the error above)")
    return proc, seconds


def stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def op_summary(op: dict) -> dict:
    parts = op["parts"]
    errors = [p["error"] for p in parts if "error" in p]
    return {
        "traced": op["traced"],
        "seconds": sum(p.get("seconds", 0.0) for p in parts),
        "rss_kib": max(p.get("rss_kib", 0) for p in parts),
        "digest": [p.get("digest") for p in parts],
        "error": errors[0] if errors else None,
        "rcs": [rc for p in parts for rc in p.get("rcs", [])],
    }


def layer_metrics(traced_ops: list[dict], overhead: float) -> tuple[dict, list]:
    """Per-layer metric values (median over traced operations), and the
    closure error of each operation: |sum of self times - root span time|."""
    per_op, closure = [], []
    for op in traced_ops:
        calls, self_s, hits = {}, {}, {}
        roots = spans_self = 0.0
        points = params = out_bytes = 0
        for part in op["parts"]:
            t = part["trace"]
            for k, v in t["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in t["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, (h, m) in t["cache"].items():
                ph, pm = hits.get(k, (0, 0))
                hits[k] = (ph + h, pm + m)
            roots += t["roots_s"]
            spans_self += sum(t["self_s"].values())
            points += t["points"]
            params += t["stirling_params"]
            out_bytes += t["out_bytes"]
        wall = sum(p["seconds"] for p in op["parts"])
        closure.append({"wall_s": wall, "roots_s": roots, "self_sum_s": spans_self,
                        "unwrapped_s": wall - roots,
                        "error_s": abs(spans_self - roots)})
        values = {}
        for name, _, _ in tracing.metric_names():
            probe, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = calls[probe]
            elif field == "self_s" and probe in self_s:
                values[name] = self_s[probe]
            elif field == "self_s":  # a layer total
                values[name] = sum(v for k, v in self_s.items()
                                   if k.startswith(probe + "."))
            elif field == "hit_ratio":
                h, m = hits[probe]
                values[name] = h / (h + m) if h + m else 0.0
        values["stirling.distinct_params"] = params
        values["harness.points"] = points
        values["cli.out_bytes"] = out_bytes
        values["trace.overhead_s"] = overhead
        per_op.append(values)
    metrics = {}
    for name, unit, _ in tracing.metric_names():
        value = statistics.median(v[name] for v in per_op)
        metrics[name] = int(value) if unit == "count" and value == int(value) else value
    return metrics, closure


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="geomstir benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke check")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geomstir", "__init__.py")):
        print("error: run from the root of a geomstir checkout (no src/geomstir)",
              file=sys.stderr)
        return 1
    load_at_start = os.getloadavg()
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")

    setup = []
    proc = None
    try:
        for i in range(SETUPS):
            proc, seconds = start_worker(args, root, workdir)
            setup.append(seconds)
            if i < SETUPS - 1:
                proc.communicate("exit\n", timeout=SETUP_TIMEOUT)
                proc = None
        request = {"seconds": args.seconds, "trace": args.trace,
                   "spans_path": spans_path if args.trace else None}
        out, _ = proc.communicate(json.dumps(request) + "\n")
        if proc.returncode != 0:
            raise RuntimeError(f"the measuring process exited with {proc.returncode}")
        run = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op_summary(op) for op in run["ops"]]
    reference = ops[0]["digest"]
    problems = list(run["problems"])
    failed = 0
    for i, op in enumerate(ops):
        own = []
        if op["error"]:
            own.append(f"operation {i}: {op['error'].strip().splitlines()[-1]}")
        elif any(rc != 0 for rc in op["rcs"]):
            own.append(f"operation {i} exited with codes {op['rcs']}")
        if op["digest"] != reference:
            own.append(f"operation {i} output differs from operation 0")
        problems += own
        # wrong outputs make every operation that reproduced them fail
        failed += bool(own or run["problems"])
    attempted = len(ops)

    untraced = [op["seconds"] for op in ops if not op["traced"]]
    traced = [op["seconds"] for op in ops if op["traced"]]
    wall = statistics.median(untraced)
    tail_value, tail_pct = tail(untraced)
    setup_s = statistics.median(setup)
    peak_mib = max(op["rss_kib"] for op in ops if not op["traced"]) / 1024

    e2e = {
        "wall_s": (wall, "s", f"median of {len(untraced)} operations"),
        "wall_s_tail": (tail_value, "s",
                        f"p{tail_pct:.0f} of {len(untraced)} operations"
                        + (" (10 or fewer samples: the maximum)"
                           if len(untraced) <= 10 else "")),
        "setup_s": (setup_s, "s", f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (peak_mib, "MiB", "peak resident set of the operation processes"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed} of {attempted} operations failed"),
    }
    layer = closure = None
    if args.trace:
        overhead = statistics.median(traced) - wall
        layer, closure = layer_metrics([op for op in run["ops"] if op["traced"]],
                                       overhead)

    print(f"geomstir benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"input: {run['inputs']['size']}")
    print("closed loop, 1 client; each segment of an operation in a fresh "
          "process with cold caches")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<14} {value:12.6f} {unit:<6} {note}")
    if layer is not None:
        print(f"traced operations: {len(traced)}, untraced: {len(untraced)}")
        for name, unit, _ in tracing.metric_names():
            v = layer[name]
            print(f"  {name:<36} {v:14d} {unit}" if isinstance(v, int)
                  else f"  {name:<36} {v:14.6f} {unit}")
        for c in closure:
            print(f"  closure: wall {c['wall_s']:.6f} s = layer self times "
                  f"{c['self_sum_s']:.6f} s + unwrapped {c['unwrapped_s']:.6f} s "
                  f"(error {c['error_s']:.2e} s)")
        print("  layer -> end-to-end metric it should move:")
        for name, text in tracing.MOVES.items():
            print(f"    {name:<12} {text}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")

    correct = not problems and failed == 0
    if layer is not None:
        bad_closure = [c for c in closure if c["error_s"] > 1e-6 * max(c["wall_s"], 1.0)]
        if bad_closure:
            print("  CHECK FAILED: layer self times do not add up to the traced time")
            correct = False
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.metric_names()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in GATED}

    result_path = os.path.join(
        out_dir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "input_size": run["inputs"]["size"],
            "inputs": run["inputs"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(root),
            "loadavg_at_start": load_at_start,
            "correct": correct,
            "problems": problems,
            "end_to_end": {k: {"value": v, "unit": u, "note": n}
                           for k, (v, u, n) in e2e.items()},
            "per_layer": layer,
            "closure": closure,
            "setup_samples_s": setup,
            "operations": [{k: op[k] for k in ("traced", "seconds", "rss_kib", "error")}
                           for op in ops],
            "measured_s": run["measured_s"],
        }, fh, indent=1)
    print(f"result file: {os.path.relpath(result_path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
