"""One set-up of the benchmark, and the measuring loop.

``run.py`` starts this script in a fresh interpreter several times.  Each
start imports ``geomstir`` from the checkout's ``src`` directory, generates
the seeded inputs and prints ``ready``; that span is one set-up sample.  It
then reads one command from stdin: ``exit``, or a JSON request to measure.

When measuring, every segment of an operation runs in a process forked from
this one.  This process has imported the package but never called it, so
each fork starts with the empty caches of a new ``geomstir`` process and
skips only the import.  Operations run one at a time (a closed loop with one
client).  Each fork sends its timings, output digest and peak memory back
through a pipe and exits; this process waits for it before the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import tracing
import workloads

CHILD_TIMEOUT = 120  # seconds


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import geomstir  # noqa: F401  (the import is what a set-up pays for)
    import geomstir.cli

    where = os.path.realpath(geomstir.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"geomstir was imported from {where}, not from {src}")


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _segment_child(segment, traced, save_dir, spans_path, index) -> dict:
    """Run one segment in this (forked) process and describe the outcome."""
    recorder = None
    if traced:
        recorder = tracing.Recorder()
        recorder.install()
        before = recorder.cache_counts()
    seconds, texts, rcs, out_bytes = 0.0, [], [], 0
    for call in segment:
        rc, result, dt = workloads.run_call(call)
        seconds += dt
        rcs.append(rc)
        if call[0] == "cli":
            out_bytes += len(result.encode())
        texts.append(workloads.render(call, result))
    msg = {
        "seconds": seconds,
        "rcs": rcs,
        "rss_kib": _peak_rss_kib(),
        "digest": hashlib.sha256("\x00".join(texts).encode()).hexdigest(),
    }
    if recorder is not None:
        after = recorder.cache_counts()
        msg["trace"] = {
            **recorder.summary(),
            "cache": {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]]
                      for k in after},
            "out_bytes": out_bytes,
        }
        if spans_path:
            recorder.write(spans_path, index, append=index > 0)
    if save_dir:
        for j, text in enumerate(texts):
            with open(os.path.join(save_dir, f"out-{index}-{j}.txt"), "w") as fh:
                fh.write(text)
    return msg


def _in_child(fn, *args) -> dict:
    """Run fn(*args) in a forked process; return the dict it produced."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the caller's code
        status = 0
        try:
            signal.alarm(CHILD_TIMEOUT)  # a hung call ends as a failed operation
            os.close(r)
            try:
                msg = fn(*args)
            except BaseException:
                msg, status = {"error": traceback.format_exc()}, 1
            with os.fdopen(w, "w") as fh:
                json.dump(msg, fh)
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as fh:  # drain before waiting
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        msg = json.loads(data)
    except ValueError:
        msg = {"error": f"child sent no result (wait status {status})"}
    if status != 0 and "error" not in msg:
        msg["error"] = f"child exited with wait status {status}"
    return msg


def measure(inputs, request, workdir) -> dict:
    """Run operations for request["seconds"], then check the first one's
    outputs.  With request["trace"], every second operation is traced."""
    seconds, trace = request["seconds"], request["trace"]
    segments = workloads.operation(inputs)
    ops = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traced_done = any(op["traced"] for op in ops)
        if ops and (traced_done or not trace):
            typical = statistics.median(op["elapsed"] for op in ops)
            if elapsed + typical > seconds:
                break
        traced = bool(trace) and len(ops) % 2 == 1
        spans_path = request["spans_path"] if traced and not traced_done else None
        t0 = time.perf_counter()
        parts = [
            _in_child(_segment_child, seg, traced, None if ops else workdir,
                      spans_path, i)
            for i, seg in enumerate(segments)
        ]
        ops.append({
            "traced": traced,
            "elapsed": time.perf_counter() - t0,
            "parts": parts,
        })
    problems = []
    if not any("error" in part for part in ops[0]["parts"]):
        def _check():
            texts = []
            for i, seg in enumerate(segments):
                for j in range(len(seg)):
                    with open(os.path.join(workdir, f"out-{i}-{j}.txt")) as fh:
                        texts.append(fh.read())
            return {"problems": workloads.check(inputs, texts)}

        outcome = _in_child(_check)
        problems = [outcome["error"]] if "error" in outcome else outcome["problems"]
    return {"ops": ops, "problems": problems, "measured_s": time.perf_counter() - start}


def main() -> int:
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    root, workload = args["--root"], args["--workload"]
    seed, tiny = int(args["--seed"]), args["--tiny"] == "1"
    workdir = args["--workdir"]
    _import_program(root)
    os.makedirs(workdir, exist_ok=True)
    inputs = workloads.write_input_files(
        workloads.make_inputs(workload, seed, tiny), workdir)
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line in ("", "exit"):
        return 0
    request = json.loads(line)
    result = measure(inputs, request, workdir)
    result["inputs"] = {k: v for k, v in inputs.items() if k != "grid"}
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
