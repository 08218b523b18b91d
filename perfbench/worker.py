"""One repetition of a library workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

JOB holds the workload name, the item list, whether to trace and where to
write spans, and an optional deliberate fault.  RESULT receives per-item
latencies and verdicts, the repetition's wall time, the moment the worker
became ready (``perf_counter_ns``, a system-wide monotonic clock on Linux,
which the parent also stamps the start with), the import time, peak RSS
and the result digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the host's speed is sampled again before an item once this much time has
# passed since the last sample (see calib.py)
REF_EVERY_NS = 100_000_000


def import_program():
    """Import qgroups from the checkout's src; returns the import time in s."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter_ns()
    import qgroups
    import qgroups.cli  # noqa: F401  (pulls in every layer)

    t1 = time.perf_counter_ns()
    if os.path.dirname(os.path.abspath(qgroups.__file__)) != os.path.join(SRC, "qgroups"):
        raise SystemExit(f"qgroups imported from {qgroups.__file__}, not from {SRC}")
    return (t1 - t0) / 1e9


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import_s = import_program()
    import calib
    import workloads

    store = None
    if job["spans"]:
        import tracer

        store = tracer.install(tracer.SpanStore())
    ctx = workloads.Context(job.get("corrupt"))
    t_ready = time.perf_counter_ns()
    if job.get("setup_only"):
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"ready_ns": t_ready, "import_s": import_s}, fh)
        return

    # samples[n] is the reference time taken before item marks[n]; the last
    # one is taken after the last item
    latencies, verdicts, outputs, errors = [], [], [], []
    samples, marks = [], []
    ref_ns = 0
    first = last = time.perf_counter_ns()
    for k, spec in enumerate(job["items"]):
        if store is not None:
            store.current_item = k
        if not samples or last - ref_at > REF_EVERY_NS:
            samples.append(calib.reference_s())
            marks.append(k)
            ref_at = time.perf_counter_ns()
            ref_ns += ref_at - last
        t0 = time.perf_counter_ns()
        try:
            ok, out = workloads.run_item(ctx, spec)
        except Exception as exc:  # an item that raises counts as failed
            ok, out = False, ("error", f"{type(exc).__name__}: {exc}")
        last = time.perf_counter_ns()
        if not ok and len(errors) < 5:
            why = out[1] if out[0] == "error" else "check failed"
            errors.append(f"item {k} {json.dumps(spec)}: {why}")
        latencies.append((last - t0) / 1e9)
        verdicts.append(bool(ok))
        outputs.append(out)
    samples.append(calib.reference_s())
    marks.append(len(latencies))
    # an item's reference time: the mean of the samples just before and
    # just after the stretch of items it belongs to
    refs = [(samples[n] + samples[n + 1]) / 2
            for n in range(len(marks) - 1) for _ in range(marks[n], marks[n + 1])]
    if store is not None:
        store.current_item = -1

    digest = hashlib.sha256()
    max_den = 0
    for out in outputs:
        text, den = workloads.digest_text(out)
        digest.update(text.encode("utf-8") + b"\n")
        max_den = max(max_den, den)
    if store is not None:
        store.dump(job["spans"])
    result = {
        "latencies_s": latencies,
        "refs_s": refs,
        "ok": verdicts,
        "wall_s": (last - first - ref_ns) / 1e9,
        "ready_ns": t_ready,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "errors": errors,
        "max_den_degree": max_den,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
