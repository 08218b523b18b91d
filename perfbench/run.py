"""qgroups benchmark: four seeded workloads, checked exactly.

Usage (from the repository root):

    python3 perfbench/run.py --workload modules|hopf|sections|cli|all \
        --seed N --seconds S --trace 0|1

A run repeats its workload in fresh interpreters, one process at a time,
until the next repetition would end after ``--seconds``.  Every repetition
runs the same seeded item list; every item is checked exactly, and the
results go into a digest that must come out the same in every repetition.

Timings are scaled to a reference host speed, measured next to every
sample with the fixed task in calib.py, so that a shared host's slow
phases drop out.  With ``--trace 0`` the last line of standard output is
a JSON object whose metrics are the end-to-end ones.  With ``--trace 1``
repetitions alternate untraced and traced, and the metrics are the
per-layer ones, tracing overhead included.  The lines before it are a report for people: every
metric with its unit and sample count, medians and tails, and the digest.
The exit code is 0 when every item passed and 1 otherwise; it is 2, with
no result printed, when the checkout holds no qgroups sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import calib
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
PYTHON = sys.executable or "python3"
CPUS = sorted(os.sched_getaffinity(0))

WORKLOADS = ("modules", "hopf", "sections", "cli")
# no repetition starts this long after the run began, whatever --seconds
# says, and no child outlives HARD_DEADLINE_S: a run ends within 3 minutes
START_LIMIT_S = 120.0
HARD_DEADLINE_S = 170.0

# workers that only set up, started before each repetition of a library
# workload, so that setup_s has several samples per repetition
SETUP_PROBES = 2
# Set-up (process start, imports) follows the host's speed only in part:
# across processes, log set-up time against log reference time has a slope
# of 0.4-0.55 on the baseline host.  Scaling set-up fully would over-correct
# processes started on a slow CPU, so it is scaled by this power of the
# reference ratio.
SETUP_ELASTICITY = 0.5

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
COUNT_LAYERS = [
    "scalar.rf_ops", "scalar.poly_gcd", "linalg.matmul", "linalg.elim",
    "cartan.oracle", "uqrep.build_module", "uqrep.check_serre",
    "tensor.decompose", "coeff.word_matrix", "coeff.product", "coeff.antipode",
    "coeff.eval", "coeff.dual_data", "parabolic.hom_space",
    "parabolic.restrict_levi", "bundle.sections_direct", "cache.load", "cache.store",
]
SELF_LAYERS = [
    "scalar.rf_ops", "scalar.poly_gcd", "linalg.matmul", "linalg.elim",
    "cartan.oracle", "uqrep.build_module", "uqrep.check_serre",
    "tensor.decompose", "tensor.hwv", "coeff.word_matrix", "coeff.product",
    "coeff.antipode", "coeff.eval", "parabolic.hom_space",
    "parabolic.restrict_levi", "bundle.sections_direct", "bundle.trivialization",
    "bundle.checks", "cache.load", "cache.store", "cache.serialize",
]
OTHER_PER_LAYER = [
    ("scalar.max_den_degree", "degree"), ("linalg.elim.max_cells", "count"),
    ("uqrep.irrep_cache.hit_ratio", "ratio"), ("uqrep.max_module_dim", "count"),
    ("coeff.cg.hit_ratio", "ratio"), ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"), ("process.import_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
]
PER_LAYER = ([(f"{layer}.calls", "count") for layer in COUNT_LAYERS]
             + [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
             + OTHER_PER_LAYER)


# --- statistics ---------------------------------------------------------------


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples above it.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is returned as the 100th percentile instead.
    """
    xs = sorted(values)
    if len(xs) <= 20:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def scaled_wall(rep):
    """A repetition's time at the reference speed: each item's latency
    scaled by the reference task's nominal over its measured time next to
    that item (see calib.py), summed over the items."""
    return sum(lat * calib.NOMINAL_S / ref for lat, ref in zip(rep["latencies_s"], rep["refs_s"]))


def scaled_setups(reps):
    """Set-up times of every process the run started, scaled to the
    reference speed with the exponent SETUP_ELASTICITY."""
    return [s * (calib.NOMINAL_S / ref) ** SETUP_ELASTICITY
            for r in reps for s, ref in zip(r["setups_s"], r["setup_refs_s"])]


# --- processes ----------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for key in ("PYTHONPATH", "QGROUPS_CACHE_DIR", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


class Spawned(NamedTuple):
    code: int  # exit code, -9 when killed at the deadline
    start_ns: int  # perf_counter_ns just before the child was started
    wall_s: float  # from start to exit
    rss_mb: float  # the child's peak RSS
    ref_s: float  # the reference task's time on the child's CPU, just before


def spawn(argv, stdout_path, deadline, slot):
    """Run one child to completion, alone, and return a ``Spawned``.

    The child runs on the allowed CPU number ``slot`` (cyclically).  On a
    shared host one CPU can stay slow for longer than a run; moving
    successive samples of an item across CPUs keeps one CPU's state from
    deciding the run.  Right before the start, this process
    times the reference task on that CPU (see calib.py), then starts the
    child from there, so the child inherits the pinning.  The parent waits
    with wait4, which also gives the child's own peak RSS.  A child still
    running at ``deadline`` (perf_counter seconds) is killed and reported
    with exit code -9.
    """
    pinned = _pin({CPUS[slot % len(CPUS)]})
    try:
        ref = calib.reference_s()
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    finally:
        if pinned:
            _pin(CPUS)
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = (time.perf_counter_ns() - t0) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Spawned(proc.returncode, t0, wall, usage.ru_maxrss / 1024, ref)


def _pin(cpus):
    """Pin this process to ``cpus``; False where pinning is not allowed."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def read_json(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


# --- library workloads ----------------------------------------------------------


def lib_rep(workload, items, rep_dir, slot, traced, corrupt, deadline):
    """One repetition of modules, hopf or sections in a fresh worker,
    after SETUP_PROBES workers that only set up, for more set-up samples."""
    os.makedirs(rep_dir)
    setups, setup_refs = [], []
    for n in range(SETUP_PROBES):
        res = _worker({"workload": workload, "items": [], "setup_only": True, "spans": None},
                      os.path.join(rep_dir, f"probe{n}"), deadline, slot + 1 + n)
        if res is None:
            return {"failed_run": True, "code": "setup", "n_items": len(items),
                    "stderr": _stderr_tail(os.path.join(rep_dir, f"probe{n}.out.err"))}
        setups.append(res["setup_s"])
        setup_refs.append(res["setup_ref_s"])
    spans = os.path.join(rep_dir, "spans") if traced else None
    res = _worker({"workload": workload, "items": items, "corrupt": corrupt, "spans": spans},
                  os.path.join(rep_dir, "main"), deadline, slot)
    if res is None:
        return {"failed_run": True, "code": "worker", "n_items": len(items),
                "stderr": _stderr_tail(os.path.join(rep_dir, "main.out.err"))}
    res["setups_s"] = [res["setup_s"]] + setups
    res["setup_refs_s"] = [res["setup_ref_s"]] + setup_refs
    res["imports_s"] = [res["import_s"]]
    if traced:
        res["layers"] = [spans]
    return res


def _worker(job, prefix, deadline, slot):
    """Run worker.py on ``job``; its result, or None if it failed."""
    job_path, result_path = prefix + ".job.json", prefix + ".result.json"
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    run = spawn([PYTHON, os.path.join(HERE, "worker.py"), job_path, result_path],
                prefix + ".out", deadline, slot)
    res = read_json(result_path) if run.code == 0 else None
    if res is not None:
        res["setup_s"] = (res["ready_ns"] - run.start_ns) / 1e9
        res["setup_ref_s"] = run.ref_s
        res["rss_mb"] = [run.rss_mb]
    return res


def _stderr_tail(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")
    except OSError:
        return ""


# --- the cli workload -------------------------------------------------------------

def cli_rep(commands, rep_dir, slot, traced, corrupt, deadline):
    """Cold irrep list on an empty cache, the same list warm, then uncached
    commands; each invocation a fresh process, one at a time."""
    cold, uncached = commands
    os.makedirs(rep_dir)
    cache_dir = os.path.join(rep_dir, "cache")
    plan = ([(k, a + ["--cache-dir", cache_dir], e) for k, a, e in cold]
            + [("warm", a + ["--cache-dir", cache_dir], e) for _, a, e in cold]
            + uncached)
    rep = {"latencies_s": [], "ok": [], "kinds": [], "setups_s": [], "rss_mb": [],
           "imports_s": [], "layers": [], "refs_s": [], "setup_refs_s": []}
    digest = hashlib.sha256()
    outputs = []
    max_den = 0
    for n, (kind, argv, expect) in enumerate(plan):
        if kind == "warm" and n == len(cold) and corrupt == "cli":
            workloads.corrupt_cache(cache_dir)
        stamp = os.path.join(rep_dir, f"stamp{n}.json")
        spans = [os.path.join(rep_dir, f"spans{n}")] if traced else []
        stdout_path = os.path.join(rep_dir, f"out{n}")
        run = spawn([PYTHON, os.path.join(HERE, "cli_shim.py"), stamp, *spans, "--", *argv],
                    stdout_path, deadline, slot + n)
        with open(stdout_path, "rb") as fh:
            out = fh.read()
        outputs.append(out)
        cold_out = outputs[n - len(cold)] if kind == "warm" else None
        ok = workloads.check_cli(kind, run.code, out, expect, cold_out)
        digest.update(hashlib.sha256(out).digest())
        max_den = max(max_den, workloads.cli_den_degree(out))
        st = read_json(stamp, {})
        rep["latencies_s"].append(run.wall_s)
        rep["ok"].append(ok)
        rep["kinds"].append(kind)
        rep["rss_mb"].append(run.rss_mb)
        rep["refs_s"].append(run.ref_s)
        if "ready_ns" in st:
            rep["setups_s"].append((st["ready_ns"] - run.start_ns) / 1e9)
            rep["setup_refs_s"].append(run.ref_s)
            rep["imports_s"].append(st["import_s"])
        if traced and os.path.exists(spans[0] + ".json"):
            rep["layers"].append(spans[0])
    # the commands' own times, without the reference samples between them
    rep["wall_s"] = sum(rep["latencies_s"])
    rep["digest"] = digest.hexdigest()
    rep["max_den_degree"] = max_den
    return rep


# --- a run ----------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, corrupt=None):
    """All repetitions of one workload; returns the summary dict."""
    deadline = time.perf_counter() + HARD_DEADLINE_S
    run_dir = os.path.join(RUNS, f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(run_dir)
    items = workloads.make_items(workload, seed)
    if workload == "cli":
        commands = workloads.cli_commands(items)
        n_items = len(commands[0]) * 2 + len(commands[1])
        rep_fn = lambda d, slot, traced: cli_rep(  # noqa: E731
            commands, d, slot, traced, corrupt, deadline)
    else:
        n_items = len(items)
        rep_fn = lambda d, slot, traced: lib_rep(  # noqa: E731
            workload, items, d, slot, traced, corrupt, deadline)

    # measuring starts here: item lists and oracles are ready
    t_start = time.perf_counter()
    reps = []
    durations = {False: [], True: []}
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        slot = len(durations[traced])
        t0 = time.perf_counter()
        rep = rep_fn(os.path.join(run_dir, f"rep{len(reps)}"), slot, traced)
        durations[traced].append(time.perf_counter() - t0)
        rep["traced"] = traced
        reps.append(rep)
        if rep.get("failed_run"):
            break
        elapsed = time.perf_counter() - t_start
        if trace and len(reps) < 2:
            continue
        nxt = bool(trace) and len(reps) % 2 == 1
        expect = statistics.median(durations[nxt] or durations[not nxt])
        if elapsed + expect > seconds or elapsed > START_LIMIT_S:
            break
    with open(os.path.join(run_dir, "reps.json"), "w", encoding="utf-8") as fh:
        json.dump([{k: r.get(k) for k in ("latencies_s", "refs_s", "setups_s", "setup_refs_s",
                                          "wall_s", "traced")} for r in reps], fh)
    return summarize(workload, seed, trace, reps, n_items)


def summarize(workload, seed, trace, reps, n_items):
    good = [r for r in reps if not r.get("failed_run")]
    attempted = sum(len(r["ok"]) if not r.get("failed_run") else r["n_items"] for r in reps)
    failed = sum(r["ok"].count(False) if not r.get("failed_run") else r["n_items"]
                 for r in reps)
    digests = sorted({r["digest"] for r in good})
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    problems = [r.get("stderr", "") for r in reps if r.get("failed_run")]
    problems += sorted({e for r in good for e in r.get("errors", [])})
    if len(digests) > 1:
        problems.append("repetitions disagree on the result digest")
    correct = failed == 0 and not problems and bool(plain) and (not trace or bool(traced))
    summary = {"workload": workload, "seed": seed, "trace": trace, "reps": len(reps),
               "attempted": attempted, "failed": failed, "correct": correct,
               "digests": digests, "problems": problems, "n_items": n_items}
    if plain:
        summary["e2e"] = end_to_end(plain, workload)
    if traced:
        summary["layers"] = per_layer(plain, traced)
    return summary


def end_to_end(reps, workload):
    """wall_s is the median over the repetitions of their time at the
    reference speed (scaled_wall), setup_s the median over every process
    the run started of its scaled set-up time (scaled_setups), and
    peak_rss_mb the median over the processes that ran items."""
    walls = [r["wall_s"] for r in reps]
    scaled = [scaled_wall(r) for r in reps]
    setups = [s for r in reps for s in r["setups_s"]]
    scaled_setup = scaled_setups(reps)
    rss = [x for r in reps for x in r["rss_mb"]]
    item_ms = [1e3 * statistics.median(lat * calib.NOMINAL_S / ref for lat, ref in samples)
               for samples in zip(*(zip(r["latencies_s"], r["refs_s"]) for r in reps))]
    out = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(scaled_setup),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "wall_s": (min(scaled), *tail(scaled), len(scaled)),
        "rep_wall_s": (min(walls), statistics.median(walls), *tail(walls), len(walls)),
        "setup_s": (statistics.median(setups), *tail(setups), len(setups)),
        "peak_rss_mb": (statistics.median(rss), *tail(rss), len(rss)),
        "item_ms": (statistics.median(item_ms), *tail(item_ms), len(item_ms)),
    }
    if workload == "cli":
        kinds = reps[0]["kinds"]
        for kind in ("cold", "warm"):
            lat = [x for r in reps for x, k in zip(r["latencies_s"], kinds) if k == kind]
            detail[f"{kind}_cmd_ms"] = (1e3 * statistics.median(lat), *_ms(tail(lat)), len(lat))
    return {"metrics": out, "detail": detail}


def _ms(value_pct):
    return 1e3 * value_pct[0], value_pct[1]


def per_layer(plain, traced):
    per_rep = []
    absent = set()
    for rep in traced:
        calls, self_s, probes = {}, {}, {}
        misses = {"irrep": 0, "cg": 0}
        spans = 0
        for path in rep["layers"]:
            t = tracer.layer_totals(path)
            for k, v in t["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in t["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in t["probes"].items():
                probes[k] = max(probes.get(k, 0), v) if "max" in k else probes.get(k, 0) + v
            misses["irrep"] += t["irrep_cache_misses"]
            misses["cg"] += t["cg_misses"]
            absent.update(t["absent"])
            spans += t["spans"]
        values = {f"{layer}.calls": calls.get(layer, 0) for layer in COUNT_LAYERS}
        values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_LAYERS})
        values["scalar.max_den_degree"] = rep["max_den_degree"]
        values["linalg.elim.max_cells"] = probes.get("elim_max_cells", 0)
        values["uqrep.irrep_cache.hit_ratio"] = _hit_ratio(
            misses["irrep"], calls.get("uqrep.irrep_cache", 0))
        values["uqrep.max_module_dim"] = probes.get("max_module_dim", 0)
        values["coeff.cg.hit_ratio"] = _hit_ratio(misses["cg"], calls.get("coeff.cg", 0))
        loads = calls.get("cache.load", 0)
        values["cache.hit_ratio"] = probes.get("cache_load_hits", 0) / loads if loads else 0.0
        values["cache.bytes_written"] = probes.get("cache_bytes_written", 0)
        values["process.import_s"] = statistics.median(rep["imports_s"])
        values["spans"] = spans
        per_rep.append(values)
    metrics = {name: statistics.median(v[name] for v in per_rep) for name, _ in PER_LAYER
               if name in per_rep[0]}
    plain_wall = statistics.median(scaled_wall(r) for r in plain)
    metrics["trace.wall_s"] = statistics.median(scaled_wall(r) for r in traced)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / plain_wall
    return {"metrics": metrics, "absent": sorted(absent),
            "spans": statistics.median(v["spans"] for v in per_rep),
            "untraced_wall_s": plain_wall}


def _hit_ratio(misses, lookups):
    return 1.0 - misses / lookups if lookups else 0.0


# --- output -------------------------------------------------------------------------


def report(s):
    w = s["workload"]
    fail_frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"== {w} seed={s['seed']} trace={s['trace']}: {s['reps']} repetitions of "
          f"{s['n_items']} items; attempted {s['attempted']}, failed {s['failed']}, "
          f"fail_frac {fail_frac:.4f}")
    if "e2e" in s:
        d = s["e2e"]["detail"]
        m = s["e2e"]["metrics"]
        sw, rw, st = d["wall_s"], d["rep_wall_s"], d["setup_s"]
        print(f"  wall_s       {m['wall_s']:.4f} s   median repetition time at the reference "
              f"speed (fastest {sw[0]:.4f}, p{sw[2]:.0f} {sw[1]:.4f}, n={sw[3]}; as measured: "
              f"fastest {rw[0]:.4f}, median {rw[1]:.4f}, p{rw[3]:.0f} {rw[2]:.4f})")
        print(f"  setup_s      {m['setup_s']:.4f} s   median over processes, scaled (as measured: "
              f"median {st[0]:.4f}, p{st[2]:.0f} {st[1]:.4f}, n={st[3]})")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB  median over processes "
              f"(p{d['peak_rss_mb'][2]:.0f} {d['peak_rss_mb'][1]:.1f}, n={d['peak_rss_mb'][3]})")
        med, tl, pct, n = d["item_ms"]
        print(f"  item_ms      median {med:.3f} ms, p{pct:.0f} {tl:.3f} ms over each item's "
              f"median time at the reference speed, n={n} items")
        print(f"  fail_frac    {fail_frac:.4f}")
        for kind in ("cold", "warm"):
            key = f"{kind}_cmd_ms"
            if key in d:
                med, tl, pct, n = d[key]
                print(f"  {kind}_cmd_p50_ms {med:.2f} ms  {kind}_cmd_tail_ms {tl:.2f} ms "
                      f"(p{pct:.0f}, n={n})")
    if "layers" in s:
        lay = s["layers"]
        for name, unit in PER_LAYER:
            print(f"  {name:34s} {lay['metrics'][name]:.6g} {unit}")
        print(f"  spans per traced repetition: {lay['spans']:.0f}; absent targets: "
              f"{', '.join(lay['absent']) or 'none'}")
        print(f"  tracing overhead: traced wall {lay['metrics']['trace.wall_s']:.4f} s against "
              f"untraced {lay['untraced_wall_s']:.4f} s")
    for problem in s["problems"]:
        print(f"  problem: {problem.strip()[-500:]}")
    print(f"  digest {w} seed={s['seed']}: {' '.join(s['digests']) or 'none'}")


def result_line(summaries, prefix_names):
    metrics = {}
    for s in summaries:
        pre = f"{s['workload']}." if prefix_names else ""
        if s["trace"]:
            source, names = s.get("layers", {}).get("metrics", {}), PER_LAYER
        else:
            source, names = s.get("e2e", {}).get("metrics", {}), END_TO_END
        for name, unit in names:
            if name in source:
                metrics[pre + name] = {"value": source[name], "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=WORKLOADS,
                        help="inject one deliberate fault (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgroups", "__init__.py")):
        print(f"error: no qgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # only the latest run's files (spans, caches, outputs) are kept
    shutil.rmtree(RUNS, ignore_errors=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        s = run_workload(name, args.seed, args.seconds, args.trace, args.corrupt)
        report(s)
        summaries.append(s)
    print(json.dumps(result_line(summaries, args.workload == "all")))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
