#!/usr/bin/env python3
"""Build and run the task-superscalar benchmark (see README.md).

  tss_bench.py measure --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints, as its last line, one JSON object
      with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
      metrics of BENCHMARK.json with --trace 0, the per-layer ones (and a
      span file) with --trace 1. Exits non-zero when a check failed.

  tss_bench.py run [--runs N | --seeds 1,2,...] [--traced] [--smoke]
                   [--seconds S] [--workloads a,b] [--out FILE]
      Every workload in its own process, rotating the workload order from
      run to run. Records the machine fingerprint and prints each metric's
      median and quartiles with the sample count. Fails if any run failed
      a check or if wide-par's exact metrics differ from wide-seq's.

  tss_bench.py compare BASE.json[,BASE2.json...] CHANGE.json[,...]
      Applies each end-to-end metric's bound from BENCHMARK.json to the
      runs of two sides, each one or more `run --out` files, and exits
      non-zero on a regression.

The tss_bench binary is built with CMake from tssbench/ into .bench_build/.
"""

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.5
# An open loop whose generator ran later than this (p99) measured a
# closed loop: its latencies are reported but flagged invalid.
GEN_LATE_LIMIT_MS = 2.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; returns the binary path.

    A lock serializes concurrent callers sharing one build directory.
    """
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "tss_bench"],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "tss_bench")


def run_binary(exe, workload, seed, seconds, smoke=False, spans=None):
    """One tss_bench process; returns its parsed JSON result."""
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if smoke:
        cmd.append("--smoke")
    if spans:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd.append(f"--spans={spans}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} seed {seed}: tss_bench timed out")
    if not out.strip():
        raise RuntimeError(f"{workload} seed {seed}: tss_bench exited "
                           f"{proc.returncode} without a result")
    try:
        result = json.loads(out)
    except json.JSONDecodeError as e:
        raise RuntimeError(f"{workload} seed {seed}: unreadable result: {e}")
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"{workload} seed {seed}: tss_bench exited "
                           f"{proc.returncode}")
    return result


def spans_path(workload, seed):
    return os.path.join(BUILD_DIR, "spans", f"{workload}-seed{seed}.json")


def result_line(result, bench, trace):
    """The one-line result: end-to-end metrics untraced, per-layer traced."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"tss_bench did not report {m['name']} "
                               f"in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def cmd_measure(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; one of {names}")
        return 2
    exe = build()
    spans = spans_path(args.workload, args.seed) if args.trace else None
    result = run_binary(exe, args.workload, args.seed, args.seconds,
                        spans=spans)
    line = result_line(result, bench, args.trace)
    if spans:
        log(f"spans: {spans}")
    for failure in result.get("failures", []):
        log("FAILED:", failure)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ------------------------------------------------------------ statistics

def summarize_values(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread, "min": values[0], "max": values[-1]}


def summarize(runs, traced=False):
    """{workload: {metric: summary}} over the untraced (or traced) runs."""
    by = defaultdict(lambda: defaultdict(list))
    units, exact = {}, {}
    for r in runs:
        if r["traced"] != traced:
            continue
        for name, m in r["result"]["metrics"].items():
            by[r["workload"]][name].append(m["value"])
            units[name] = m["unit"]
            exact[name] = m["exact"]
    out = {}
    for w, metrics in by.items():
        out[w] = {}
        for name, values in metrics.items():
            s = summarize_values(values)
            s["unit"] = units[name]
            s["exact"] = exact[name]
            out[w][name] = s
    return out


def self_times(events):
    """Per span name: (count, Σ duration, Σ self time) in microseconds.

    A span's self time is its duration minus its direct children's.
    """
    child = defaultdict(float)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child[parent] += e["dur"]
    per = defaultdict(lambda: [0, 0.0, 0.0])
    for e in events:
        row = per[e["name"]]
        row[0] += 1
        row[1] += e["dur"]
        row[2] += e["dur"] - child[e["args"]["id"]]
    return per


def fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        loadavg = os.getloadavg()
    except OSError:
        loadavg = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "loadavg": loadavg, "platform": platform.platform(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def fmt(v):
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return str(int(v)) if isinstance(v, float) else str(v)


# ------------------------------------------------------------ run

def identity_failures(runs):
    """Exact metrics must repeat per (workload, seed), and wide-par must
    equal wide-seq: the engine thread count changes no simulated bit."""
    exact = defaultdict(dict)
    failures = []
    for r in runs:
        values = {n: m["value"] for n, m in r["result"]["metrics"].items()
                  if m["exact"]}
        key = (r["workload"], r["seed"])
        if key in exact and exact[key] != values:
            failures.append(f"{key}: exact metrics changed between runs")
        exact[key] = values
    for (w, seed), values in exact.items():
        if w == "wide-par" and ("wide-seq", seed) in exact:
            seq = exact[("wide-seq", seed)]
            diff = sorted(n for n in values if values[n] != seq.get(n))
            if diff:
                failures.append(f"seed {seed}: wide-par differs from "
                                f"wide-seq in {', '.join(diff)}")
    return failures


def print_summary(summary, bench, section):
    names = [m["name"] for m in bench[section]]
    for w, metrics in summary.items():
        print(f"\n[{w}] {section}")
        print(f"  {'metric':34} {'unit':>10} {'n':>3} {'median':>14} "
              f"{'q1':>14} {'q3':>14} {'spread':>8}")
        for name in names:
            s = metrics.get(name)
            if s is None:
                continue
            tag = " exact" if s["exact"] else ""
            print(f"  {name:34} {s['unit']:>10} {s['n']:>3} "
                  f"{fmt(s['median']):>14} {fmt(s['q1']):>14} "
                  f"{fmt(s['q3']):>14} {s['spread']:>8.2%}{tag}")


def cmd_run(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or
                                                bench["run_seconds"])
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    exe = build()
    report = {"fingerprint": fingerprint(), "seconds": seconds,
              "smoke": args.smoke, "runs": []}
    failures, warnings = [], []

    def one(workload, seed, traced):
        spans = spans_path(workload, seed) if traced else None
        try:
            res = run_binary(exe, workload, seed, seconds, args.smoke, spans)
        except RuntimeError as e:
            failures.append(str(e))
            return
        for f in res["failures"]:
            failures.append(f"{workload} seed {seed}: {f}")
        late = res["metrics"]["bench.gen_late_p99_ms"]["value"]
        if not args.smoke and late > GEN_LATE_LIMIT_MS:
            warnings.append(f"{workload} seed {seed}: open-loop generator "
                            f"p99 late {late:.2f} ms > {GEN_LATE_LIMIT_MS} "
                            f"ms, its latencies are invalid")
        report["runs"].append({"workload": workload, "seed": seed,
                               "traced": traced, "spans": spans,
                               "result": res})
        log(f"{workload:10} seed {seed:>3} {'traced' if traced else '':6} "
            f"{res['wall_s']:.1f} s  failed {res['failed']}")

    for i, seed in enumerate(seeds):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            one(w, seed, False)
    if args.traced:
        for w in workloads:
            one(w, seeds[0], True)
    report["fingerprint_after"] = fingerprint()
    failures += identity_failures(report["runs"])

    summary = summarize(report["runs"])
    report["summary"] = summary
    fp = report["fingerprint"]
    print(f"machine: nproc {fp['nproc']}, {fp['cpu']}, loadavg "
          f"{fp['loadavg']} -> {report['fingerprint_after']['loadavg']}")
    print(f"runs: {len(seeds)} per workload, {seconds} s each")
    print_summary(summary, bench, "end_to_end")

    if args.traced:
        traced = summarize(report["runs"], traced=True)
        report["traced_summary"] = traced
        print_summary(traced, bench, "per_layer")
        report["trace_overhead_frac"] = {}
        for r in report["runs"]:
            if not r["traced"] or r["workload"] not in summary:
                continue
            w = r["workload"]
            # The traced run differs from the untraced ones only by the
            # span log; its end-to-end drift is the tracing overhead.
            overhead = (r["result"]["metrics"]["job_p50_ms"]["value"] /
                        summary[w]["job_p50_ms"]["median"] - 1)
            report["trace_overhead_frac"][w] = overhead
            with open(r["spans"]) as f:
                events = json.load(f)["traceEvents"]
            print(f"\n[{w}] span self-time, {r['spans']}\n"
                  f"  bench.trace_overhead_frac (job_p50_ms against the "
                  f"untraced median): {overhead:+.2%}")
            for name, (n, total, self_us) in sorted(
                    self_times(events).items(), key=lambda kv: -kv[1][2])[:12]:
                print(f"  {name:24} n {n:>6}  total {total / 1e3:>10.1f} ms"
                      f"  self {self_us / 1e3:>10.1f} ms")

    report["warnings"] = warnings
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    for w in warnings:
        print("WARNING:", w)
    for f in failures:
        print("FAILED:", f)
    return 1 if failures else 0


# ------------------------------------------------------------ compare

def load_runs(paths):
    """One side of a comparison: the runs of one or more `run --out`
    files (comma-separated), e.g. sets interleaved with the other side's."""
    merged = None
    for path in paths.split(","):
        with open(path) as f:
            rep = json.load(f)
        if merged is None:
            merged = rep
        else:
            merged["runs"] += rep["runs"]
    return merged


def cmd_compare(args):
    bench = load_benchmark()
    base, change = load_runs(args.base), load_runs(args.change)
    if base["fingerprint"]["cpu"] != change["fingerprint"]["cpu"] or \
            base["fingerprint"]["nproc"] != change["fingerprint"]["nproc"]:
        print("WARNING: the two files come from different machines")
    sa, sb = summarize(base["runs"]), summarize(change["runs"])

    def by_seed(rep):
        return {(r["workload"], r["seed"]): r["result"]["metrics"]
                for r in rep["runs"] if not r["traced"]}

    ra, rb = by_seed(base), by_seed(change)
    regressions = 0
    for w in sorted(set(sa) & set(sb)):
        print(f"\n[{w}]")
        pairs = [k for k in ra if k[0] == w and k in rb]
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a, b = sa[w].get(name), sb[w].get(name)
            if a is None or b is None:
                continue
            worse = ((b["median"] - a["median"]) if lower
                     else (a["median"] - b["median"])) / abs(a["median"])
            # Same-seed pairs the change wins; ties count for neither.
            wins = 0
            for k in pairs:
                va, vb = ra[k][name]["value"], rb[k][name]["value"]
                wins += (vb < va) if lower else (vb > va)
            every_better = (b["max"] < a["min"]) if lower else \
                (b["min"] > a["max"])
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif a["spread"] > bound and not every_better:
                verdict = "unresolved (spread > bound)"
            elif a["exact"] and a["median"] == b["median"]:
                verdict = "same"
            else:
                verdict = "ok"
            print(f"  {name:24} {fmt(a['median']):>14} -> "
                  f"{fmt(b['median']):>14} {m['unit']:>7}  "
                  f"{-worse:+8.2%} (bound {bound:.0%}, base spread "
                  f"{a['spread']:.2%}, change wins {wins}/{len(pairs)})"
                  f"  {verdict}")
        changed = [p["name"] for p in bench["per_layer"]
                   if p["name"] in sa[w] and p["name"] in sb[w] and
                   sa[w][p["name"]]["median"] != sb[w][p["name"]]["median"]]
        for name in changed:
            print(f"    {name:30} {fmt(sa[w][name]['median']):>14} -> "
                  f"{fmt(sb[w][name]['median']):>14} "
                  f"{sa[w][name]['unit']}")
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure", help="one run of one workload")
    m.add_argument("--workload", required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("run", help="interleaved runs of every workload")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seeds")
    r.add_argument("--seconds", type=float)
    r.add_argument("--workloads")
    r.add_argument("--traced", action="store_true")
    r.add_argument("--smoke", action="store_true")
    r.add_argument("--out")
    c = sub.add_parser("compare", help="apply BENCHMARK.json bounds")
    c.add_argument("base")
    c.add_argument("change")
    args = p.parse_args(argv)
    try:
        return {"measure": cmd_measure, "run": cmd_run,
                "compare": cmd_compare}[args.cmd](args)
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"tss_bench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
