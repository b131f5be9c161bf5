#!/usr/bin/env python3
"""Perf-regression gate for the checked-in benchmark baselines.

Five benches are captured and gated, each against BENCH_<kind>.json:
kernel (fig12_decode_rate), parallel (parallel_exec), noc
(fig17_noc_contention), sim (fig18_sim_speedup) and serve
(fig19_serve_load). ``CAPTURES`` says how to run each bench and turn
its stdout into a fresh JSON. ``RULES`` says how each gated cell of the
fresh JSON must relate to the baseline's. A path separates keys with
``/``; ``*`` matches every key of an object, and ``rows[field]`` every
row of a list, pairing the two files' rows by ``field``. The rules:

  exact             equal: simulated quantities are pure functions of
                    (program, config), so any drift changed semantics
  lower             at most 15% above the baseline
  ~lower / ~higher  advisory (wall-clock numbers depend on the machine
                    and its load): printed, never fails, skipped when
                    absent
  positive / true   fresh file only, on every row: a row that lacks
                    the leaf fails
  suffix ?          baseline rows may be absent from the fresh file (a
                    --quick run) as long as one row is shared

One walker applies the rules to the union of both files' cells: a
gated cell present in only one file fails and names its path, and so
does a gated rule that matches no cell of both. Both files must also
carry the machine fingerprint (without it the advisory numbers are
uninterpretable), and noc re-checks fig17's acceptance shape on the
fresh numbers.

Usage:
  compare_bench.py capture --kind K --bench PATH --out FRESH.json [--arg=A]
  compare_bench.py compare --kind K --baseline BASE.json --fresh FRESH.json
  compare_bench.py determinism --a RUN1.json --b RUN2.json
  compare_bench.py trace --file TRACE.json [--schema SCHEMA.json]
  compare_bench.py selftest

``determinism`` diffs two noc captures' ``fig17_quick`` cells exactly;
``trace`` validates a Chrome trace against ``bench/trace_schema.json``;
``selftest`` runs the gate on mutated copies of the baselines (CI runs
it first, so a broken gate cannot pass every comparison).
"""

import argparse
import copy
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
TOLERANCE = 0.15


def machine_fingerprint():
    info = {
        "hardware_concurrency": os.cpu_count() or 0,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def load(path):
    with open(path) as f:
        return json.load(f)


def check_fingerprint(data, label):
    """Failures for @p data lacking the machine fingerprint."""
    machine = data.get("machine")
    if not isinstance(machine, dict):
        return [f"{label}: no machine fingerprint"]
    return [f"{label}: machine fingerprint missing '{field}'"
            for field in ("hardware_concurrency", "platform", "machine")
            if field not in machine]


def parse_fig12_csv(text):
    """CSV panels -> {workload: {"TRSxORT": cycles_per_task}}."""
    grids = {}
    workload = None
    ort_counts = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if "(" in line and "tasks)" in line:
            workload = line.split("(")[0].strip()
            ort_counts = []
            continue
        if line.startswith("#TRS"):
            ort_counts = [
                col.split()[0] for col in line.split(",")[1:]
            ]
            continue
        if workload and ort_counts and line[0].isdigit():
            cells = line.split(",")
            trs = cells[0]
            grid = grids.setdefault(workload, {})
            for ort, value in zip(ort_counts, cells[1:]):
                grid[f"{trs}x{ort}"] = float(value)
    return grids


def parse_fig17_csv(text):
    """fig17 CSV -> wide rows under "sweep"/"ticket" (historical
    keys), the relocated real-kernel rows under
    "real_sweep"/"real_ticket" keyed by program name, the advisory
    --relocate-seed layout rows under "relocate_sweep", and capture
    metadata ("meta,<key>,<int>" rows, e.g. the pinned minimum-safe
    OVT bound) as top-level keys."""
    out = {"sweep": {}, "ticket": {},
           "real_sweep": {}, "real_ticket": {},
           "relocate_sweep": {}}
    for line in text.splitlines():
        cells = line.strip().split(",")
        if len(cells) > 1 and cells[1] == "program":
            continue  # CSV header rows
        if cells[0] == "meta":
            out[cells[1]] = int(cells[2])
        elif cells[0] == "relocate":
            _, prog, seed, decode, makespan, messages = cells
            out["relocate_sweep"].setdefault(prog, {})[seed] = {
                "decode_cy": float(decode),
                "makespan": int(makespan),
                "messages": int(messages),
            }
        elif cells[0] == "sweep":
            _, prog, topo, place, batch, _tasks, decode, _makespan, \
                messages, lane_wait, batch_fill = cells
            key = f"{topo}/{place}/{'batch' if batch == '1' else 'solo'}"
            row = {
                "decode_cy": float(decode),
                "messages": int(messages),
                "lane_wait_cy": int(lane_wait),
                "batch_fill": float(batch_fill),
            }
            if prog == "wide":
                out["sweep"][key] = row
            else:
                out["real_sweep"].setdefault(prog, {})[key] = row
        elif cells[0] == "ticket":
            _, prog, pipes, real, ideal, overhead, deferrals = cells
            row = {
                "decode_real_cy": float(real),
                "decode_ideal_cy": float(ideal),
                "overhead_pct": float(overhead),
                "deferrals": int(deferrals),
            }
            if prog == "wide":
                out["ticket"][pipes] = row
            else:
                out["real_ticket"].setdefault(prog, {})[pipes] = row
    return out


# kind -> (bench arguments, stdout -> fresh JSON, wall-seconds key).
CAPTURES = {
    "kernel": (["--quick", "--csv"],
               lambda out: {"fig12_quick_decode_rates":
                            parse_fig12_csv(out)},
               "fig12_quick_wall_seconds"),
    "parallel": ([], json.loads, None),
    "noc": (["--quick", "--csv"],
            lambda out: {"fig17_quick": parse_fig17_csv(out)},
            "fig17_quick_wall_seconds"),
    "sim": (["--quick"], json.loads, "fig18_quick_wall_seconds"),
    "serve": (["--quick"], json.loads, "fig19_quick_wall_seconds"),
}

# kind -> [(path, rule)]; the module docstring gives the syntax.
RULES = {
    "kernel": [
        ("fig12_quick_decode_rates/*/*", "lower"),
        ("fig12_quick_wall_seconds", "~lower"),
    ],
    # sim_speedup is simulated from relocated traces, so it and the
    # version count are bit-deterministic.
    "parallel": [
        ("graph_mode[threads]/sim_speedup", "exact?"),
        ("graph_mode[threads]/versions", "exact?"),
        ("graph_mode[threads]/wall_speedup", "~higher"),
        ("replay_mode/sim_speedup", "exact"),
    ],
    "noc": [
        ("fig17_quick/sweep/*/decode_cy", "lower"),
        ("fig17_quick/sweep/*/messages", "lower"),
        ("fig17_quick/ticket/*/decode_real_cy", "lower"),
        ("fig17_quick/real_sweep/*/*/decode_cy", "lower"),
        ("fig17_quick/real_sweep/*/*/messages", "lower"),
        ("fig17_quick/real_ticket/*/*/decode_real_cy", "lower"),
        # The --relocate-seed rows are deterministic per seed but
        # legitimately layout-dependent.
        ("fig17_quick/relocate_sweep/*/*/decode_cy", "~lower"),
        # Re-pinning the OVT bound (tests/ovt_bound.hh) is a deliberate
        # act that re-baselines both; it must not drift silently.
        ("fig17_quick/ovt_min_safe_slots_per_slice", "exact"),
    ],
    "sim": [
        ("determinism/*", "exact"),
        ("windows/*", "exact"),
        ("sim_scaling[sim_threads]/bit_identical", "true"),
        ("sim_scaling[sim_threads]/events_per_sec", "~higher"),
        ("sim_scaling[sim_threads]/speedup", "~higher"),
    ],
    "serve": [
        ("closed_loop/tenants[name]/completed", "exact"),
        ("closed_loop/tenants[name]/simulated_tasks", "exact"),
        ("closed_loop/tenants[name]/carve_base", "exact"),
        ("closed_loop/tenants[name]/sim_makespan_cycles/*", "exact"),
        # The bench saturates capacity-1 stages on purpose: zero Busy
        # replies mean the admission bound stopped engaging.
        ("open_loop/busy_rejections", "positive"),
        ("open_loop/tasks_per_sec", "~higher"),
        ("open_loop/wall_latency_seconds/p95", "~lower"),
    ],
}


def capture(kind, bench, out, extra):
    """Run @p bench and write its fresh JSON, stamped with this
    machine's fingerprint and the bench's wall seconds."""
    args, parse, wall_key = CAPTURES[kind]
    argv = [bench, *args, *extra]
    begin = time.monotonic()
    result = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - begin
    if result.returncode != 0:
        # Surface the bench's own diagnostics (e.g. parallel_exec's
        # differential-oracle divergence), not a bare exit code.
        sys.stderr.write(result.stdout + result.stderr)
        sys.exit(f"{' '.join(argv)} failed "
                 f"(exit {result.returncode}); output above")
    fresh = parse(result.stdout)
    fresh["machine"] = {**fresh.get("machine", {}),
                        **machine_fingerprint()}
    if wall_key:
        fresh[wall_key] = round(wall, 3)
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    print(f"captured {kind} metrics in {wall:.1f}s -> {out}")


def cells(node, keys, path=()):
    """Yield (path, value) for every cell of @p node that the rule path
    @p keys matches; a row's path element carries its pairing key. A
    leaf its object lacks yields None."""
    if not keys:
        yield path, node
        return
    key, rest = keys[0], keys[1:]
    if key.endswith("]"):
        name, field = key[:-1].split("[")
        rows = node.get(name) if isinstance(node, dict) else None
        for row in rows if isinstance(rows, list) else ():
            if isinstance(row, dict):
                yield from cells(row, rest, path + (
                    f"{name}[{field}={row.get(field)}]",))
    elif isinstance(node, dict):
        for k in node if key == "*" else [key]:
            yield from cells(node.get(k), rest, path + (k,))


def judge(op, base, new):
    """(passed, detail) for one cell under rule @p op."""
    if op == "exact":
        return new == base, f"fresh {new!r} != baseline {base!r}"
    if op == "true":
        return new is True, f"{new!r}, not true"
    number = (int, float)
    if op == "positive":
        return isinstance(new, number) and new > 0, f"{new!r}, not positive"
    if not (isinstance(base, number) and isinstance(new, number)):
        return False, f"fresh {new!r} vs baseline {base!r}: not numbers"
    limit = base * (1 + TOLERANCE if op == "lower" else 1 - TOLERANCE)
    passed = new <= limit if op == "lower" else new >= limit
    return passed, f"fresh {new:g} vs baseline {base:g} (limit {limit:g})"


def noc_shape(fresh):
    """fig17's acceptance shape on the fresh numbers: a spread
    floorplan costs decode throughput, batching recovers part of it,
    and the real ordered-admission protocol is never cheaper than its
    zero-cost oracle at the multi-pipeline point."""
    try:
        quick = fresh["fig17_quick"]
        adjacent, spread, batched = (
            quick["sweep"][f"ring/{point}"]["decode_cy"]
            for point in ("adjacent/solo", "spread/solo", "spread/batch"))
        multi = max(quick["ticket"], key=int)
        real = quick["ticket"][multi]["decode_real_cy"]
        ideal = quick["ticket"][multi]["decode_ideal_cy"]
    except KeyError as missing:
        return [f"shape: cell {missing} missing"]
    except ValueError:
        return ["shape: ticket section empty"]
    return [f"shape: {message}" for held, message in (
        (spread > adjacent, f"spread ({spread}) did not degrade decode "
                            f"vs adjacent ({adjacent})"),
        (batched < spread, f"batching ({batched}) did not recover decode "
                           f"vs spread ({spread})"),
        (real >= ideal, f"ordered admission ({real}) beat its zero-cost "
                        f"oracle ({ideal}) at {multi}p")) if not held]


def gate(kind, baseline, fresh):
    """Apply RULES[kind], the fingerprint rule and noc's shape check
    to @p fresh against @p baseline: (failures, advisory lines)."""
    failures = check_fingerprint(baseline, "baseline") + \
        check_fingerprint(fresh, "fresh")
    advisories = []
    for rule_path, rule in RULES[kind]:
        keys = rule_path.split("/")
        op = rule.strip("~?")
        if op in ("positive", "true"):
            found = list(cells(fresh, keys))
            if not found:
                failures.append(f"{rule_path}: absent from fresh")
            for path, value in found:
                passed, detail = judge(op, None, value)
                if not passed:
                    failures.append(f"{'/'.join(path)}: {detail}")
            continue
        base = dict(cells(baseline, keys))
        new = dict(cells(fresh, keys))
        advisory = rule.startswith("~")
        shared = 0
        for path in sorted(base.keys() | new.keys()):
            name = "/".join(path)
            if base.get(path) is None or new.get(path) is None:
                # A "?" rule lets fresh lack a whole baseline row.
                if not advisory and (path in new or not rule.endswith("?")):
                    side = "baseline" if base.get(path) is None else "fresh"
                    failures.append(f"{name}: missing from {side}")
                continue
            shared += 1
            passed, detail = judge(op, base[path], new[path])
            if advisory:
                advisories.append(f"{name}: {detail}")
            elif not passed:
                failures.append(f"{name}: {detail}")
        if not advisory and not shared:
            failures.append(f"{rule_path}: no cell in both files")
    if kind == "noc":
        failures += noc_shape(fresh)
    return failures, advisories


def validate_trace(path, schema_path):
    """Validate a flight-recorder Chrome trace JSON against the
    checked-in schema (bench/trace_schema.json). Hand-rolled on
    purpose: no jsonschema dependency, and the checks are stricter
    than JSON Schema conveniently expresses (exact top-level shape,
    integers-only timestamps, per-phase required fields)."""
    with open(schema_path) as f:
        schema = json.load(f)
    with open(path) as f:
        text = f.read()
    errors = []
    if not text.endswith("\n]}\n"):
        errors.append("document does not end with '\\n]}\\n' "
                      "(the splice contract of appendChromeEvents)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"not valid JSON: {err}"]

    top = schema["top_level_key"]
    if not isinstance(doc, dict) or list(doc.keys()) != [top]:
        errors.append(f"top level must be an object with the single "
                      f"key '{top}'")
        return errors
    events = doc[top]
    if not isinstance(events, list):
        return [f"'{top}' is not an array"]

    phases = schema["phases"]
    categories = set(schema["categories"])
    int_fields = schema["integer_fields"]
    counts = {}
    for i, ev in enumerate(events):
        where = f"event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in phases:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        counts[ph] = counts.get(ph, 0) + 1
        for field in phases[ph]["required"]:
            if field not in ev:
                errors.append(f"{where} (ph={ph}): missing '{field}'")
        for field in int_fields:
            if field in ev and not isinstance(ev[field], int):
                errors.append(f"{where} (ph={ph}): '{field}' is "
                              f"{ev[field]!r}, not an integer")
        if "cat" in ev and ev["cat"] not in categories:
            errors.append(f"{where}: unknown category {ev['cat']!r}")
        if ph == "f" and ev.get("bp") != schema["flow_end_bp"]:
            errors.append(f"{where}: flow end without bp="
                          f"'{schema['flow_end_bp']}'")
        if len(errors) >= 20:
            errors.append("(stopping after 20 errors)")
            break
    if not errors:
        by_phase = ", ".join(f"{ph}:{n}"
                             for ph, n in sorted(counts.items()))
        print(f"trace schema ok: {len(events)} events ({by_phase})")
    return errors


def flatten(value, prefix=""):
    """Nested dict -> {"a/b/c": leaf} for readable exact diffs."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, child in value.items():
        path = f"{prefix}/{key}" if prefix else str(key)
        out.update(flatten(child, path))
    return out


def check_determinism(a, b):
    """Exact (zero-tolerance) diff of two noc captures' fig17_quick
    sections; every simulated metric must be byte-identical."""
    cells_a = flatten(a["fig17_quick"])
    cells_b = flatten(b["fig17_quick"])
    diverged = []
    for key in sorted(set(cells_a) | set(cells_b)):
        if cells_a.get(key) != cells_b.get(key):
            diverged.append(
                f"  {key}: {cells_a.get(key, '<missing>')} != "
                f"{cells_b.get(key, '<missing>')}")
    real_rows = sum(1 for k in cells_a if k.startswith("real_"))
    if diverged:
        print(f"{len(diverged)} cell(s) diverged between runs:")
        print("\n".join(diverged))
        return 1
    print(f"determinism check passed: {len(cells_a)} cells "
          f"byte-identical ({real_rows} relocated real-kernel cells)")
    return 0


DROP = object()


def times(factor):
    return lambda v: v * factor


# (check, kind, keys of one cell in a copy of BENCH_<kind>.json that
# serves as the fresh file, the cell's new value, a function of its old
# value or DROP, whether the gate must pass).
SELFTEST = [
    ("within-tolerance passes (lower is better)", "kernel",
     ("fig12_quick_decode_rates", "Cholesky", "1x1"), times(1.1), True),
    ("higher-is-worse flagged", "kernel",
     ("fig12_quick_decode_rates", "Cholesky", "1x1"), times(1.2), False),
    ("grid cell missing from fresh fails", "kernel",
     ("fig12_quick_decode_rates", "H264", "1x1"), DROP, False),
    ("real-kernel sim_speedup drift fails", "parallel",
     ("graph_mode", 1, "sim_speedup"), times(0.99), False),
    ("real-kernel sim_speedup gain fails too", "parallel",
     ("graph_mode", 1, "sim_speedup"), times(1.01), False),
    ("real-kernel version-count drift fails", "parallel",
     ("graph_mode", 1, "versions"), times(2), False),
    ("replay sim_speedup drift fails", "parallel",
     ("replay_mode", "sim_speedup"), times(0.99), False),
    ("advisory never fails", "parallel",
     ("graph_mode", 1, "wall_speedup"), times(0.1), True),
    ("quick run may omit baseline rows", "parallel", ("graph_mode", 3),
     DROP, True),
    ("a shared row may not omit its gated leaf", "parallel",
     ("graph_mode", 1, "sim_speedup"), DROP, False),
    ("no thread count in common fails", "parallel", ("graph_mode",), [],
     False),
    ("fingerprint {} rejected", "parallel", ("machine",), DROP, False),
    ("fingerprint {'machine': 'x86_64'} rejected", "parallel",
     ("machine",), "x86_64", False),
    ("fingerprint {'machine': {'hardware_concurrency': 1}} rejected",
     "parallel", ("machine",), {"hardware_concurrency": 1}, False),
    ("real-kernel message regression fails", "noc",
     ("fig17_quick", "real_sweep", "jacobi", "mesh/spread/solo",
      "messages"), times(1.5), False),
    ("shape: spread must degrade decode", "noc",
     ("fig17_quick", "sweep", "ring/spread/solo", "decode_cy"), 1.0, False),
    ("relocate-seed rows stay advisory", "noc",
     ("fig17_quick", "relocate_sweep", "cholesky", "1", "decode_cy"),
     times(2), True),
    ("pinned OVT bound drift fails", "noc",
     ("fig17_quick", "ovt_min_safe_slots_per_slice"), times(2), False),
    ("row missing from the baseline fails", "noc",
     ("fig17_quick", "real_ticket", "jacobi", "8"), {"decode_real_cy": 1.0},
     False),
    ("sim determinism drift fails", "sim", ("determinism", "makespan"),
     times(2), False),
    ("sim digest drift fails", "sim", ("determinism", "event_digest"),
     "0x0", False),
    ("sim counter missing from the baseline fails", "sim",
     ("determinism", "new_counter"), 1, False),
    ("sim window-counter drift fails", "sim", ("windows", "fused"),
     times(2), False),
    ("sim missing windows section fails", "sim", ("windows",), DROP,
     False),
    ("non-bit-identical sim row fails", "sim",
     ("sim_scaling", 1, "bit_identical"), False, False),
    ("sim row without bit_identical fails", "sim",
     ("sim_scaling", 1, "bit_identical"), DROP, False),
    ("sim throughput drop stays advisory", "sim",
     ("sim_scaling", 1, "events_per_sec"), times(0.01), True),
    ("serve sim-percentile drift fails", "serve",
     ("closed_loop", "tenants", 0, "sim_makespan_cycles", "p95"),
     times(2), False),
    ("renamed serve tenant fails", "serve",
     ("closed_loop", "tenants", 2, "name"), "tenant9", False),
    ("serve without backpressure fails", "serve",
     ("open_loop", "busy_rejections"), 0, False),
    ("serve wall slowdown stays advisory", "serve",
     ("open_loop", "tasks_per_sec"), 1.0, True),
    ("serve wall p95 slowdown stays advisory", "serve",
     ("open_loop", "wall_latency_seconds", "p95"), 9.9, True),
    ("absent advisory cell is skipped", "serve",
     ("open_loop", "tasks_per_sec"), DROP, True),
]


def mutated(doc, keys, change):
    """A deep copy of @p doc with the cell at @p keys changed."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if change is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = change(node[keys[-1]]) if callable(change) \
            else change
    return doc


def selftest():
    """Exercise the gate on mutated copies of the checked-in baselines
    and synthetic traces; non-zero if the gate itself regressed."""
    checks = []

    def expect(name, cond):
        checks.append((name, cond))
        print(f"  [{'ok' if cond else 'FAIL'}] {name}")

    baselines = {kind: load(os.path.join(REPO_DIR, f"BENCH_{kind}.json"))
                 for kind in RULES}
    expect("full fingerprint accepted",
           not check_fingerprint({"machine": machine_fingerprint()}, "x"))
    for kind in RULES:
        expect(f"clean {kind} compare passes",
               not gate(kind, baselines[kind], baselines[kind])[0])
    for name, kind, keys, change, passes in SELFTEST:
        failures, _ = gate(kind, baselines[kind],
                           mutated(baselines[kind], keys, change))
        expect(name, not failures if passes else bool(failures))

    # The pinned minimum-safe OVT bound: the constant the OvtCapacity
    # tests assert (tests/ovt_bound.hh) and the metadata the noc
    # baseline carries must agree — a re-pin that touches one but not
    # the other is exactly the silent drift this gate exists to catch.
    with open(os.path.join(REPO_DIR, "tests", "ovt_bound.hh")) as f:
        match = re.search(r"kMinSafeOvtSlotsPerSlice\s*=\s*(\d+)",
                          f.read())
    recorded = baselines["noc"]["fig17_quick"].get(
        "ovt_min_safe_slots_per_slice")
    expect("pinned OVT bound consistent "
           f"(header {match and match.group(1)}, baseline {recorded})",
           match is not None and recorded == int(match.group(1)))

    # The trace schema validator: a well-formed exporter document
    # passes; each corruption class is caught.
    good_events = [
        {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
         "args": {"name": "core0"}},
        {"name": "task.start", "cat": "task", "ph": "X", "ts": 10,
         "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 1}},
        {"name": "task", "cat": "task", "ph": "s", "id": 0, "ts": 10,
         "pid": 0, "tid": 1},
        {"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 0,
         "ts": 20, "pid": 0, "tid": 1},
    ]

    def trace_text(events):
        body = ",\n".join(json.dumps(e) for e in events)
        return '{"traceEvents": [\n' + body + "\n]}\n"

    def trace_errors(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                f.write(text)
            return validate_trace(
                path, os.path.join(BENCH_DIR, "trace_schema.json"))

    expect("good trace validates",
           trace_errors(trace_text(good_events)) == [])
    for name, event, field, value in (
            ("unknown phase rejected", 1, "ph", "Z"),
            ("unknown category rejected", 1, "cat", "mystery"),
            ("float timestamp rejected", 1, "ts", 10.5),
            ("missing required field rejected", 1, "dur", DROP),
            ("flow end without bp rejected", 3, "bp", DROP)):
        events = mutated(good_events, (event, field), value)
        expect(name, trace_errors(trace_text(events)) != [])
    expect("truncated document rejected",
           trace_errors(trace_text(good_events)[:-3]) != [])

    # Exact determinism diff on noc captures.
    run = {"fig17_quick": {"sweep": {"ring/adjacent/solo":
                                     {"decode_cy": 10.5}}}}
    changed = mutated(run, ("fig17_quick", "sweep", "ring/adjacent/solo",
                            "decode_cy"), 10.6)
    expect("identical captures deterministic",
           check_determinism(run, copy.deepcopy(run)) == 0)
    expect("changed cell detected", check_determinism(run, changed) == 1)

    failed = [name for name, cond in checks if not cond]
    if failed:
        print(f"selftest: {len(failed)} check(s) failed: "
              + "; ".join(failed))
        return 1
    print(f"selftest: all {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("capture")
    p.add_argument("--kind", choices=CAPTURES, required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arg", action="append", default=[],
                   help="extra argument passed to the bench "
                        "(repeatable), e.g. --arg=--sim-threads=4")

    p = sub.add_parser("compare")
    p.add_argument("--kind", choices=RULES, required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--fresh", required=True)

    p = sub.add_parser("determinism")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("trace")
    p.add_argument("--file", required=True,
                   help="Chrome trace JSON to schema-validate")
    p.add_argument("--schema",
                   default=os.path.join(BENCH_DIR, "trace_schema.json"))

    sub.add_parser("selftest")

    args = parser.parse_args()
    if args.cmd == "selftest":
        return selftest()
    if args.cmd == "determinism":
        return check_determinism(load(args.a), load(args.b))
    if args.cmd == "trace":
        errors = validate_trace(args.file, args.schema)
        for err in errors:
            print(f"  [FAIL] {args.file}: {err}")
        return 1 if errors else 0
    if args.cmd == "capture":
        capture(args.kind, args.bench, args.out, args.arg)
        return 0

    print(f"comparing {args.kind}: {args.fresh} against {args.baseline}")
    failures, advisories = gate(args.kind, load(args.baseline),
                                load(args.fresh))
    for line in advisories:
        print(f"  [ADVISORY] {line}")
    for line in failures:
        print(f"  [FAIL] {line}")
    if failures:
        print(f"{len(failures)} regression(s)")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
