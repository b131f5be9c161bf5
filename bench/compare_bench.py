#!/usr/bin/env python3
"""Perf-regression gate for the checked-in benchmark baselines.

Two benchmark families are gated:

* kernel  -- ``fig12_decode_rate --quick --csv``: the decode-rate grid
  (cycles/task per TRS x ORT design point) is a *deterministic*
  simulator metric, compared cell by cell against the
  ``fig12_quick_decode_rates`` section of BENCH_kernel.json. Higher
  cycles/task than baseline * (1 + tolerance) fails. The bench's wall
  time is also captured but always advisory: wall seconds are not
  comparable across machines, and even on the same machine a noisy
  neighbor (a shared CI runner, a background build) skews them far
  beyond any honest tolerance.

* parallel -- ``parallel_exec``: per-thread-count ``sim_speedup``
  (deterministic) must stay above baseline * (1 - tolerance);
  ``wall_speedup`` is advisory for the same reason as above. The
  machine fingerprint recorded in both JSONs tells a human reader how
  seriously to take an advisory wall delta. The bench itself aborts
  if any parallel execution is not bit-identical to sequential
  execution, so correctness is already enforced upstream.

* noc -- ``fig17_noc_contention --quick --csv``: the topology x
  placement x batching sweep and the ticket-protocol ablation. The
  synthetic ``wide`` program always used deterministic AddressSpace
  addresses; the cholesky/jacobi real-kernel rows are now decoded
  from *relocated* traces (src/trace/relocate.hh rebases the captured
  heap regions onto the same synthetic space), so every row of the
  bench is a pure function of (program, config) and all of them gate
  hard: wide rows under ``sweep``/``ticket`` (historical keys), real
  rows under ``real_sweep``/``real_ticket`` keyed by program name.
  Decode cycles and message counts gate against the baseline; the
  sweep's acceptance shape (spread degrades decode, batching recovers
  it) is enforced by the bench itself, which exits non-zero — so a
  shape regression already fails the capture step. The compare step
  additionally re-checks the recorded shape and that ordered
  admission is never cheaper than the idealAdmission oracle at the
  multi-pipeline point.

The ``determinism`` subcommand diffs the ``fig17_quick`` sections of
two captures *exactly* (no tolerance): CI runs the noc capture twice
in one job and fails if any row — in particular the relocated
real-kernel rows — changed between invocations (e.g. an address
sneaking back into simulated routing).

* sim -- ``fig18_sim_speedup --quick``: the parallel simulation
  engine (src/sim/sim_engine.hh). The ``determinism`` section
  (makespan / events / messages of the sequential reference run)
  gates *exactly* — any drift means simulated semantics changed. The
  per-thread-count throughput rows are advisory (wall-clock, and the
  bench itself already exits non-zero if any thread count is not
  bit-identical to sequential).

* serve -- ``fig19_serve_load --quick``: the multi-tenant trace
  service (src/serve/) under load. The ``closed_loop`` section —
  per-tenant percentiles over per-job *simulated* makespans, plus
  completed-job and simulated-task counts and the tenant carve base —
  gates *exactly* (zero tolerance): every number there is a pure
  function of (program panel, machine config, carve base). The
  ``open_loop`` section (wall latencies, tasks/sec) is advisory, but
  ``busy_rejections`` must be positive — the bench saturates
  capacity-1 stages on purpose, and zero Busy responses means the
  admission bound stopped engaging (the bench itself also exits
  non-zero in that case; the compare re-checks the recorded value).

Every gated comparison also hard-fails when either JSON lacks the
machine fingerprint (``machine`` with ``hardware_concurrency`` /
``platform`` / ``machine``): a baseline without provenance makes the
advisory wall numbers uninterpretable, and historically meant a
hand-edited file.

Usage:
  compare_bench.py capture-kernel   --bench PATH --out FRESH.json
  compare_bench.py capture-parallel --bench PATH --out FRESH.json
  compare_bench.py capture-noc      --bench PATH --out FRESH.json
  compare_bench.py capture-sim      --bench PATH --out FRESH.json
  compare_bench.py capture-serve    --bench PATH --out FRESH.json
  compare_bench.py compare --kind {kernel,parallel,noc,sim,serve} \
      --baseline BASE.json --fresh FRESH.json [--tolerance 0.15]
  compare_bench.py determinism --a RUN1.json --b RUN2.json
  compare_bench.py trace --file TRACE.json [--schema SCHEMA.json] \
      [--diff OTHER_TRACE.json]
  compare_bench.py selftest

The ``trace`` subcommand validates a flight-recorder Chrome trace
(src/obs/trace.hh exporter) against the checked-in
``bench/trace_schema.json`` — phase-specific required fields,
integers-only timestamps, known categories, the ``\\n]}\\n`` splice
suffix — and, with ``--diff``, byte-compares two traces exactly (CI
captures the same run at ``--sim-threads`` 1 and 4 and requires the
exported traces to be identical).

``capture-*`` runs the benchmark and writes a fresh JSON (uploaded as
a CI artifact — use it to re-baseline by hand). ``compare`` and
``determinism`` exit non-zero on regression/divergence. ``selftest``
exercises the gate logic itself on synthetic fixtures (run by the
perf-regression CI job before any real comparison).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time


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


REQUIRED_FINGERPRINT = ("hardware_concurrency", "platform", "machine")


def check_fingerprint(data, label, gate):
    """Hard-fail a gated comparison when @p data lacks the machine
    fingerprint: advisory wall numbers are meaningless without
    provenance, and a missing fingerprint means the file was not
    produced by a capture-* run."""
    machine = data.get("machine")
    if not isinstance(machine, dict):
        gate.failures.append(f"{label}: no machine fingerprint")
        return
    for field in REQUIRED_FINGERPRINT:
        if field not in machine:
            gate.failures.append(
                f"{label}: machine fingerprint missing '{field}'")


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


def run_bench(argv):
    """Run a benchmark; on failure, surface its own diagnostics
    (e.g. parallel_exec's differential-oracle divergence message)
    instead of a bare CalledProcessError."""
    result = subprocess.run(argv, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write(result.stderr)
        sys.exit(f"{' '.join(argv)} failed "
                 f"(exit {result.returncode}); output above")
    return result


def capture_kernel(bench, out, extra=()):
    begin = time.monotonic()
    result = run_bench([bench, "--quick", "--csv", *extra])
    wall = time.monotonic() - begin
    fresh = {
        "machine": machine_fingerprint(),
        "fig12_quick_wall_seconds": round(wall, 3),
        "fig12_quick_decode_rates": parse_fig12_csv(result.stdout),
    }
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    print(f"captured kernel metrics in {wall:.1f}s -> {out}")


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


def capture_noc(bench, out, extra=()):
    begin = time.monotonic()
    result = run_bench([bench, "--quick", "--csv", *extra])
    wall = time.monotonic() - begin
    fresh = {
        "machine": machine_fingerprint(),
        "fig17_quick_wall_seconds": round(wall, 3),
        "fig17_quick": parse_fig17_csv(result.stdout),
    }
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    print(f"captured noc metrics in {wall:.1f}s -> {out}")


def capture_parallel(bench, out, extra=()):
    result = run_bench([bench, *extra])
    fresh = json.loads(result.stdout)
    fresh["machine"] = {**fresh.get("machine", {}),
                        **machine_fingerprint()}
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    rows = ", ".join(
        f"{r['threads']}t x{r['wall_speedup']:.2f}"
        for r in fresh["graph_mode"])
    print(f"captured parallel metrics ({rows}) -> {out}")


def capture_sim(bench, out, extra=()):
    begin = time.monotonic()
    result = run_bench([bench, "--quick", *extra])
    wall = time.monotonic() - begin
    fresh = json.loads(result.stdout)
    fresh["machine"] = {**fresh.get("machine", {}),
                        **machine_fingerprint()}
    fresh["fig18_quick_wall_seconds"] = round(wall, 3)
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    rows = ", ".join(
        f"{r['sim_threads']}t x{r['speedup']:.2f}"
        for r in fresh["sim_scaling"])
    print(f"captured sim metrics ({rows}) in {wall:.1f}s -> {out}")


def capture_serve(bench, out, extra=()):
    begin = time.monotonic()
    result = run_bench([bench, "--quick", *extra])
    wall = time.monotonic() - begin
    fresh = json.loads(result.stdout)
    fresh["machine"] = {**fresh.get("machine", {}),
                        **machine_fingerprint()}
    fresh["fig19_quick_wall_seconds"] = round(wall, 3)
    with open(out, "w") as f:
        json.dump(fresh, f, indent=2)
        f.write("\n")
    rows = ", ".join(
        f"{t['name']} p95={t['sim_makespan_cycles']['p95']:g}cy"
        for t in fresh["closed_loop"]["tenants"])
    print(f"captured serve metrics ({rows}) in {wall:.1f}s -> {out}")


class Gate:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []

    def check(self, name, fresh, baseline, higher_is_better,
              advisory=False):
        if higher_is_better:
            limit = baseline * (1 - self.tolerance)
            bad = fresh < limit
        else:
            limit = baseline * (1 + self.tolerance)
            bad = fresh > limit
        status = "ADVISORY" if advisory else ("FAIL" if bad else "ok")
        if bad or advisory:
            print(f"  [{status}] {name}: fresh {fresh:g} vs baseline "
                  f"{baseline:g} (limit {limit:g})")
        if bad and not advisory:
            self.failures.append(name)


def compare_kernel(baseline, fresh, gate):
    base_grids = baseline["fig12_quick_decode_rates"]
    fresh_grids = fresh["fig12_quick_decode_rates"]
    for workload, grid in base_grids.items():
        for point, value in grid.items():
            if point not in fresh_grids.get(workload, {}):
                gate.failures.append(f"{workload} {point} missing")
                continue
            gate.check(f"{workload} {point} cy/task",
                       fresh_grids[workload][point], value,
                       higher_is_better=False)
    if "fig12_quick_wall_seconds" in baseline:
        gate.check("fig12 --quick wall seconds",
                   fresh["fig12_quick_wall_seconds"],
                   baseline["fig12_quick_wall_seconds"],
                   higher_is_better=False, advisory=True)


def compare_parallel(baseline, fresh, gate):
    fresh_rows = {r["threads"]: r for r in fresh["graph_mode"]}
    compared = 0
    for row in baseline["graph_mode"]:
        threads = row["threads"]
        if threads not in fresh_rows:
            continue  # baseline rows beyond a --quick run
        compared += 1
        gate.check(f"graph_mode {threads}t sim_speedup",
                   fresh_rows[threads]["sim_speedup"],
                   row["sim_speedup"], higher_is_better=True)
        gate.check(f"graph_mode {threads}t wall_speedup",
                   fresh_rows[threads]["wall_speedup"],
                   row["wall_speedup"], higher_is_better=True,
                   advisory=True)
    if compared == 0:
        # A disjoint thread-count set would otherwise gate nothing
        # and still report success.
        gate.failures.append(
            "no graph_mode thread counts in common with the baseline")
    if "replay_mode" in baseline and "replay_mode" in fresh:
        gate.check("replay_mode sim_speedup",
                   fresh["replay_mode"]["sim_speedup"],
                   baseline["replay_mode"]["sim_speedup"],
                   higher_is_better=True)


def compare_noc(baseline, fresh, gate):
    base = baseline["fig17_quick"]
    new = fresh["fig17_quick"]

    def gate_sweep(name, base_rows, new_rows):
        for key, cell in base_rows.items():
            if key not in new_rows:
                gate.failures.append(f"{name} {key} missing")
                continue
            gate.check(f"{name} {key} decode cy/task",
                       new_rows[key]["decode_cy"], cell["decode_cy"],
                       higher_is_better=False)
            gate.check(f"{name} {key} messages",
                       new_rows[key]["messages"], cell["messages"],
                       higher_is_better=False)

    def gate_ticket(name, base_rows, new_rows):
        for pipes, cell in base_rows.items():
            if pipes not in new_rows:
                gate.failures.append(f"{name} {pipes}p missing")
                continue
            gate.check(f"{name} {pipes}p real decode cy/task",
                       new_rows[pipes]["decode_real_cy"],
                       cell["decode_real_cy"], higher_is_better=False)

    gate_sweep("sweep wide", base["sweep"], new["sweep"])
    gate_ticket("ticket wide", base["ticket"], new["ticket"])

    # Relocated real-kernel rows gate exactly like the wide ones: a
    # missing program is a hard failure (a silently dropped row would
    # otherwise read as "no regression").
    for prog, rows in base.get("real_sweep", {}).items():
        gate_sweep(f"sweep {prog}", rows,
                   new.get("real_sweep", {}).get(prog, {}))
    for prog, rows in base.get("real_ticket", {}).items():
        gate_ticket(f"ticket {prog}", rows,
                    new.get("real_ticket", {}).get(prog, {}))

    # The --relocate-seed layout rows: deterministic per seed but
    # legitimately layout-dependent, so advisory only.
    for prog, rows in base.get("relocate_sweep", {}).items():
        new_rows = new.get("relocate_sweep", {}).get(prog, {})
        for seed, cell in rows.items():
            if seed not in new_rows:
                continue
            gate.check(f"relocate {prog} seed {seed} decode cy/task",
                       new_rows[seed]["decode_cy"], cell["decode_cy"],
                       higher_is_better=False, advisory=True)

    # Capture metadata: the pinned minimum-safe OVT bound must not
    # drift silently between baseline and fresh (re-pinning the bound
    # is a deliberate act that re-baselines both).
    base_bound = base.get("ovt_min_safe_slots_per_slice")
    new_bound = new.get("ovt_min_safe_slots_per_slice")
    if base_bound is not None and base_bound != new_bound:
        gate.failures.append(
            f"ovt_min_safe_slots_per_slice: fresh {new_bound} != "
            f"baseline {base_bound}")

    # Acceptance shape, re-checked on the recorded numbers: a spread
    # floorplan costs decode throughput, batching recovers part of
    # it, and the real ordered-admission protocol is never cheaper
    # than its zero-cost oracle at the multi-pipeline point.
    sweep = new["sweep"]
    try:
        adjacent = sweep["ring/adjacent/solo"]["decode_cy"]
        spread = sweep["ring/spread/solo"]["decode_cy"]
        spread_b = sweep["ring/spread/batch"]["decode_cy"]
        if not spread > adjacent:
            gate.failures.append(
                f"shape: spread ({spread}) did not degrade decode "
                f"vs adjacent ({adjacent})")
        if not spread_b < spread:
            gate.failures.append(
                f"shape: batching ({spread_b}) did not recover "
                f"decode vs spread ({spread})")
        multi = max(new["ticket"], key=int)
        real = new["ticket"][multi]["decode_real_cy"]
        ideal = new["ticket"][multi]["decode_ideal_cy"]
        if not real >= ideal:
            gate.failures.append(
                f"shape: ordered admission ({real}) beat its "
                f"zero-cost oracle ({ideal}) at {multi}p")
    except KeyError as missing:
        gate.failures.append(f"shape: cell {missing} missing")
    except ValueError:
        # max() over an empty ticket section: the CSV drifted and
        # parse_fig17_csv found no wide ticket rows at all.
        gate.failures.append("shape: ticket section empty")


def compare_sim(baseline, fresh, gate):
    """The parallel engine's gate: simulated semantics exactly,
    throughput advisory."""
    base_det = baseline.get("determinism", {})
    new_det = fresh.get("determinism", {})
    if not base_det:
        gate.failures.append("sim baseline has no determinism section")
    for key, value in base_det.items():
        if key not in new_det:
            gate.failures.append(f"sim determinism {key} missing")
        elif new_det[key] != value:
            # Zero tolerance: these are simulated quantities; any
            # drift means the engine's semantics changed.
            gate.failures.append(
                f"sim determinism {key}: fresh {new_det[key]} != "
                f"baseline {value}")

    # Window/fusion counters are pure functions of simulated state
    # (SimEngine::WindowStats): gated exactly, like determinism.
    # Baselines captured before the counters existed skip the gate.
    base_win = baseline.get("windows", {})
    new_win = fresh.get("windows", {})
    for key, value in base_win.items():
        if key not in new_win:
            gate.failures.append(f"sim windows {key} missing")
        elif new_win[key] != value:
            gate.failures.append(
                f"sim windows {key}: fresh {new_win[key]} != "
                f"baseline {value}")

    fresh_rows = fresh.get("sim_scaling", [])
    if not fresh_rows:
        gate.failures.append("sim fresh has no sim_scaling rows")
    for row in fresh_rows:
        if not row.get("bit_identical", False):
            gate.failures.append(
                f"sim_scaling {row.get('sim_threads')}t not "
                "bit-identical to sequential")

    base_rows = {r["sim_threads"]: r
                 for r in baseline.get("sim_scaling", [])}
    for row in fresh_rows:
        base_row = base_rows.get(row["sim_threads"])
        if base_row is None:
            continue
        gate.check(f"sim {row['sim_threads']}t events/sec",
                   row["events_per_sec"], base_row["events_per_sec"],
                   higher_is_better=True, advisory=True)
        gate.check(f"sim {row['sim_threads']}t speedup",
                   row["speedup"], base_row["speedup"],
                   higher_is_better=True, advisory=True)


def compare_serve(baseline, fresh, gate):
    """The trace service's gate: the closed-loop (simulated) section
    exactly, the open-loop (wall) section advisory except that
    backpressure must have engaged."""
    base_tenants = {t["name"]: t
                    for t in baseline.get("closed_loop", {})
                    .get("tenants", [])}
    new_tenants = {t["name"]: t
                   for t in fresh.get("closed_loop", {})
                   .get("tenants", [])}
    if not base_tenants:
        gate.failures.append("serve baseline has no closed_loop "
                             "tenants")
    for name, base_t in base_tenants.items():
        new_t = new_tenants.get(name)
        if new_t is None:
            gate.failures.append(f"serve tenant {name} missing")
            continue
        # Zero tolerance: simulated quantities, byte-identical by
        # construction; any drift means service semantics changed.
        for key in ("completed", "simulated_tasks", "carve_base"):
            if new_t.get(key) != base_t.get(key):
                gate.failures.append(
                    f"serve {name} {key}: fresh {new_t.get(key)} != "
                    f"baseline {base_t.get(key)}")
        base_pct = base_t.get("sim_makespan_cycles", {})
        new_pct = new_t.get("sim_makespan_cycles", {})
        for key, value in base_pct.items():
            if new_pct.get(key) != value:
                gate.failures.append(
                    f"serve {name} sim_makespan {key}: fresh "
                    f"{new_pct.get(key)} != baseline {value}")

    open_loop = fresh.get("open_loop", {})
    if not open_loop.get("busy_rejections", 0) > 0:
        gate.failures.append(
            "serve open loop recorded no busy_rejections — "
            "backpressure did not engage")
    base_open = baseline.get("open_loop", {})
    if base_open.get("tasks_per_sec") and open_loop.get(
            "tasks_per_sec") is not None:
        gate.check("serve open-loop tasks/sec",
                   open_loop["tasks_per_sec"],
                   base_open["tasks_per_sec"],
                   higher_is_better=True, advisory=True)
    base_p95 = base_open.get("wall_latency_seconds", {}).get("p95")
    new_p95 = open_loop.get("wall_latency_seconds", {}).get("p95")
    if base_p95 and new_p95 is not None:
        gate.check("serve open-loop wall p95", new_p95, base_p95,
                   higher_is_better=False, advisory=True)


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


def check_trace(path, schema_path, diff_path=None):
    """The ``trace`` subcommand: schema-validate @p path and, with
    --diff, require the two trace files to be byte-identical (the
    cross---sim-threads determinism gate)."""
    errors = validate_trace(path, schema_path)
    for err in errors:
        print(f"  [FAIL] {path}: {err}")
    if diff_path is not None:
        with open(path, "rb") as f:
            a = f.read()
        with open(diff_path, "rb") as f:
            b = f.read()
        if a != b:
            print(f"  [FAIL] {path} and {diff_path} differ "
                  f"({len(a)} vs {len(b)} bytes)")
            errors.append("trace byte-diff")
        else:
            print(f"trace determinism ok: {path} == {diff_path} "
                  f"({len(a)} bytes)")
    return 1 if errors else 0


def flatten(value, prefix=""):
    """Nested dict -> {"a/b/c": leaf} for readable exact diffs."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, child in value.items():
        path = f"{prefix}/{key}" if prefix else str(key)
        out.update(flatten(child, path))
    return out


def check_determinism(path_a, path_b):
    """Exact (zero-tolerance) diff of two noc captures' fig17_quick
    sections; every simulated metric must be byte-identical."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
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


def selftest():
    """Exercise the gate logic on synthetic fixtures; exits non-zero
    if the gate itself has regressed (run by CI before any real
    comparison, so a broken gate cannot silently pass everything)."""
    import copy
    import tempfile

    checks = []

    def expect(name, cond):
        checks.append((name, cond))
        print(f"  [{'ok' if cond else 'FAIL'}] {name}")

    # Gate math: a regression past tolerance fails, within passes.
    g = Gate(0.10)
    g.check("worse-lower", 0.8, 1.0, higher_is_better=True)
    expect("lower-is-worse flagged", g.failures == ["worse-lower"])
    g = Gate(0.10)
    g.check("ok-lower", 0.95, 1.0, higher_is_better=True)
    g.check("ok-higher", 1.05, 1.0, higher_is_better=False)
    expect("within-tolerance passes", g.failures == [])
    g = Gate(0.10)
    g.check("advisory", 0.1, 1.0, higher_is_better=True,
            advisory=True)
    expect("advisory never fails", g.failures == [])

    # Fingerprint: gated files without provenance hard-fail.
    fingerprinted = {"machine": machine_fingerprint()}
    g = Gate(0.10)
    check_fingerprint(fingerprinted, "base", g)
    expect("full fingerprint accepted", g.failures == [])
    for bad in ({}, {"machine": "x86_64"},
                {"machine": {"hardware_concurrency": 1}}):
        g = Gate(0.10)
        check_fingerprint(bad, "base", g)
        expect(f"fingerprint {bad!r} rejected", g.failures != [])

    # The sim gate: determinism drift and a non-bit-identical row
    # each hard-fail; a clean fresh run passes with rows advisory.
    sim = {
        "machine": machine_fingerprint(),
        "determinism": {"makespan": 1000, "events": 2000,
                        "messages": 300},
        "windows": {"windows": 500, "single_shard": 400, "fused": 350,
                    "multi_shard": 90, "occupancy_sum": 600,
                    "max_occupancy": 3},
        "sim_scaling": [
            {"sim_threads": 1, "wall_seconds": 1.0,
             "events_per_sec": 2000.0, "speedup": 1.0,
             "bit_identical": True},
            {"sim_threads": 2, "wall_seconds": 0.6,
             "events_per_sec": 3333.3, "speedup": 1.66,
             "bit_identical": True},
        ],
    }
    g = Gate(0.10)
    compare_sim(sim, copy.deepcopy(sim), g)
    expect("clean sim compare passes", g.failures == [])
    drifted = copy.deepcopy(sim)
    drifted["determinism"]["makespan"] = 1001
    g = Gate(0.10)
    compare_sim(sim, drifted, g)
    expect("sim determinism drift fails", g.failures != [])
    fused_drift = copy.deepcopy(sim)
    fused_drift["windows"]["fused"] = 351
    g = Gate(0.10)
    compare_sim(sim, fused_drift, g)
    expect("sim window-counter drift fails", g.failures != [])
    no_windows = copy.deepcopy(sim)
    del no_windows["windows"]
    g = Gate(0.10)
    compare_sim(sim, no_windows, g)
    expect("sim missing windows section fails", g.failures != [])
    diverged = copy.deepcopy(sim)
    diverged["sim_scaling"][1]["bit_identical"] = False
    g = Gate(0.10)
    compare_sim(sim, diverged, g)
    expect("non-bit-identical sim row fails", g.failures != [])
    slow = copy.deepcopy(sim)
    slow["sim_scaling"][1]["events_per_sec"] = 10.0
    g = Gate(0.10)
    compare_sim(sim, slow, g)
    expect("sim throughput drop stays advisory", g.failures == [])

    # The serve gate: closed-loop drift hard-fails, wall numbers stay
    # advisory, and a fresh run without Busy rejections hard-fails.
    serve = {
        "machine": machine_fingerprint(),
        "closed_loop": {"tenants": [
            {"name": "tenant0", "completed": 8,
             "simulated_tasks": 1360, "carve_base": 268435456,
             "sim_makespan_cycles": {"count": 8, "p50": 35311.0,
                                     "p95": 104659.0,
                                     "p99": 104659.0,
                                     "max": 104659.0}},
        ]},
        "open_loop": {"fired": 128, "accepted": 3,
                      "busy_rejections": 125, "wall_seconds": 0.04,
                      "tasks_per_sec": 43000.0,
                      "wall_latency_seconds": {"count": 3,
                                               "p50": 0.02,
                                               "p95": 0.03,
                                               "p99": 0.03,
                                               "max": 0.03}},
    }
    g = Gate(0.10)
    compare_serve(serve, copy.deepcopy(serve), g)
    expect("clean serve compare passes", g.failures == [])
    drifted_serve = copy.deepcopy(serve)
    drifted_serve["closed_loop"]["tenants"][0][
        "sim_makespan_cycles"]["p95"] = 104660.0
    g = Gate(0.10)
    compare_serve(serve, drifted_serve, g)
    expect("serve sim-percentile drift fails", g.failures != [])
    no_busy = copy.deepcopy(serve)
    no_busy["open_loop"]["busy_rejections"] = 0
    g = Gate(0.10)
    compare_serve(serve, no_busy, g)
    expect("serve without backpressure fails", g.failures != [])
    slow_serve = copy.deepcopy(serve)
    slow_serve["open_loop"]["tasks_per_sec"] = 1.0
    slow_serve["open_loop"]["wall_latency_seconds"]["p95"] = 9.9
    g = Gate(0.10)
    compare_serve(serve, slow_serve, g)
    expect("serve wall slowdown stays advisory", g.failures == [])

    # The pinned minimum-safe OVT bound: the constant the OvtCapacity
    # tests assert (tests/ovt_bound.hh) and the metadata the noc
    # baseline carries (BENCH_noc.json) must agree — a re-pin that
    # touches one but not the other is exactly the silent drift this
    # gate exists to catch.
    import re
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bound_header = os.path.join(repo, "tests", "ovt_bound.hh")
    noc_baseline = os.path.join(repo, "BENCH_noc.json")
    try:
        with open(bound_header) as f:
            match = re.search(r"kMinSafeOvtSlotsPerSlice\s*=\s*(\d+)",
                              f.read())
        with open(noc_baseline) as f:
            recorded = json.load(f)["fig17_quick"].get(
                "ovt_min_safe_slots_per_slice")
        expect("pinned OVT bound consistent "
               f"(header {match and match.group(1)}, "
               f"baseline {recorded})",
               match is not None and recorded == int(match.group(1)))
    except (OSError, KeyError, json.JSONDecodeError) as err:
        expect(f"pinned OVT bound readable ({err})", False)

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
            repo_dir = os.path.dirname(os.path.abspath(__file__))
            return validate_trace(
                path, os.path.join(repo_dir, "trace_schema.json"))

    expect("good trace validates",
           trace_errors(trace_text(good_events)) == [])
    bad_phase = copy.deepcopy(good_events)
    bad_phase[1]["ph"] = "Z"
    expect("unknown phase rejected",
           trace_errors(trace_text(bad_phase)) != [])
    bad_cat = copy.deepcopy(good_events)
    bad_cat[1]["cat"] = "mystery"
    expect("unknown category rejected",
           trace_errors(trace_text(bad_cat)) != [])
    float_ts = copy.deepcopy(good_events)
    float_ts[1]["ts"] = 10.5
    expect("float timestamp rejected",
           trace_errors(trace_text(float_ts)) != [])
    missing = copy.deepcopy(good_events)
    del missing[1]["dur"]
    expect("missing required field rejected",
           trace_errors(trace_text(missing)) != [])
    no_bp = copy.deepcopy(good_events)
    del no_bp[3]["bp"]
    expect("flow end without bp rejected",
           trace_errors(trace_text(no_bp)) != [])
    expect("truncated document rejected",
           trace_errors(trace_text(good_events)[:-3]) != [])

    # Exact determinism diff on noc captures.
    run = {"machine": machine_fingerprint(),
           "fig17_quick": {"sweep": {"ring/adjacent/solo":
                                     {"decode_cy": 10.5}}}}
    changed = copy.deepcopy(run)
    changed["fig17_quick"]["sweep"]["ring/adjacent/solo"][
        "decode_cy"] = 10.6
    with tempfile.TemporaryDirectory() as tmp:
        a, b, c = (os.path.join(tmp, n) for n in ("a", "b", "c"))
        for path, data in ((a, run), (b, run), (c, changed)):
            with open(path, "w") as f:
                json.dump(data, f)
        expect("identical captures deterministic",
               check_determinism(a, b) == 0)
        expect("changed cell detected",
               check_determinism(a, c) == 1)

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

    for name in ("capture-kernel", "capture-parallel", "capture-noc",
                 "capture-sim", "capture-serve"):
        p = sub.add_parser(name)
        p.add_argument("--bench", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--arg", action="append", default=[],
                       help="extra argument passed to the bench "
                            "(repeatable), e.g. --arg=--sim-threads=4")

    p = sub.add_parser("compare")
    p.add_argument("--kind",
                   choices=("kernel", "parallel", "noc", "sim",
                            "serve"),
                   required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--fresh", required=True)
    p.add_argument("--tolerance", type=float, default=0.15)

    p = sub.add_parser("determinism")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("trace")
    p.add_argument("--file", required=True,
                   help="Chrome trace JSON to schema-validate")
    p.add_argument("--schema",
                   default=os.path.join(
                       os.path.dirname(os.path.abspath(__file__)),
                       "trace_schema.json"))
    p.add_argument("--diff", default=None,
                   help="second trace that must be byte-identical "
                        "(e.g. the same run at another --sim-threads)")

    sub.add_parser("selftest")

    args = parser.parse_args()
    if args.cmd == "selftest":
        return selftest()
    if args.cmd == "determinism":
        return check_determinism(args.a, args.b)
    if args.cmd == "trace":
        return check_trace(args.file, args.schema, args.diff)
    if args.cmd == "capture-kernel":
        capture_kernel(args.bench, args.out, args.arg)
        return 0
    if args.cmd == "capture-parallel":
        capture_parallel(args.bench, args.out, args.arg)
        return 0
    if args.cmd == "capture-noc":
        capture_noc(args.bench, args.out, args.arg)
        return 0
    if args.cmd == "capture-sim":
        capture_sim(args.bench, args.out, args.arg)
        return 0
    if args.cmd == "capture-serve":
        capture_serve(args.bench, args.out, args.arg)
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)
    gate = Gate(args.tolerance)
    print(f"comparing {args.kind} against {args.baseline} "
          f"(tolerance +/-{gate.tolerance:.0%})")
    check_fingerprint(baseline, f"baseline {args.baseline}", gate)
    check_fingerprint(fresh, f"fresh {args.fresh}", gate)
    if args.kind == "kernel":
        compare_kernel(baseline, fresh, gate)
    elif args.kind == "noc":
        compare_noc(baseline, fresh, gate)
    elif args.kind == "sim":
        compare_sim(baseline, fresh, gate)
    elif args.kind == "serve":
        compare_serve(baseline, fresh, gate)
    else:
        compare_parallel(baseline, fresh, gate)
    if gate.failures:
        print(f"{len(gate.failures)} regression(s): "
              + "; ".join(gate.failures))
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
