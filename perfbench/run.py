#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads (README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench_run (CMake, into .bench_build/perfbench of the checkout),
then runs one workload as a series of repetitions, one process each:

  --trace 0  timed repetitions -> end-to-end metrics
  --trace 1  untraced repetitions (counters, CPU) and traced repetitions
             (stage spans, storage/wire replays) -> per-layer metrics
  both       a checked repetition through workload::run_experiment() with
             the exactness/causal checker on

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
Lines before it are a human-readable summary (sample counts, failed ratio,
hardware fingerprint).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "perfbench_run")
REP_TIMEOUT_S = 150

# Per-workload repetition plan. The measured seconds are split evenly over
# `reps` repetitions; each repetition first runs `warmup_ms` of load. The
# simulator measures simulated time: `sim_ms_per_s` simulated ms per second
# of --seconds, per repetition. `check_ms` is the checked run's measured
# window; None reuses one timed repetition's window so the open-loop
# schedule, and with it the workload digest, is identical.
PLAN = {
    "read_heavy": {"warmup_ms": 300, "reps": 12, "check_ms": 700},
    "write_heavy_wan": {"warmup_ms": 500, "reps": 6, "check_ms": None},
    "sockets_reliable": {"warmup_ms": 400, "reps": 8, "check_ms": None},
    "sim_paper": {"warmup_ms": 500, "reps": 6, "check_ms": 300, "sim_ms_per_s": 60},
}
IN_PROCESS = ("read_heavy", "write_heavy_wan", "sim_paper")
OPEN_LOOP = ("write_heavy_wan", "sockets_reliable")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


# --------------------------------------------------------------------------
# Build and fingerprint


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources next to perfbench/ (expected CMakeLists.txt and src/)")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_run"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    commit = "unavailable"
    try:
        # Never look for a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Content digest of what gets built: identifies the code when the
    # checkout is not a git repository.
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return {"cores": os.cpu_count(), "cpu_model": model, "kernel": platform.release(),
            "build_type": build_type, "git_commit": commit,
            "source_sha256": h.hexdigest()[:16]}


# --------------------------------------------------------------------------
# Repetitions


def run_rep(workload, seed, mode, warmup_ms, measure_ms, run_dir):
    os.makedirs(run_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--warmup-ms", str(warmup_ms),
           "--measure-ms", str(measure_ms), "--mode", mode, "--run-dir", run_dir]
    with open(os.path.join(run_dir, "stderr.log"), "w") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                             start_new_session=True, cwd=ROOT)
        try:
            out, _ = p.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            fail("%s %s repetition timed out (see %s)" % (workload, mode, run_dir))
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if p.returncode != 0 or not lines:
        fail("%s %s repetition failed with code %d (see %s)" %
             (workload, mode, p.returncode, run_dir))
    rep = json.loads(lines[-1])
    rep["measure_ms"] = measure_ms
    if rep.get("children"):
        merge_socket_children(rep)
    return rep


def merge_socket_children(rep):
    """Folds the socket children's own reports into the launcher's."""
    kids = []
    for r in range(int(rep["children"])):
        path = os.path.join(rep["sockets_dir"], "result-%d.bin.perf.json" % r)
        if not os.path.isfile(path):
            continue  # checked runs use the program's own child path
        with open(path) as f:
            kids.append(json.loads(f.readline()))
    if not kids:
        return
    rep["parent_rss_kb"] = rep["rss_kb"]
    rep["rss_kb"] = rep["rss_kb"] + sum(k["rss_kb"] for k in kids)
    rep["load_wall_s"] = max(k["load_wall_s"] for k in kids)
    rep["window_s"] = statistics.median(k["window_s"] for k in kids)
    rep["mesh_join_ms"] = max(k["mesh_join_ms"] for k in kids)
    for key in ("started", "committed_total", "lost", "cpu_user_us", "cpu_sys_us", "minflt",
                "ctx_switches", "workers", "worker_cpu_ns", "pump_cpu_ns", "events_window",
                "events_total", "bytes_sent", "keys_read", "local_hits", "slices_served",
                "cohort_prepares", "txs_coordinated", "gossip_msgs", "rel_frames", "rel_acks",
                "rel_retransmits", "rel_coalesced", "sock_frames", "sock_frames_out",
                "sock_bytes", "sock_syscalls", "sock_flushes", "sock_backpressure_stalls"):
        rep[key] = sum(k[key] for k in kids)
    rep["cache_entries_max"] = max(k["cache_entries_max"] for k in kids)
    # The children's windows start together; slice k is summed over them.
    for key in ("slice_cpu_us", "slice_commits"):
        rep[key] = [sum(v) for v in zip(*(k[key] for k in kids))]
    rep["slice_s"] = [statistics.mean(v) for v in zip(*(k["slice_s"] for k in kids))]
    rep["vis_decided"] = [v for k in kids for v in k["vis_decided"]]
    rep["vis_visible"] = [v for k in kids for v in k["vis_visible"]]
    rep["win_begin_ns"] = min(k["win_begin_ns"] for k in kids)
    rep["win_end_ns"] = max(k["win_end_ns"] for k in kids)


def visibility_ms(rep):
    """Decided-at-coordinator -> visible-at-replica samples (ms) of the
    sampled transactions decided inside the window, joined on TxId across
    every process of the run."""
    dec = rep["vis_decided"]
    decided = {}
    for i in range(0, len(dec), 2):
        if rep["win_begin_ns"] <= dec[i + 1] < rep["win_end_ns"]:
            decided[dec[i]] = dec[i + 1]
    vis = rep["vis_visible"]
    out = []
    for i in range(0, len(vis), 2):
        t0 = decided.get(vis[i])
        if t0 is not None:
            out.append(max(0.0, vis[i + 1] - t0) / 1e6)
    return out


def ratio(a, b):
    return a / b if b else 0.0


def med(values):
    return statistics.median(values) if values else 0.0


def setup_s(rep):
    return rep["total_wall_s"] - rep["load_wall_s"]


def sim_signature(rep):
    keys = ("window_commits", "lat_p50_us", "lat_p99_us", "lat_samples", "committed_total",
            "events_total", "slices_served", "gossip_msgs", "bytes_sent")
    return tuple(rep[k] for k in keys) + (len(rep["vis_visible"]),)


# --------------------------------------------------------------------------
# Metrics


def better_quartile(values, better="lower"):
    """The quartile of `values` on the better side: the lower quartile of a
    cost, the upper quartile of a throughput."""
    if len(values) < 2:
        return values[0] if values else 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0] if better == "lower" else q[2]


def end_to_end(workload, reps):
    """End-to-end metrics from the per-repetition values, and for CPU and
    wall-clock throughput from the window's slices (kSlices per repetition,
    each 60-170 ms). The machine's speed drifts by tens of percent from one
    tenth of a second to the next on shared hardware, and the better-side
    quartile over many short slices follows the program's own cost more
    steadily than the median does, while a quarter of them must still reach
    it."""
    sim = workload == "sim_paper"

    def per_rep(f, better="lower"):
        return better_quartile([f(r) for r in reps], better)

    def per_slice(f, better="lower"):
        return better_quartile([f(s, c, n) for r in reps
                                for s, c, n in zip(r["slice_s"], r["slice_cpu_us"],
                                                   r["slice_commits"]) if n > 0], better)

    def vis(r):
        v = visibility_ms(r)
        return statistics.median(v) if v else 0.0

    # The closed loop's throughput is the machine's speed, taken per slice;
    # an open loop's is its arrival rate and the simulator's one number per
    # seed, both taken over the whole window.
    if sim:
        tx_s = per_rep(lambda r: ratio(r["window_commits"], r["sim_window_s"]), "higher")
    elif workload in OPEN_LOOP:
        tx_s = per_rep(lambda r: ratio(r["window_commits"], r["window_s"]), "higher")
    else:
        tx_s = per_slice(lambda s, c, n: n / s, "higher")

    return {
        "tx_s": (tx_s, "1/s"),
        "lat_p50_ms": (per_rep(lambda r: r["lat_p50_us"] / 1e3), "ms"),
        # Printed in the summary and reported with the per-layer metrics, not
        # gated: with a busy neighbour on the host, the tail is the threads'
        # wake-up delay (two CPU hogs moved sockets_reliable's p99 from 0.45
        # to 0.8-4.8 ms and its p50 by 6%).
        "lat_p99_ms": (per_rep(lambda r: r["lat_p99_us"] / 1e3), "ms"),
        "visibility_p50_ms": (per_rep(vis), "ms"),
        "cpu_us_per_tx": (per_slice(lambda s, c, n: c / n), "us"),
        "rss_mb": (per_rep(lambda r: r["rss_kb"] / 1024.0), "MB"),
        "setup_s": (per_rep(setup_s), "s"),
    }


def counters(workload, reps):
    """Per-layer metrics from counters and thread CPU (untraced runs)."""
    s = lambda k: float(sum(r[k] for r in reps))
    commits = s("window_commits")
    total = s("committed_total")
    threads = workload != "sim_paper"
    sockets = workload == "sockets_reliable"
    window_ns = sum(r["window_s"] * r["workers"] for r in reps) * 1e9
    cpu = s("cpu_user_us") + s("cpu_sys_us")
    m = {
        "workload.overdue_ratio": ratio(s("overdue"), commits),
        "workload.max_backlog": max(r["max_backlog"] for r in reps),
        "proto.client.local_hit_ratio": ratio(s("local_hits"), s("keys_read")),
        "proto.client.cache_entries_max": max(r["cache_entries_max"] for r in reps),
        "proto.server.slices_per_tx": ratio(s("slices_served"), total),
        "proto.server.prepares_per_update_tx": ratio(s("cohort_prepares"), s("txs_coordinated")),
        "proto.ust.gossip_msgs_per_tx": ratio(s("gossip_msgs"), total),
        "wire.bytes_per_tx": ratio(s("bytes_sent"), total),
        "runtime.threads.events_per_tx": ratio(s("events_total"), total) if threads else 0.0,
        "runtime.threads.worker_busy_ratio": ratio(s("worker_cpu_ns"), window_ns),
        "runtime.threads.ctx_switches_per_tx": ratio(s("ctx_switches"), commits) if threads else 0.0,
        "runtime.reliable.frames_per_tx": ratio(s("rel_frames"), total),
        "runtime.reliable.acks_per_frame": ratio(s("rel_acks"), s("rel_frames")),
        "runtime.reliable.retransmits_per_frame": ratio(s("rel_retransmits"), s("rel_frames")),
        "runtime.reliable.coalesced_per_frame": ratio(s("rel_coalesced"), s("rel_frames")),
        "runtime.socket.syscalls_per_frame": ratio(s("sock_syscalls"), s("sock_frames")),
        "runtime.socket.bytes_per_syscall": ratio(s("sock_bytes"), s("sock_syscalls")),
        "runtime.socket.frames_per_flush": ratio(s("sock_frames_out"), s("sock_flushes")),
        "runtime.socket.pump_cpu_us_per_tx": ratio(s("pump_cpu_ns") / 1e3, commits),
        "runtime.socket.worker_cpu_us_per_tx":
            ratio(s("worker_cpu_ns") / 1e3, commits) if sockets else 0.0,
        "runtime.socket.backpressure_stalls": s("sock_backpressure_stalls"),
        "runtime.socket.mesh_join_ms": med([r["mesh_join_ms"] for r in reps]) if sockets else 0.0,
        "sim.events_per_tx": 0.0 if threads else ratio(s("events_total"), total),
        "sim.ns_per_event": 0.0 if threads else ratio(s("window_s") * 1e9, s("events_window")),
        "kernel.sys_cpu_share": ratio(s("cpu_sys_us"), cpu),
        "kernel.minor_faults_per_tx": ratio(s("minflt"), commits),
    }
    return m


TRACED = {
    "proto.client.start_us_p50": "client_start_us_p50",
    "proto.client.read_us_p50": "client_read_us_p50",
    "proto.client.read_us_p99": "client_read_us_p99",
    "proto.client.commit_us_p50": "client_commit_us_p50",
    "proto.server.read_wait_us_p50": "server_read_wait_us_p50",
    "proto.server.decide_us_p50": "server_decide_us_p50",
    "proto.server.apply_lag_ms_p50": "server_apply_lag_ms_p50",
    "proto.ust.visible_after_apply_ms_p50": "ust_visible_after_apply_ms_p50",
    "proto.ust.snapshot_age_ms_p50": "ust_snapshot_age_ms_p50",
    "proto.ust.advance_interval_ms_p50": "ust_advance_interval_ms_p50",
    "storage.read_ns_per_key": "storage_read_ns_per_key",
    "storage.apply_ns_per_write": "storage_apply_ns_per_write",
    "storage.gc_ns_per_version": "storage_gc_ns_per_version",
    "storage.versions_per_key": "storage_versions_per_key",
    "wire.encode_ns_per_msg": "wire_encode_ns_per_msg",
    "wire.decode_ns_per_msg": "wire_decode_ns_per_msg",
}


def traced_metrics(traced, untraced, workload):
    m = {name: (med([r[key] for r in traced]) if traced else 0.0) for name, key in TRACED.items()}
    if traced:
        base = end_to_end(workload, untraced)["cpu_us_per_tx"][0]
        m["trace.overhead_ratio"] = ratio(end_to_end(workload, traced)["cpu_us_per_tx"][0], base)
    else:
        m["trace.overhead_ratio"] = 0.0
    return m


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --------------------------------------------------------------------------
# One workload


def run_workload(workload, seed, seconds, trace, out):
    plan = PLAN[workload]
    run_root = os.path.join(RUNS, "%s-s%d-t%d" % (workload, seed, trace))
    sim = workload == "sim_paper"
    reps = plan["reps"]
    if sim:
        measure_ms = max(50, int(seconds * plan["sim_ms_per_s"]))
    else:
        measure_ms = max(200, int(seconds * 1000 / reps))
    warmup = plan["warmup_ms"]
    problems = []

    def series(mode, n, ms):
        return [run_rep(workload, seed, mode, warmup, ms,
                        os.path.join(run_root, "%s-%d" % (mode, i))) for i in range(n)]

    traced = []
    if trace and workload in IN_PROCESS:
        # The measured time is split between untraced and traced repetitions
        # of the same length; their CPU per transaction gives the overhead.
        untraced = max(1, reps // 2)
        timed = series("timed", untraced, measure_ms)
        traced = series("traced", max(1, reps - untraced), measure_ms)
    else:
        timed = series("timed", reps, measure_ms)
    check_ms = plan["check_ms"] or measure_ms
    checked = run_rep(workload, seed, "checked", warmup, check_ms,
                      os.path.join(run_root, "checked"))

    # --- correctness ---
    if checked["violations"]:
        problems.append("checker: %d violations, first: %s" %
                        (checked["violations"], checked["first_violation"]))
    if any(r.get("violations") for r in timed):
        problems.append("a socket child failed in a timed repetition")
    if PLAN[workload]["check_ms"] is None:
        digests = {(r["digest_hi"], r["digest_lo"]) for r in timed + traced + [checked]}
        if len(digests) != 1:
            problems.append("open-loop workload digests differ across runs: %s" % sorted(digests))
    if sim:
        sigs = {sim_signature(r) for r in timed + traced}
        if len(sigs) != 1:
            problems.append("simulated results differ across repeats of one seed")
    for r in traced:
        if r["tiling_untiled_ratio"] > 0.01:
            problems.append("stage spans do not tile %.2f%% of transactions" %
                            (100 * r["tiling_untiled_ratio"]))
        if not r["replay_codec_ok"]:
            problems.append("a replayed message did not re-encode to the same bytes")
        if min(r["replay_reads"], r["replay_writes"], r["replay_txs"]) <= 0:
            problems.append("a layer replay ran on empty input")
    if sum(r["window_commits"] for r in timed) <= 0:
        problems.append("nothing committed")

    attempted = int(sum(r["started"] for r in timed + traced) + checked["window_commits"])
    failed = int(sum(r["lost"] for r in timed + traced) + checked["violations"])

    e2e = end_to_end(workload, timed)
    e2e_units, layer_units = load_units()
    metrics = {}
    if trace:
        layer = counters(workload, timed)
        layer["lat_p99_ms"] = e2e["lat_p99_ms"][0]
        layer.update(traced_metrics(traced, timed, workload))
        for name, unit in layer_units.items():
            metrics[name] = {"value": layer.get(name, 0.0), "unit": unit}
    else:
        for name, unit in e2e_units.items():
            if e2e[name][1] != unit:
                problems.append("unit of %s is %s, BENCHMARK.json says %s" %
                                (name, e2e[name][1], unit))
            metrics[name] = {"value": e2e[name][0], "unit": unit}
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)

    # --- human-readable summary ---
    lat_n = int(sum(r["lat_samples"] for r in timed))
    vis_n = sum(len(visibility_ms(r)) for r in timed)
    print("[%s] seed=%d seconds=%g trace=%d reps=%d+%d traced, window=%d ms%s" %
          (workload, seed, seconds, trace, len(timed), len(traced), measure_ms,
           " simulated" if sim else ""), file=out)
    if not trace:
        for name in e2e:
            extra = ""
            if name.startswith("lat_"):
                extra = "  (%d samples over %d repetitions)" % (lat_n, len(timed))
            elif name.startswith("visibility"):
                extra = "  (%d samples)" % vis_n
            print("  %-22s %14.4f %s%s" % (name, e2e[name][0], e2e[name][1], extra), file=out)
    else:
        for name in layer_units:
            print("  %-40s %14.4f %s" % (name, metrics[name]["value"], layer_units[name]),
                  file=out)
    print("  failed_ratio %.6f (%d of %d attempted; checker violations %d)" %
          (ratio(failed, attempted), failed, attempted, checked["violations"]), file=out)
    if PLAN[workload]["check_ms"] is None:
        print("  workload_digest %08x%08x" % (int(checked["digest_hi"]), int(checked["digest_lo"])),
              file=out)
    for p in problems:
        print("  PROBLEM: " + p, file=out)
    return {"correct": not problems, "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}


# --------------------------------------------------------------------------
# Self-test


def selftest():
    build()
    shutil.rmtree(RUNS, ignore_errors=True)
    e2e_units, layer_units = load_units()
    ok = True
    for w in PLAN:
        for trace in (0, 1):
            res = run_workload(w, 7, 2, trace, sys.stdout)
            names = layer_units if trace else e2e_units
            if not res["correct"]:
                print("FAIL %s trace=%d: correctness problems above" % (w, trace))
                ok = False
            for name, unit in names.items():
                m = res["metrics"].get(name)
                if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                    print("FAIL %s trace=%d: metric %s missing, non-finite or wrong unit" %
                          (w, trace, name))
                    ok = False
            if set(res["metrics"]) != set(names):
                print("FAIL %s trace=%d: unexpected metric set" % (w, trace))
                ok = False
    print("selftest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(PLAN) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    build()
    # Only the latest invocation's run directories (logs, spans) are kept.
    shutil.rmtree(RUNS, ignore_errors=True)
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, sys.stdout)
    else:
        res = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in PLAN:
            one = run_workload(w, args.seed, args.seconds, args.trace, sys.stdout)
            res["correct"] = res["correct"] and one["correct"]
            res["attempted"] += one["attempted"]
            res["failed"] += one["failed"]
            for name, m in one["metrics"].items():
                res["metrics"][w + "." + name] = m
    sys.stdout.flush()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
