#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tailormatch CLI.

    python3 perfbench/run.py --workload serve_fleet|dedup_100k|finetune_wdc
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
the CLI and the benchmark's own programs into .bench_build/ (see
perfbench/CMakeLists.txt); each run then sets up its workload from scratch in
.bench_work/<workload>/, drives the program the way users run it (the
`tailormatch fleet`, `dedup` and `finetune` commands as child processes),
checks the program's outputs, and prints one JSON line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, the same four on every workload.
--trace 1 runs every layer's measurements instead, whatever the workload
(perfbench_probe calls each layer's public functions and times them), writes
the spans of both processes as a Chrome trace to
.bench_work/<workload>/trace.json, checks it with tools/trace_lint and
reports every per-layer metric. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

T0 = time.monotonic()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD, "tailormatch", "tools", "tailormatch")
LINT = os.path.join(BUILD, "tailormatch", "tools", "trace_lint")
PROBE = os.path.join(BUILD, "perfbench_probe")
TARGETS = ["tailormatch_cli", "trace_lint", "perfbench_probe", "perfbench_selftest"]
NPROC = os.cpu_count() or 4

# Model and data shared by every workload: llama8b-sim fine-tuned on
# WDC-small at the paper's Table 1 sizes.
FAMILY = "llama8b"
BENCHMARK = "wdc-small"
TRAIN_THREADS = 4
FINETUNE_ENV = {"TM_SCALE": "1.0"}

# serve_fleet: 2 workers with the CLI's default batching flags. The load
# (connections, pipelining depth, open-loop rate and traffic mix) is fixed in
# perfbench/probe.cc.
FLEET_WORKERS = 2
WORKER_FLAGS = ["--max-batch", "8", "--max-wait-us", "200", "--queue-cap",
                "1024", "--cache-mb", "16", "--workers", "1"]
REFERENCE_RATE = 8000  # closed-loop pairs/s on the reference host (README)
PROBABILITY_TOLERANCE = 1e-6

# dedup_100k. The corpus seed is fixed: pair F1 ranges from 0.32 to 0.66
# across corpus seeds, more than any bound could hold (see README).
DEDUP_ENTITIES = 100_000
DEDUP_BUDGET = 0.1
DEDUP_THREADS = 4
DEDUP_CORPUS_SEED = 20260809
RECALL_FLOOR = 0.75
STAGE_SHARE_FLOOR = 0.5  # stage_ms must cover at least this share of wall

# dedup_100k and finetune_wdc: seconds one command takes on a quiet reference
# host; a run repeats it --seconds // this many times (see repetitions()).
DEDUP_COMMAND_S = 6
FINETUNE_COMMAND_S = 9

WORKLOADS = ("serve_fleet", "dedup_100k", "finetune_wdc")


def log(message):
    print(message, file=sys.stderr, flush=True)


class Failure(Exception):
    """A run that cannot produce a result."""


# ---- Trace ----

class Trace:
    """Spans recorded by this process, merged with the probe's at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self.stack = []
        self.count = 0

    def begin(self, name):
        self.count += 1
        span = {"name": name, "sid": f"run.{self.count}",
                "parent": self.stack[-1]["sid"] if self.stack else "",
                "start": time.monotonic_ns() / 1e3}
        self.stack.append(span)
        return span

    def end(self, span):
        self.stack.remove(span)
        if self.enabled:
            self.events.append({
                "name": span["name"], "cat": "perfbench", "ph": "X",
                "pid": os.getpid(), "tid": 1, "ts": round(span["start"], 3),
                "dur": round(time.monotonic_ns() / 1e3 - span["start"], 3),
                "sid": span["sid"], "parent": span["parent"]})

    @contextlib.contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def parent_id(self):
        return self.stack[-1]["sid"] if self.stack else ""

    def merge(self, path):
        if self.enabled and os.path.exists(path):
            with open(path) as f:
                self.events.extend(json.load(f))

    def write(self, path):
        with open(path, "w") as f:
            f.write('{"traceEvents":[')
            f.write(",\n".join(json.dumps(e, separators=(",", ":"))
                               for e in self.events))
            f.write("]}\n")


# ---- Build ----

def source_fingerprint():
    """Sizes and mtimes of every file the build reads."""
    entries = []
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            entries.append((top, os.path.getsize(path), os.path.getmtime(path)))
            continue
        for directory, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                full = os.path.join(directory, name)
                stat = os.stat(full)
                entries.append((os.path.relpath(full, ROOT), stat.st_size,
                                stat.st_mtime))
    return json.dumps(entries)


def build():
    """Builds into .bench_build unless the sources are unchanged since the
    last successful build. Returns the seconds spent."""
    start = time.monotonic()
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Failure(f"no source tree here: {needed} is missing")
    stamp = os.path.join(BUILD, "perfbench.stamp")
    fingerprint = source_fingerprint()
    if os.path.exists(stamp) and open(stamp).read() == fingerprint:
        return time.monotonic() - start
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "perfbench_build.log")
    with open(build_log, "w") as out:
        steps = [
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DTAILORMATCH_BUILD_TESTS=OFF",
             "-DTAILORMATCH_BUILD_BENCHMARKS=OFF",
             "-DTAILORMATCH_BUILD_EXAMPLES=OFF"],
            ["cmake", "--build", BUILD, "-j", str(NPROC), "--target"] + TARGETS,
        ]
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise Failure("build failed; see " + build_log)
    with open(stamp, "w") as f:
        f.write(fingerprint)
    return time.monotonic() - start


# ---- Child processes ----

class Context:
    def __init__(self, workload, seed, seconds, trace):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(WORK_ROOT, workload)
        self.cache = os.path.join(self.work, "cache")
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.metrics = {}
        self.notes = []

    def env(self, extra=None):
        env = dict(os.environ)
        env["TM_CACHE_DIR"] = self.cache
        env.update(extra or {})
        return env

    def check(self, name, ok):
        self.checks[name] = bool(ok)
        if not ok:
            log(f"check failed: {name}")

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def run(self, argv, name, extra_env=None, timeout=170):
        """Runs a child to completion. Returns (exit code, wall seconds,
        user plus system CPU seconds of that child and its threads, its peak
        RSS in MB, its output)."""
        out_path = os.path.join(self.work, name + ".log")
        with open(out_path, "w") as out:
            start = time.monotonic()
            child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                     cwd=self.work, env=self.env(extra_env))
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            output = f.read()
        self.attempted += 1
        if child.returncode != 0:
            self.failed += 1
            log(f"{name} exited with {child.returncode}:\n{output[-2000:]}")
        return (child.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, output)

    def probe(self, mode, name, args, extra_env=None):
        """Runs a perfbench_probe mode; returns its JSON report."""
        out = os.path.join(self.work, name + ".json")
        spans = os.path.join(self.work, name + ".spans.json")
        argv = [PROBE, mode, "--out", out]
        if self.trace.enabled:
            argv += ["--spans", spans, "--span-parent", self.trace.parent_id()]
        argv += [str(a) for a in args]
        rc = self.run(argv, name, extra_env)[0]
        if rc != 0 or not os.path.exists(out):
            raise Failure(f"perfbench_probe {mode} failed")
        self.trace.merge(spans)
        with open(out) as f:
            return json.load(f)


def descendants(pid):
    """pid and every live descendant, from the parent field of
    /proc/<pid>/stat."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parent = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(parent, []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(children.get(current, []))
    return found


def cpu_seconds(pids):
    """User plus system CPU time of `pids`, from /proc/<pid>/stat. The kernel
    leaves out the time the hypervisor gave to other tenants (steal), which
    wall-clock figures on a shared host cannot."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids):
    """Largest VmHWM (peak resident set) among `pids`, in MB."""
    peak = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


class Server:
    """`tailormatch fleet` or `tailormatch serve` on an ephemeral loopback
    port, in its own process group so nothing it forks can outlive the run."""

    def __init__(self, ctx, name, argv, ready_pattern):
        self.log_path = os.path.join(ctx.work, name + ".log")
        self.log_file = open(self.log_path, "w")
        self.process = subprocess.Popen(
            argv, stdout=self.log_file, stderr=subprocess.STDOUT, cwd=ctx.work,
            env=ctx.env(), start_new_session=True)
        self.port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                match = re.search(ready_pattern, f.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise Failure(f"{name} did not start; see {self.log_path}")

    def request(self, line, timeout=30):
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout) as conn:
            conn.sendall((line + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        return json.loads(data.decode())

    def stop(self):
        """Graceful shutdown, then the whole process group if needed.
        Returns True when the server exited on its own with status 0."""
        clean = False
        if self.process.poll() is None and self.port is not None:
            try:
                self.request('{"op":"shutdown"}', timeout=10)
                clean = self.process.wait(timeout=20) == 0
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()
        # Wait for the forked workers too, which the group kill reached.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except OSError:
                break
            time.sleep(0.01)
        self.log_file.close()
        return clean


# ---- Set-up steps ----

def make_zero_shot(ctx):
    with ctx.trace.span("setup: tailormatch pretrain"):
        rc = ctx.run([CLI, "pretrain", "--family", FAMILY], "pretrain")[0]
    if rc != 0:
        raise Failure("pretrain failed")


FINETUNE_LINE = re.compile(
    r"zero-shot F1 ([0-9.]+) -> fine-tuned F1 ([0-9.]+)")


def finetune(ctx, out, name):
    """One `tailormatch finetune` from the cached zero-shot checkpoint."""
    rc, wall, cpu, rss, output = ctx.run(
        [CLI, "finetune", "--family", FAMILY, "--benchmark", BENCHMARK,
         "--train-threads", str(TRAIN_THREADS), "--out", out], name,
        FINETUNE_ENV)
    match = FINETUNE_LINE.search(output)
    if rc != 0 or not match or not os.path.exists(out):
        raise Failure(f"{name} failed")
    return wall, cpu, rss, match.group(1), match.group(2)


def make_fine_tuned(ctx):
    make_zero_shot(ctx)
    ckpt = os.path.join(ctx.work, "ft.ckpt")
    with ctx.trace.span("setup: tailormatch finetune"):
        finetune(ctx, ckpt, "setup_finetune")
    return ckpt


def start_fleet(ctx, ckpt):
    with ctx.trace.span("setup: tailormatch fleet boot"):
        return Server(ctx, "fleet",
                      [CLI, "fleet", "--model", ckpt, "--fleet-workers",
                       str(FLEET_WORKERS), "--port", "0"] + WORKER_FLAGS,
                      r"fleet front serving JSONL on 127\.0\.0\.1:(\d+)")


def loadgen_args(ctx, port, ckpt, closed_s, open_s):
    """The closed loop sends a fixed number of pairs, sized to last
    `closed_s` at the reference host's rate; the open loop sends a fixed
    number of requests, due over about `open_s`."""
    return ["--port", port, "--seed", ctx.seed, "--model", ckpt,
            "--closed", int(REFERENCE_RATE * closed_s), "--open-s", open_s]


def check_served(ctx, report):
    # `failed` counts the fixed pairs whose served probability differs from
    # the dynamic executor's in any of its 9 printed digits (the prefix-reuse
    # fault in CHANGES.md): the same pairs, sent in the same order to a fresh
    # server, so the same count in every run.
    ctx.attempted += int(report["attempted"])
    ctx.failed += int(report["failed"])
    ctx.check("serve: transport", report["transport_ok"])
    ctx.check("serve: responses in request order", report["in_order"])
    ctx.check("serve: match agrees with the Yes/No response",
              report["match_consistent"])
    ctx.check("serve: repeats answer like the first time",
              report["repeats_consistent"])
    ctx.notes.append(
        "serve: {} of {} fixed pairs differ from the dynamic executor's "
        "probability in its 9 printed digits (counted as failed)".format(
            int(report["exact_failed"]), int(report["exact_pairs"])))
    # A second, looser check on a seeded sample of the traffic's pairs,
    # whose digit-for-digit agreement depends on the seed and so cannot be
    # counted as failed operations: agreement to PROBABILITY_TOLERANCE.
    ctx.check("serve: sampled probabilities within {:g} of the dynamic "
              "executor's".format(PROBABILITY_TOLERANCE),
              report["sampled"] > 0 and
              report["sampled_max_abs_diff"] <= PROBABILITY_TOLERANCE)
    ctx.notes.append(
        "serve: {} of {} sampled probabilities equal the dynamic executor's "
        "to 9 digits; max difference {:.3g}".format(
            int(report["sampled_exact"]), int(report["sampled"]),
            report["sampled_max_abs_diff"]))


# ---- Workloads ----
#
# Untraced runs report the same end-to-end metrics on every workload:
# cpu_ms_per_op, f1, peak_rss_mb and setup_s. An operation is one request
# answered by the fleet (serve_fleet) or one `dedup` or `finetune` command.

def serve_fleet(ctx):
    ckpt = make_fine_tuned(ctx)
    fleet = start_fleet(ctx, ckpt)
    setup_done = time.monotonic()
    try:
        phase = ctx.seconds / 2
        fleet_pids = descendants(fleet.process.pid)
        cpu_before = cpu_seconds(fleet_pids)
        with ctx.trace.span("closed + open loop"):
            report = ctx.probe("loadgen", "loadgen",
                               loadgen_args(ctx, fleet.port, ckpt, phase, phase),
                               {"TM_INFER_EXECUTOR": "dynamic"})
        fleet_cpu_s = cpu_seconds(fleet_pids) - cpu_before
        check_served(ctx, report)
        ctx.metric("cpu_ms_per_op", fleet_cpu_s * 1e3 / report["attempted"],
                   "ms")
        ctx.metric("f1", report["served_f1"], "F1")
        # Wall-clock figures, printed but not reported as metrics: on the
        # shared reference host they spread far beyond any bound (README).
        ctx.notes.append(
            "serve: throughput {:.0f} pairs/s (best 0.5 s window of the "
            "closed loop); open loop p50 {:.3f} ms, p99 {:.3f} ms "
            "(medians over 1 s windows)".format(
                report["serve_throughput"], report["serve_p50_ms"],
                report["serve_p99_ms"]))
        ctx.notes.append(
            "serve: closed loop {:.0f} pairs in {:.1f}s; open loop {} "
            "requests ({} repeats), cache hits {:.1%}; "
            "generator lag p50 {:.3f} ms, p99 {:.3f} ms, max {:.3f} ms"
            .format(report["closed_completed"], report["closed_window_s"],
                    int(report["open_requests"]), int(report["open_repeats"]),
                    report["cache_hit_share"], report["generator_lag_p50_ms"],
                    report["generator_lag_p99_ms"],
                    report["generator_lag_max_ms"]))
        table = fleet.request('{"op":"fleet"}')
        ctx.check("serve: no worker restarted", table.get("restarts") == 0)
        ctx.metric("peak_rss_mb", peak_rss_mb(fleet_pids), "MB")
    finally:
        ctx.check("fleet shut down cleanly", fleet.stop())
    return setup_done


def dedup_argv(ckpt, out):
    return [CLI, "dedup", "--entities", str(DEDUP_ENTITIES),
            "--budget", str(DEDUP_BUDGET), "--threads", str(DEDUP_THREADS),
            "--seed", str(DEDUP_CORPUS_SEED), "--model", ckpt,
            "--json-out", out]


def dedup_once(ctx, ckpt, index):
    """One `tailormatch dedup` run and its checks; returns (wall s, CPU s,
    peak RSS MB, its --json-out report)."""
    out = os.path.join(ctx.work, f"dedup_{index}.json")
    rc, wall, cpu, rss, _ = ctx.run(dedup_argv(ckpt, out), f"dedup_{index}")
    if rc != 0 or not os.path.exists(out):
        raise Failure("dedup failed")
    with open(out) as f:
        report = json.load(f)
    ctx.check("dedup: escalated <= floor(budget x entities)",
              report["escalated"] <= int(DEDUP_BUDGET * DEDUP_ENTITIES))
    stages_s = sum(report["stage_ms"].values()) / 1e3
    ctx.check("dedup: stage_ms sum within the measured wall time",
              STAGE_SHARE_FLOOR * wall <= stages_s <= wall)
    return wall, cpu, rss, report


def repetitions(ctx, command_s):
    """How often dedup_100k and finetune_wdc run their command: a count
    fixed by --seconds (each command takes about `command_s` on a quiet
    reference host), not a deadline, so every run attempts the same
    operations."""
    return max(1, int(ctx.seconds // command_s))


def pair_f1(report):
    p, r = report["pair_precision"], report["pair_recall"]
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def dedup_100k(ctx):
    ckpt = make_fine_tuned(ctx)
    setup_done = time.monotonic()
    walls, cpus, rss, f1 = [], [], [], []
    with ctx.trace.span("dedup iterations"):
        for index in range(repetitions(ctx, DEDUP_COMMAND_S)):
            wall, cpu, peak, report = dedup_once(ctx, ckpt, index)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            f1.append(pair_f1(report))
    ctx.check("dedup: pair F1 identical across iterations", len(set(f1)) == 1)
    # The cheapest command counts: other tenants of the shared host only
    # ever make a command take more CPU time (README).
    ctx.metric("cpu_ms_per_op", min(cpus) * 1e3, "ms")
    ctx.metric("f1", f1[0], "F1")
    ctx.metric("peak_rss_mb", max(rss), "MB")
    ctx.notes.append(
        "dedup: runs of {} s wall, {} s CPU; pair precision {:.4f}, recall "
        "{:.4f}, escalated {}".format(" ".join("%.2f" % w for w in walls),
                                      " ".join("%.2f" % c for c in cpus),
                                      report["pair_precision"],
                                      report["pair_recall"],
                                      report["escalated"]))
    recall = ctx.probe("dedup-layers", "recall",
                       ["--entities", DEDUP_ENTITIES, "--corpus-seed",
                        DEDUP_CORPUS_SEED, "--seed", ctx.seed])
    ctx.notes.append("dedup: candidate recall@10 {:.4f} on {:.0f} sampled "
                     "queries".format(recall["candidate_recall_at10"],
                                      recall["recall_queries"]))
    ctx.check(f"dedup: sampled recall@10 >= {RECALL_FLOOR}",
              recall["candidate_recall_at10"] >= RECALL_FLOOR)
    return setup_done


def finetune_wdc(ctx):
    make_zero_shot(ctx)
    setup_done = time.monotonic()
    walls, cpus, rss, printed, outs = [], [], [], [], []
    with ctx.trace.span("finetune iterations"):
        for index in range(repetitions(ctx, FINETUNE_COMMAND_S)):
            out = os.path.join(ctx.work, f"ft_{index}.ckpt")
            wall, cpu, peak, zero_f1, tuned_f1 = finetune(
                ctx, out, f"finetune_{index}")
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            printed.append((zero_f1, tuned_f1))
            outs.append(out)
    zero_f1, tuned_f1 = printed[0]
    ctx.check("finetune: fine-tuned F1 > zero-shot F1",
              float(tuned_f1) > float(zero_f1))
    ctx.check("finetune: runs agree", len(set(printed)) == 1 and all(
        open(o, "rb").read() == open(outs[0], "rb").read() for o in outs))
    recomputed = ctx.probe("eval-f1", "eval_f1", ["--model", outs[0]],
                           FINETUNE_ENV)
    ctx.check("finetune: F1 recomputed from the checkpoint matches",
              "%.2f" % recomputed["f1"] == tuned_f1)
    ctx.metric("cpu_ms_per_op", min(cpus) * 1e3, "ms")  # as for dedup
    ctx.metric("f1", float(tuned_f1) / 100, "F1")  # printed in percent
    ctx.metric("peak_rss_mb", max(rss), "MB")
    ctx.notes.append("finetune: runs of {} s wall, {} s CPU; zero-shot F1 {} "
                     "-> fine-tuned F1 {} (recomputed {:.2f})".format(
                         " ".join("%.2f" % w for w in walls),
                         " ".join("%.2f" % c for c in cpus), zero_f1,
                         tuned_f1, recomputed["f1"]))
    return setup_done


# ---- Layers (--trace 1) ----
#
# A traced run measures every layer whatever the workload, so that each one
# reports the whole per-layer set.

def layers(ctx):
    ckpt = make_fine_tuned(ctx)
    serve_layers(ctx, ckpt)
    dedup_layers(ctx, ckpt)
    train_layers(ctx)
    pretrain_layer(ctx)


def serve_layers(ctx, ckpt):
    fleet = start_fleet(ctx, ckpt)
    single = None
    try:
        with ctx.trace.span("serve layers"):
            phase = ctx.seconds / 4
            report = ctx.probe("loadgen", "loadgen",
                               loadgen_args(ctx, fleet.port, ckpt, phase, phase),
                               {"TM_INFER_EXECUTOR": "dynamic"})
            check_served(ctx, report)
            stats = fleet.request('{"op":"stats"}')
            misses = stats["serve_requests"] - stats["serve_cache_hits"]
            ctx.metric("serve_mean_batch_size",
                       misses / max(1, stats["serve_batches"]), "pairs")
            ctx.metric("serve_cache_hit_share", report["cache_hit_share"],
                       "share")
            metrics_out = os.path.join(ctx.work, "single.metrics.json")
            single = Server(ctx, "single_serve",
                            [CLI, "serve", "--model", ckpt, "--port", "0",
                             "--metrics-out", metrics_out] + WORKER_FLAGS,
                            r"serving JSONL on 127\.0\.0\.1:(\d+)")
            # Queue wait under the closed loop, from the server's own
            # serve.queue_wait histogram. First, while the server is fresh,
            # so its fixed-pair check sees the same history in every run.
            burst = ctx.probe("loadgen", "single_burst",
                              loadgen_args(ctx, single.port, ckpt, 1.0, 0.0),
                              {"TM_INFER_EXECUTOR": "dynamic"})
            check_served(ctx, burst)
            found = ctx.probe("serve-layers", "serve_layers",
                              ["--fleet-port", fleet.port,
                               "--single-port", single.port,
                               "--model", ckpt, "--seed", ctx.seed])
            ctx.check("serve layers: every request ok", found["ok"])
            ctx.check("single server shut down cleanly", single.stop())
            single = None
            with open(metrics_out) as f:
                wait = json.load(f)["histograms"]["serve.queue_wait"]
            ctx.metric("serve_queue_wait_ms", wait["sum"] / wait["count"], "ms")
    finally:
        if single is not None:
            single.stop()
        ctx.check("fleet shut down cleanly", fleet.stop())
    for key, unit in (("serve_router_self_ms", "ms"),
                      ("serve_jsonl_tcp_self_ms", "ms"),
                      ("serve_batcher_wait_ms", "ms")):
        ctx.metric(key, found[key], unit)
    infer_metrics(ctx, found)
    ctx.metric("prompt_render_us_per_pair", found["prompt_render_us_per_pair"],
               "us")
    ctx.metric("tokenize_us_per_pair", found["tokenize_us_per_pair"], "us")
    ctx.metric("tokens_per_pair", found["tokens_per_pair"], "tokens")


def dedup_layers(ctx, ckpt):
    with ctx.trace.span("dedup layers"):
        with ctx.trace.span("tailormatch dedup"):
            _, _, _, report = dedup_once(ctx, ckpt, 0)
        for stage, ms in sorted(report["stage_ms"].items()):
            ctx.metric(f"dedup_stage_{stage}_ms", ms, "ms")
        for key in ("candidate_pairs", "uncertain", "escalated"):
            ctx.metric(f"dedup_{key}", report[key], "count")
        found = ctx.probe("dedup-layers", "dedup_layers",
                          ["--entities", DEDUP_ENTITIES, "--corpus-seed",
                           DEDUP_CORPUS_SEED, "--seed", ctx.seed, "--full", 1])
    ctx.check(f"dedup: sampled recall@10 >= {RECALL_FLOOR}",
              found["candidate_recall_at10"] >= RECALL_FLOOR)
    for key, unit in (("tfidf_fit_ms", "ms"),
                      ("tfidf_embed_us_per_entity", "us"),
                      ("index_build_ms", "ms"), ("query_p50_us", "us"),
                      ("query_p99_us", "us"), ("score_us_per_pair", "us"),
                      ("cluster_ms", "ms"),
                      ("candidate_recall_at10", "share")):
        ctx.metric(key, found[key], unit)


def train_layers(ctx):
    with ctx.trace.span("trainer layers"):
        found = ctx.probe("train-layers", "train_layers",
                          ["--cache-dir", ctx.cache], FINETUNE_ENV)
    for key, unit in (("train_examples_per_s", "examples/s"),
                      ("train_forward_us_per_batch", "us"),
                      ("train_backward_us_per_batch", "us"),
                      ("train_optimizer_us_per_batch", "us"),
                      ("eval_test_ms", "ms"), ("gemm_train_gflops", "GFLOP/s"),
                      ("gemm_train_gbps", "GB/s")):
        ctx.metric(key, found[key], unit)


def infer_metrics(ctx, layers):
    for key in ("infer_planned_us_per_pair", "infer_dynamic_us_per_pair",
                "infer_batch8_us_per_pair", "infer_batch64_us_per_pair"):
        ctx.metric(key, layers[key], "us")
    ctx.metric("gemm_infer_gflops", layers["gemm_infer_gflops"], "GFLOP/s")
    ctx.metric("gemm_infer_gbps", layers["gemm_infer_gbps"], "GB/s")


def pretrain_layer(ctx):
    with ctx.trace.span("pretrainer"):
        report = ctx.probe("pretrain", "pretrain_layer", [])
    ctx.metric("pretrain_s", report["pretrain_s"], "s")


# ---- Main ----

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build_s = build()
        ctx = Context(args.workload, args.seed, args.seconds,
                      Trace(args.trace == 1))
        shutil.rmtree(ctx.work, ignore_errors=True)
        os.makedirs(ctx.cache)
        with ctx.trace.span(f"workload {args.workload}"):
            if ctx.trace.enabled:
                layers(ctx)
            else:
                setup_done = globals()[args.workload](ctx)
    except Failure as failure:
        log(f"perfbench: {failure}")
        return 1
    if not ctx.trace.enabled:
        # Set-up from this process's start (build excluded) to the first
        # timed operation: data, pretraining, fine-tuning, fleet boot.
        ctx.metric("setup_s", setup_done - T0 - build_s, "s")
    else:
        trace_path = os.path.join(ctx.work, "trace.json")
        ctx.trace.write(trace_path)
        rc, _, _, _, output = ctx.run(
            [LINT, trace_path, "--min-events", "10"], "trace_lint")
        ctx.check("trace passes trace_lint", rc == 0)
        ctx.notes.append(output.strip())
    for note in ctx.notes:
        print(note)
    for name, entry in ctx.metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)["per_layer" if ctx.trace.enabled
                                else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in manifest}
    reported = {name: e["unit"] for name, e in ctx.metrics.items()}
    if reported != expected:
        log("perfbench: the metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(expected) - set(reported))}, extra "
            f"{sorted(set(reported) - set(expected))}, units "
            f"{sorted(n for n in expected if reported.get(n, expected[n]) != expected[n])}")
        return 1
    correct = all(ctx.checks.values())
    print(json.dumps({"correct": correct, "attempted": max(1, ctx.attempted),
                      "failed": ctx.failed, "metrics": ctx.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
