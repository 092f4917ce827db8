#!/usr/bin/env python3
"""The serving benchmark: egp_server under seeded preview traffic.

    python3 perfbench/run.py --workload browse_sampled --seed 1 \
        --seconds 20 --trace 0

Run from anywhere inside a source checkout. It builds the repo's Release
tree and its own two programs under .bench_build/ (perfbench/CMakeLists.txt),
makes the three .egps snapshots with datagen once, then:

--trace 0 (end-to-end, the benchmark's spans off)
    Spawns the real egp_server with its default flags seven times; each
    time setup_s runs from spawn until /healthz answers 200 and the
    workload's warm-up set has been served, and the median is reported.
    On the last server perfbench_loadgen runs a closed loop over nproc
    connections for --seconds: throughput_rps is the best of its windows,
    cpu_us_per_req the median window's server CPU (/proc/<pid>/stat) per
    request. rss_mb is the server's VmHWM.

--trace 1 (per layer)
    An open loop on a spawned server (Poisson arrivals at the workload's
    frozen rate, timed from the scheduled send) and the cold probe give
    the user-visible latencies, the generator's lateness, and the admission
    counters and prepared-cache hit ratio from /metrics; then
    perfbench_trace replays the workload in process, timing each layer's
    public function in spans, and the layer metrics come from those spans.

Every response body goes through the strict JSON parser and a seeded
subset is compared with the in-process Engine; any failure or mismatch
counts in `failed`, and a mismatch makes the run exit 1. The last stdout
line is the result object; the line before it ("detail") carries the
environment (nproc, build type, commit, calibration loop, steal share),
sample counts and breakdowns. perfbench/README.md has the rest.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import DATASETS, WORKLOADS, Stream  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
TOOLS = CMAKE_DIR / "egp" / "tools"
TARGETS = ("egp_server_bin", "egp_cli", "egp_compile", "perfbench_loadgen",
           "perfbench_trace")
SETUPS = 7
WINDOWS = 20
OPEN_STRETCHES = 4
TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    pass


def log_path(name):
    (BUILD / "logs").mkdir(parents=True, exist_ok=True)
    return BUILD / "logs" / name


def run_logged(cmd, log_name):
    with open(log_path(log_name), "a") as log:
        result = subprocess.run([str(c) for c in cmd], stdout=log,
                                stderr=subprocess.STDOUT)
    if result.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} failed "
                         f"(exit {result.returncode}); see "
                         f"{log_path(log_name)}")


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the repository sources are not beside perfbench/")
    # Configure every time: with the Makefile generator, building a target
    # that an edit to perfbench/CMakeLists.txt added fails until it has.
    cache = CMAKE_DIR / "CMakeCache.txt"
    run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                "-DCMAKE_BUILD_TYPE=Release"], "build.log")
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                           re.M)
    build_type = build_type.group(1) if build_type else ""
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type or 'default'} build; "
                         f"the benchmark measures Release only")
    run_logged(["cmake", "--build", CMAKE_DIR, "-j", str(jobs), "--target",
                *TARGETS], "build.log")
    return build_type


def snapshots(names):
    data = BUILD / "data"
    data.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = data / f"{name}.egps"
        if not path.exists():
            text = data / f"{name}.egt"
            run_logged([TOOLS / "egp", "generate", name, text, "--scale",
                        str(DATASETS[name])], "data.log")
            run_logged([TOOLS / "egp_compile", text, f"{path}.tmp"],
                       "data.log")
            os.replace(f"{path}.tmp", path)
            text.unlink()
        paths[name] = path
    return paths


def source_digest():
    digest = hashlib.sha1()
    for folder in ("src", "tools"):
        for path in sorted((ROOT / folder).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_times():
    """The box's CPU time counters (USER_HZ ticks) from /proc/stat."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    return [int(f) for f in fields]


def steal_share(before, after):
    """Share of the box's CPU time the hypervisor took between two
    cpu_times() readings: high values mean wall-clock metrics of that run
    measured the neighbours as much as the program."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def git_commit():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


class Server:
    """One egp_server process with the workload's datasets."""

    def __init__(self, paths):
        self.cmd = [str(TOOLS / "egp_server"), "--port", "0"]
        for name, path in paths.items():
            self.cmd += ["--dataset", f"{name}={path}"]
        self.proc = None
        self.port = None

    def start(self, warmup):
        """Spawns the server, waits for /healthz and serves the warm-up
        set; returns the seconds that took."""
        start = time.perf_counter()
        with open(log_path("server.log"), "a") as log:
            self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                         stderr=log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if not match:
            raise BenchError(f"egp_server did not start: {line.strip()!r}")
        self.port = int(match.group(1))
        while self.get("/healthz")[0] != 200:
            time.sleep(0.001)
        for body in warmup:
            status, _ = self.post(body)
            if status != 200:
                raise BenchError(f"warm-up request failed with {status}")
        return time.perf_counter() - start

    def _request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path):
        return self._request("GET", path)

    def post(self, body):
        return self._request("POST", "/v1/preview", json.dumps(body))

    def metrics(self):
        status, text = self.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return text.decode()

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def write_stream(entries, path):
    with open(path, "w") as out:
        for phase, cls, at_us, verify, body in entries:
            out.write(f"{phase}\t{cls}\t{at_us}\t{int(verify)}\t"
                      f"{json.dumps(body, separators=(',', ':'))}\n")


def run_loadgen(server, paths, entries, runs, threads, closed_seconds):
    """Runs perfbench_loadgen over `entries` and returns its records, with
    each open and probe record joined to its stream entry:

      closed (done_ns, ok)             cpu (t_ns, ticks)
      open (scheduled_ns, sent_ns, done_ns, ok, class, dataset)
      probe (latency_ns, ok, dataset)  fail "<phase> <reason>"
    """
    stream_file, out_file = runs / "stream.tsv", runs / "loadgen.out"
    write_stream(entries, stream_file)
    cmd = [CMAKE_DIR / "perfbench_loadgen", "--port", server.port,
           "--server-pid", server.proc.pid, "--stream", stream_file,
           "--threads", threads, "--closed-seconds", closed_seconds,
           "--windows", WINDOWS, "--out", out_file]
    for name, path in paths.items():
        cmd += ["--dataset", f"{name}={path}"]
    run_logged(cmd, "loadgen.log")
    stream_file.unlink()  # up to tens of MB a run; rebuilt from the seed
    phase = {name: [e for e in entries if e[0] == name]
             for name in ("open", "probe")}
    records = {"closed": [], "cpu": [], "open": [], "probe": [], "fail": [],
               "calib": None, "verify": None}
    for line in Path(out_file).read_text().splitlines():
        kind, _, rest = line.partition(" ")
        f = rest.split()
        if kind == "calib":
            records["calib"] = float(f[0])
        elif kind == "verify":
            records["verify"] = (int(f[0]), int(f[1]))
        elif kind == "cpu":
            records["cpu"].append((int(f[0]), int(f[1])))
        elif kind == "closed":
            records["closed"].append((int(f[0]), f[1] == "1"))
        elif kind == "open":
            _, cls, _, _, body = phase["open"][int(f[0])]
            records["open"].append((int(f[1]), int(f[2]), int(f[3]),
                                    f[4] == "1", cls, body["dataset"]))
        elif kind == "probe":
            body = phase["probe"][int(f[0])][4]
            records["probe"].append((int(f[1]), f[2] == "1",
                                     body["dataset"]))
        elif kind == "fail":
            records["fail"].append(rest)
    return records


def tally(records):
    """(attempted, failed) over every driven request, mismatches included."""
    oks = ([r[1] for r in records["closed"]] +
           [r[3] for r in records["open"]] +
           [r[1] for r in records["probe"]])
    compared, mismatched = records["verify"]
    return len(oks) + compared, oks.count(False) + mismatched


def end_to_end(workload, seed, seconds, paths, threads, runs):
    stream = Stream(workload, seed)
    warmup = [body for *_, body in stream.warmup()]
    # Enough closed-loop requests that the pool does not wrap (a wrapped
    # cold request would be served warm).
    entries = stream.closed(int(6000 * seconds), 1 / 600)
    setups = []
    server = Server(paths)
    try:
        for index in range(SETUPS):
            setups.append(server.start(warmup))
            if index + 1 < SETUPS:
                server.stop()
        records = run_loadgen(server, paths, entries, runs, threads, seconds)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    metrics, detail = e2e_metrics(setups, records, rss_mb)
    return metrics, tally(records), records["verify"][1], detail, records


def e2e_metrics(setups, records, rss_mb):
    """The end-to-end metrics of one run from the load generator's records.

    Throughput is the best window's: on a box whose hypervisor steals a
    varying share of the CPUs, the median window moved by up to 2x between
    runs, the best window by a fifth. CPU time per request is the median
    window's; steal does not inflate it.
    """
    windows = stats.closed_windows(records["closed"], records["cpu"], TICKS)
    if not windows:
        raise BenchError("the closed loop completed no requests; see the "
                         "load generator failures in the detail line")
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "throughput_rps": (max(w[0] for w in windows), "1/s"),
        "cpu_us_per_req": (stats.median([w[1] for w in windows]), "us"),
        "rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "calibration_ms": records["calib"],
        "setups_s": setups,
        "closed_windows": len(windows),
        "closed_requests": len(records["closed"]),
        "throughput_rps_median_window": stats.median([w[0] for w in windows]),
    }
    return metrics, detail


def open_loop_metrics(workload, records):
    """User-visible latency from the open loop and the cold probe.

    p50 and p99 are taken per stretch of the schedule and their medians
    reported, so a stall moves one stretch and not the value. Cold waits
    are grouped by dataset (builds differ in cost per dataset) and the
    per-dataset medians averaged; they come from the probe or, in a mix
    with cold requests, from the open loop.
    """
    opened = [r for r in records["open"] if r[3]]
    hot = [r[:3] for r in opened if r[4] == "hot"]
    stretches = [stats.open_loop(part)[0] for part in
                 stats.split_by_schedule(hot, OPEN_STRETCHES)]
    cold = {}
    if workload.probes:
        for ns, ok, dataset in records["probe"]:
            if ok:
                cold.setdefault(dataset, []).append(ns / 1e6)
    else:
        for record in opened:
            if record[4] == "cold":
                cold.setdefault(record[5], []).append(
                    stats.open_loop([record[:3]])[0][0])
    if not stretches or not cold:
        raise BenchError("the open loop or the cold probe completed no "
                         "requests; see the load generator failures")
    q = stats.tail_quantile(min(len(part) for part in stretches))
    latency, late = stats.open_loop(hot)
    failed = sum(1 for r in records["open"] if not r[3])
    within = sum(1 for v in latency if v <= workload.p99_limit_ms)
    metrics = {
        "open.p50_ms": (stats.median([stats.percentile(part, 0.5)
                                      for part in stretches]), "ms"),
        "open.p99_ms": (stats.median([stats.percentile(part, q)
                                      for part in stretches]), "ms"),
        "cold.p50_ms": (stats.mean([stats.percentile(v, 0.5)
                                    for v in cold.values()]), "ms"),
        "loadgen.late_p99_ms": (stats.tail(late)[1], "ms"),
    }
    detail = {
        "open_rate": workload.rate,
        "open_requests": len(records["open"]),
        "open_stretches": len(stretches),
        "p99_quantile_used": q,
        "p99_limit_ms": workload.p99_limit_ms,
        "within_limit": within / (len(latency) + failed),
        "cold_samples": {d: len(v) for d, v in sorted(cold.items())},
        "cold_p50_ms_by_dataset": {d: stats.percentile(v, 0.5)
                                   for d, v in sorted(cold.items())},
    }
    return metrics, detail


def admission_metrics(text):
    """The admission controller's cold-gate counters from /metrics text."""
    metrics = {}
    for name in ("admitted", "queued", "shed"):
        match = re.search(rf"^egp_admission_cold_{name}_total (\d+)", text,
                          re.M)
        if not match:
            raise BenchError(f"/metrics lacks egp_admission_cold_{name}_total")
        metrics[f"admission.cold_{name}"] = (int(match.group(1)), "count")
    return metrics


def cache_metrics(before, after):
    """engine.cache_hit_ratio between two /metrics scrapes: prepared-cache
    hits over lookups, summed over datasets. The server looks the cache up
    once per preview it serves, so this is the ratio of the traffic sent
    between the scrapes."""
    def lookups(text):
        totals = []
        for name in ("hits", "misses"):
            values = re.findall(
                rf"^egp_prepared_cache_{name}_total{{[^}}]*}} (\d+)$", text,
                re.M)
            if not values:
                raise BenchError(f"/metrics lacks egp_prepared_cache_{name}"
                                 "_total")
            totals.append(sum(int(v) for v in values))
        return totals

    hits, misses = (a - b for a, b in zip(lookups(after), lookups(before)))
    return {"engine.cache_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0, "ratio")}


def load_trace(path):
    spans, counts, facts = {}, {}, {}
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if fields[0] == "S":
            span_id, parent, rid = int(fields[1]), int(fields[2]), int(
                fields[3])
            spans[span_id] = (parent, rid, fields[4], fields[5],
                              int(fields[6]), int(fields[7]))
        elif fields[0] == "C":
            counts.setdefault(fields[2], []).append(
                (int(fields[1]), float(fields[3])))
        elif fields[0] == "X":
            facts[fields[1]] = int(fields[2])
    return spans, counts, facts


def per_layer(workload, seed, seconds, paths, threads, runs):
    stream = Stream(workload, seed)
    warmup = stream.warmup()
    entries = warmup + stream.open(seconds * 0.5, 1 / 100) + stream.probes()
    server = Server(paths)
    try:
        server.start([body for *_, body in warmup])
        before = server.metrics()
        records = run_loadgen(server, paths, entries, runs, threads, 0)
        after = server.metrics()
    finally:
        server.stop()
    latency, latency_detail = open_loop_metrics(workload, records)

    trace_file = runs / "trace.tsv"
    write_stream(warmup + stream.replay(20_000), trace_file)
    cmd = [CMAKE_DIR / "perfbench_trace", "--stream", trace_file,
           "--seconds", seconds * 0.5, "--out", runs / "trace.out"]
    for name, path in paths.items():
        cmd += ["--dataset", f"{name}={path}"]
    run_logged(cmd, "trace.log")
    trace_file.unlink()
    spans, counts, facts = load_trace(runs / "trace.out")
    layers, breakdown = layer_metrics(spans, counts)
    layers.update(admission_metrics(after))
    layers.update(cache_metrics(before, after))
    layers.update(latency)

    traced_rps = facts["overhead_requests"] / (facts["traced_ns"] / 1e9)
    untraced_rps = facts["overhead_requests"] / (facts["untraced_ns"] / 1e9)
    mismatches = facts["fidelity_mismatches"] + facts["server_mismatches"]
    attempted, failed = tally(records)
    detail = dict(breakdown, **latency_detail)
    detail.update({
        "calibration_ms": records["calib"],
        "replayed": facts["replayed"],
        "fidelity_mismatches": facts["fidelity_mismatches"],
        "server_mismatches": facts["server_mismatches"],
        "tracing_overhead": {
            "traced_rps": traced_rps,
            "untraced_rps": untraced_rps,
            "traced_minus_untraced_rps": traced_rps - untraced_rps,
            "requests_per_side": facts["overhead_requests"],
        },
    })
    return (layers, (attempted + facts["replayed"], failed + mismatches),
            records["verify"][1] + mismatches, detail, records)


def layer_metrics(spans, counts):
    """Per-layer metrics and breakdowns from the traced replay."""
    self_ns = stats.self_times({i: (s[0], s[4], s[5])
                                for i, s in spans.items()})
    by_rid = {}
    for span_id, (_, rid, name, label, start, end) in spans.items():
        by_rid.setdefault(rid, {}).setdefault(name, []).append(
            (end - start, label, span_id))

    def durations(name, label=None):
        return [(s[5] - s[4]) for s in spans.values()
                if s[2] == name and (label is None or s[3] == label)]

    def med_us(name, label=None):
        values = durations(name, label)
        return stats.median(values) / 1e3 if values else 0.0

    def count_values(name):
        return [value for _, value in counts.get(name, [])]

    open_ms = 0.0
    for dataset in sorted({s[3] for s in spans.values()
                           if s[2] == "store.open"}):
        open_ms += stats.median(durations("store.open", dataset)) / 1e6
    cold_prepares = [(s[5] - s[4], i) for i, s in spans.items()
                     if s[2] == "prepare" and s[3] == "cold"]
    cpu_by_rid = dict(counts.get("prepare.cpu_ns", []))
    cold_ratio = [cpu_by_rid[spans[i][1]] / wall for wall, i in cold_prepares
                  if spans[i][1] in cpu_by_rid and wall > 0]
    enumerated = sum(count_values("discover.enumerated"))
    scored = sum(count_values("discover.scored"))
    encode_ns_per_byte = []
    bytes_by_rid = dict(counts.get("encode.bytes", []))
    residual, gap, transport = [], [], []
    for rid, names in by_rid.items():
        if rid < 0:
            continue
        total = {name: sum(d for d, _, _ in items)
                 for name, items in names.items()}
        if "encode" in total and bytes_by_rid.get(rid):
            encode_ns_per_byte.append(total["encode"] / bytes_by_rid[rid])
        if "transport" in names:
            transport_id = names["transport"][0][2]
            transport.append(self_ns[transport_id])
        if names.get("request", [(0, "cold")])[0][1] != "hot":
            continue
        if "handler" in total:
            residual.append(total["handler"] - total["decode"] -
                            total["engine.call"] - total["encode"])
            gap.append(total["handler"] - sum(
                total.get(layer, 0) for layer in
                ("decode", "prepare", "discover", "sample", "encode")))
    cells = count_values("sample.cells")
    layers = {
        "store.open_ms": (open_ms, "ms"),
        "catalog.load_ms": (stats.median(durations("catalog.load")) / 1e6,
                            "ms"),
        "prepare.build_ms": (stats.median([w for w, _ in cold_prepares]) / 1e6
                             if cold_prepares else 0.0, "ms"),
        "prepare.cpu_over_wall": (stats.median(cold_ratio)
                                  if cold_ratio else 0.0, "ratio"),
        "discover.us": (med_us("discover"), "us"),
        "discover.subsets_enumerated": (
            enumerated / max(1, len(durations("discover"))), "count"),
        "discover.scored_ratio": (scored / enumerated if enumerated else 1.0,
                                  "ratio"),
        "sample.us": (med_us("sample"), "us"),
        "sample.cells": (sum(cells) / len(cells) if cells else 0.0, "count"),
        "decode.us": (med_us("decode"), "us"),
        "engine.us": (med_us("engine.call"), "us"),
        "encode.us": (med_us("encode"), "us"),
        "encode.bytes": (stats.median(count_values("encode.bytes")),
                         "bytes"),
        "encode.ns_per_byte": (stats.median(encode_ns_per_byte), "ns/B"),
        "http.frame.us": (med_us("http.frame"), "us"),
        "handler.us": (med_us("handler"), "us"),
        "handler.residual_us": (stats.median(residual) / 1e3
                                if residual else 0.0, "us"),
        "handler.layer_gap_us": (stats.median(gap) / 1e3 if gap else 0.0,
                                 "us"),
        "transport.us": (stats.median(transport) / 1e3, "us"),
    }

    # Self time by layer inside the layer-by-layer request trees, over the
    # hot and the cold replayed requests; the predicted split is read off
    # these.
    def root_name(span_id):
        while spans[span_id][0] in spans:
            span_id = spans[span_id][0]
        return spans[span_id][2]

    def self_table(rids):
        table = {}
        for span_id, (_, rid, name, _, _, _) in spans.items():
            if rid in rids and root_name(span_id) == "request":
                table[name] = table.get(name, 0) + self_ns[span_id] / 1e6
        return {name: round(ms, 3) for name, ms in
                sorted(table.items(), key=lambda item: -item[1])}

    hot = {s[1] for s in spans.values()
           if s[2] == "request" and s[3] == "hot"}
    cold = {s[1] for s in spans.values()
            if s[2] == "request" and s[3] == "cold"}
    discover_by_algo = {}
    for s in spans.values():
        if s[2] == "discover":
            discover_by_algo.setdefault(s[3], []).append((s[5] - s[4]) / 1e3)
    breakdown = {
        "self_ms_hot": self_table(hot),
        "self_ms_cold": self_table(cold),
        "discover_us_by_algo": {algo: {"median": stats.median(v),
                                       "calls": len(v)}
                                for algo, v in sorted(
                                    discover_by_algo.items())},
        "store_open_ms_by_dataset": {
            d: stats.median(durations("store.open", d)) / 1e6
            for d in sorted({s[3] for s in spans.values()
                             if s[2] == "store.open"})},
        "cold_requests": len(cold),
    }
    return layers, breakdown


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    try:
        build_type = build(threads)
        paths = snapshots(workload.datasets)
        runs = BUILD / "runs" / f"{workload.name}-{args.seed}-{args.trace}"
        runs.mkdir(parents=True, exist_ok=True)
        measure = per_layer if args.trace else end_to_end
        before = cpu_times()
        metrics, (attempted, failed), mismatches, detail, records = measure(
            workload, args.seed, args.seconds, paths, threads, runs)
        detail["steal_share"] = steal_share(before, cpu_times())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    detail.update({
        "verified": records["verify"][0],
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": threads,
        "build_type": build_type,
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "failures": records["fail"][:5],
    })
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
