#!/usr/bin/env python3
"""Admission-service benchmark: one run of one workload, end to end.

    python3 bench/e2e/run.py --workload churn_small --seed 1 --trace 0
    python3 bench/e2e/run.py --workload dense_live --seed 2 --smoke

Builds `easched_cli`, `e2e_client` and `e2e_layers` from the checkout's
sources in Release (under .bench_build/), starts
`easched_cli serve --listen 0 --shards 2 --cores 4 --data-dir <tmp>
--metrics-format prometheus`, and drives it through one run:

 1. warmup: a fixed count of arrivals that fills the live set and replaces
    it once; then SIGKILL, keep a copy of the data dir, and restart;
 2. six segments. Each times four set-up cycles (a server started on a
    fresh copy of the killed data dir, spawn -> first acked admit; `setup_s`
    is the median of all twenty-four at a fixed host speed, see
    REFERENCE_LOOP), then runs the open loop at the
    workload's fixed rate and the closed loop on the same connections; the
    latency and throughput metrics are medians over the segments;
 3. the dedup audit, then the shutdown op; the server's exit Prometheus
    dump is parsed.

With --trace 1 the segments share half of --seconds and e2e_layers replays
the same op stream for the other half, giving the per-layer metrics and
.bench_out/trace_<workload>.json. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. A failed
correctness check prints correct=false and exits 1; a build or start-up
failure exits non-zero without a result. The full record (host context,
every metric, validity) is written to .bench_out/results/ (or --out).
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
OUT = os.path.join(ROOT, ".bench_out")
# Latency and throughput are medians over segments, and the set-up cycles
# are spread over the segments, so that a passing slow stretch of the host
# moves them less.
SEGMENTS = 6
SETUP_CYCLES_PER_SEGMENT = 4
OPEN_SHARE = 0.7  # of each segment's wire time; the rest is the closed loop
# `setup_s` is reported at a fixed host speed: each cycle's wall time is
# divided by the wall time of a fixed pure-Python loop timed right before and
# right after it (their mean), then multiplied by the loop's nominal time.
REFERENCE_LOOP = 300_000
REFERENCE_NOMINAL_S = 0.02
# Run-validity guards.
MAX_RATE_MISS = 0.02
MAX_LATE_FRAC = 0.05
MIN_ADMITS = 1000


class BenchError(Exception):
    """A failure that leaves no result to print (build, start-up, crash)."""


def log(message):
    print(f"[e2e] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    build_log = os.path.join(os.path.dirname(BUILD), "e2e-build.log")
    os.makedirs(BUILD, exist_ok=True)
    with open(build_log, "a") as out:
        if not os.path.exists(cache):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"cmake configure failed (see {build_log})")
        build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", open(cache).read(), re.M)
        if not build_type or build_type.group(1) != "Release":
            raise BenchError(f"{BUILD} is not a Release build; remove it and rerun")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise BenchError(f"build failed (see {build_log})")


def binary(name):
    return os.path.join(BUILD, name)


# --------------------------------------------------------------------------
# Wire protocol (just the frames run.py sends itself; see docs/PROTOCOL.md)

OP_ADMIT, OP_COMPLETE, OP_SHUTDOWN = 1, 3, 7
STATUS_OK = 0


def _str(text):
    data = text.encode()
    return struct.pack("<I", len(data)) + data


def _round_trip(sock, op, payload, correlation=1):
    body = struct.pack("<BBQ", 1, op, correlation) + payload
    sock.sendall(struct.pack("<I", len(body)) + body)
    header = _recv_exact(sock, 4)
    body = _recv_exact(sock, struct.unpack("<I", header)[0])
    if body[1] != (op | 0x80) or struct.unpack("<Q", body[2:10])[0] != correlation:
        raise BenchError("unexpected response frame")
    return body[10:]


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise BenchError("server closed the connection")
        data += chunk
    return data


def wire_admit(sock, tenant, rid, task):
    payload = _str(tenant) + _str(rid) + struct.pack("<dddI", *task, 0)
    reply = _round_trip(sock, OP_ADMIT, payload)
    return reply[0], struct.unpack("<q", reply[2:10])[0]


def wire_complete(sock, tenant, task_id):
    return _round_trip(sock, OP_COMPLETE, _str(tenant) + struct.pack("<q", task_id))[0]


# --------------------------------------------------------------------------
# Server process


class Server:
    """One `easched_cli serve --listen 0` process on `data_dir`."""

    def __init__(self, data_dir, log_path, timeout=60.0):
        cmd = [binary("easched_cli"), "serve", "--listen", "0", "--shards", "2",
               "--cores", "4", "--data-dir", data_dir, "--metrics-format", "prometheus"]
        self.stderr = open(log_path, "a")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.port = self._read_port(timeout)

    def _read_port(self, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                match = re.search(r"serving on [\d.]+:(\d+)", line)
                if match:
                    return int(match.group(1))
                if not line:
                    break
        self.kill()
        raise BenchError("server did not start")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()

    def shutdown(self, timeout=60.0):
        """Send the shutdown op; return the server's stdout after it exits."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as sock:
            if _round_trip(sock, OP_SHUTDOWN, b"")[0] != STATUS_OK:
                raise BenchError("shutdown op refused")
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        finally:
            self.kill()
        return out


def reference_s():
    """Wall time of REFERENCE_LOOP iterations of a fixed pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i
    return time.perf_counter() - start


def restart_probe(data_dir, log_path, probe, name):
    """SIGKILLed server -> restarted server; returns (server, seconds from
    spawn to the first acked admit). The probe task is completed right after,
    so the live set keeps its size."""
    start = time.perf_counter()
    server = Server(data_dir, log_path)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            status, task_id = wire_admit(sock, "probe", f"probe-{name}", probe)
            elapsed = time.perf_counter() - start
            if status != STATUS_OK or wire_complete(sock, "probe", task_id) != STATUS_OK:
                raise BenchError("restart probe was not acked")
    except BaseException:
        server.kill()
        raise
    return server, elapsed


def parse_server_dump(text):
    """Front-end counters, audit line and summed per-shard Prometheus series."""
    out = {}
    front = re.search(r"front-end: .*?(\d+) frame\(s\) in / (\d+) out.*?(\d+) bad request\(s\), "
                      r"(\d+) protocol error\(s\)", text)
    writev = re.search(r"([\d.]+) frame\(s\)/writev", text)
    audit = re.search(r"audit: (\d+) acked admit\(s\), (\d+) lost", text)
    if not front or not writev or not audit:
        raise BenchError("server exit dump is missing its front-end, backpressure or audit line")
    out["frames_per_writev"] = float(writev.group(1))
    out["frames_in"], out["frames_out"], out["bad_requests"], out["protocol_errors"] = (
        int(g) for g in front.groups())
    out["acked"], out["lost"] = (int(g) for g in audit.groups())
    sums = {}
    for name, value in re.findall(r"^easched_shard\d+_(\w+) ([0-9.eE+-]+)$", text, re.M):
        sums[name] = sums.get(name, 0.0) + float(value)
    out["series"] = sums
    compactions = re.search(r"^easched_shard_compactions_total ([0-9.eE+-]+)$", text, re.M)
    out["compactions"] = float(compactions.group(1)) if compactions else 0.0
    return out


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Host context


def host_context(build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = match.group(1) if match else cpu
    except OSError:
        pass
    try:
        # The ceiling keeps git from looking for a repository above the checkout.
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env={**os.environ,
                                             "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        git_rev = rev.stdout.strip() if rev.returncode == 0 else ""
    except OSError:
        git_rev = ""
    if not git_rev:  # an exported checkout: name the sources by content instead
        digest = hashlib.sha1()
        for base in ("src", "examples", os.path.join("bench", "e2e")):
            for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        git_rev = "tree-" + digest.hexdigest()[:12]
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "build_type": build_type,
            "git_rev": git_rev}


# --------------------------------------------------------------------------
# One run


def run_tool(cmd, timeout):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{os.path.basename(cmd[0])} printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def run(args):
    build()
    tmp = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    data = os.path.join(tmp, "data")
    killed = os.path.join(tmp, "killed")
    scratch = os.path.join(tmp, "setup")
    os.makedirs(data)
    server_log = os.path.join(tmp, "server.log")
    state = os.path.join(tmp, "state.txt")
    warm_state = os.path.join(tmp, "state.warm.txt")
    client = [binary("e2e_client"), "--workload", args.workload, "--seed", str(args.seed),
              "--state", state]

    if args.smoke:
        segments, cycles, open_s, closed_s, layers_s = 1, 1, 1.0, 1.0, 1.0
    else:
        segments, cycles = SEGMENTS, SETUP_CYCLES_PER_SEGMENT
        wire_s = (0.5 if args.trace else 1.0) * args.seconds / segments
        open_s, closed_s = OPEN_SHARE * wire_s, (1 - OPEN_SHARE) * wire_s
        layers_s = 0.5 * args.seconds

    def client_phase(server, phase, *extra, timeout=120.0):
        result, code = run_tool(client + ["--port", str(server.port), "--phase", phase, *extra],
                                timeout)
        if code != 0:
            raise BenchError(f"e2e_client {phase} failed: {result.get('error')}")
        return result

    server = Server(data, server_log)
    try:
        warm = client_phase(server, "warmup", timeout=300)
        shutil.copy(state, warm_state)
        probe = (warm["probe_release"], warm["probe_deadline"], warm["probe_work"])
        server.kill()
        shutil.copytree(data, killed)
        server, _ = restart_probe(data, server_log, probe, "restart")
        setup, measures = [], []
        for segment in range(1, segments + 1):
            # Set-up time: restart a copy of the post-warmup data dir, so that
            # every cycle recovers the same state (the journal keeps a dedup
            # record per acked rid, so the live data dir grows all run). The
            # cycles are spread over the run; the measured server sits idle.
            for _ in range(cycles):
                shutil.rmtree(scratch, ignore_errors=True)
                shutil.copytree(killed, scratch)
                before = reference_s()
                restarted, elapsed = restart_probe(scratch, server_log, probe, "setup")
                restarted.kill()
                setup.append((elapsed, (before + reference_s()) / 2))
            measures.append(client_phase(
                server, "measure", "--segment", str(segment), "--open-s", str(open_s),
                "--closed-s", str(closed_s), timeout=open_s + closed_s + 120))
        audit = client_phase(server, "audit")
        dump = parse_server_dump(server.shutdown())
    finally:
        server.kill()

    layers = None
    if args.trace:
        layers, _ = run_tool(
            [binary("e2e_layers"), "--workload", args.workload, "--seed", str(args.seed),
             "--state", warm_state, "--data-dir", killed,
             "--work-dir", os.path.join(tmp, "layers"), "--seconds", str(layers_s),
             "--trace-out", os.path.join(OUT, f"trace_{args.workload}.json")],
            layers_s + 150)
    shutil.rmtree(tmp, ignore_errors=True)
    return warm, setup, measures, audit, dump, layers


def evaluate(args, warm, setup, measures, audit, dump, layers):
    if warm["build_type"] != "Release":
        raise BenchError(f"refusing a {warm['build_type']} build")

    def median_of(key):
        return statistics.median(m[key] for m in measures)

    def total(key):
        return sum(m[key] for m in measures)

    checks = {
        "every_op_succeeded": (warm["failed"] == 0 and total("failed") == 0
                               and audit["failed"] == 0),
        "dedup_audit": (audit["audit_failed"] == 0 and audit["audit_checked"] > 0
                        and audit["segments"] == len(measures) + 1),
        "one_response_per_request": dump["frames_in"] == dump["frames_out"],
        "no_protocol_errors": dump["protocol_errors"] == 0 and dump["bad_requests"] == 0,
    }
    if layers is not None:
        checks["layers_replay"] = not layers["error"] and layers["mismatches"] == 0

    series = dump["series"]
    # Workloads that send no quotes of their own report the audit phase's
    # quote probe instead.
    quotes = measures if total("quotes") > 0 else [audit]
    metrics = {
        # The warmup's admits count too: the energy of an admit depends on the
        # tasks around it, and the segments alone (about 3500 units of work
        # on dense_live) left a seed-to-seed spread of 0.4-0.7% there and
        # on burst_batch.
        "energy_per_work": (warm["energy"] + total("energy")) / (warm["work"] + total("work")),
        # A set-up cycle is one thread's work, and a shared host runs one
        # thread 1.6x slower or faster from one second to the next and for
        # minutes on end, which moves any raw time between two sets of runs;
        # the reference loop timed around each cycle slows down with it.
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(wall / ref for wall, ref in setup),
        "client.setup_wall_s": statistics.median(wall for wall, _ in setup),
        "client.admit_p50_ms": median_of("admit_p50_ms"),
        "client.admit_p90_ms": median_of("admit_p90_ms"),
        "client.admit_p99_ms": median_of("admit_p99_ms"),
        "client.tput_admits_s": median_of("tput_admits_s"),
        "client.quote_p50_ms": statistics.median(m["quote_p50_ms"] for m in quotes),
        "client.quote_p90_ms": statistics.median(m["quote_p90_ms"] for m in quotes),
        "client.late_frac": total("late") / total("scheduled"),
        "client.offered_rate_err": max(m["offered_rate_err"] for m in measures),
        "client.audit_checked": audit["audit_checked"],
        "server.plan_cache_hit_ratio": ratio(
            series.get("plan_cache_hits_total", 0.0),
            series.get("plan_cache_hits_total", 0.0) + series.get("plan_cache_misses_total", 0.0)),
        "server.plan_delta_hit_ratio": ratio(
            series.get("plan_delta_hits_total", 0.0),
            series.get("plan_delta_hits_total", 0.0) + series.get("plan_delta_full_total", 0.0)),
        "server.journal_compactions": dump["compactions"],
        "server.audit_lost": dump["lost"],
        "net.frames_per_writev": dump["frames_per_writev"],
    }
    if layers is not None:
        metrics.update({k: v for k, v in layers.items() if "." in k})

    invalid = []
    # Traced runs halve the wire phases and smoke runs are checks only; the
    # guards apply to measuring runs.
    if not args.trace and not args.smoke:
        if metrics["client.offered_rate_err"] > MAX_RATE_MISS:
            invalid.append(f"open-loop rate missed its target by "
                           f"{metrics['client.offered_rate_err']:.1%}")
        if metrics["client.late_frac"] > MAX_LATE_FRAC:
            invalid.append(f"{metrics['client.late_frac']:.1%} of requests were sent >1 ms late")
        if total("open_admits") < MIN_ADMITS:
            invalid.append(f"only {total('open_admits'):.0f} open-loop admits")
    return {
        "host": host_context(warm["build_type"]),
        "correct": all(checks.values()), "checks": checks,
        "valid": not invalid, "invalid_reasons": invalid,
        "attempted": int(total("attempted") + audit["attempted"]),
        "failed": int(total("failed") + audit["failed"]),
        "setup_samples_s": [wall for wall, _ in setup],
        "setup_reference_s": [ref for _, ref in setup],
        "warmup": warm, "segments": measures, "metrics": metrics,
    }


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)  # workload and metric names, metric units
    except (OSError, ValueError) as e:
        log(f"error: {e}")
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s phases, one segment and one set-up cycle; every check runs")
    parser.add_argument("--out", default=os.path.join(OUT, "results"),
                        help="directory for the full result record")
    args = parser.parse_args()

    try:
        outcome = evaluate(args, *run(args))
        missing = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]
                   if m["name"] not in outcome["metrics"]]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2

    for reason in outcome["invalid_reasons"]:
        log(f"invalid run: {reason}")
    for name, ok in outcome["checks"].items():
        if not ok:
            log(f"correctness check failed: {name}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, **outcome}
    os.makedirs(args.out, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(args.out, name), "w") as f:
        json.dump(record, f, indent=1)

    shown = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in shown},
    }
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
