#!/usr/bin/env python3
"""The repository's benchmark: builds the perfbench harness and the dsml CLI
from source, runs one workload, checks its outputs and prints a report whose
last line is one JSON object.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mcf --seed 1 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one report
    python3 perfbench/run.py --machine           # the machine record

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is non-zero when the build fails or an output
check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL = "tests/data/serve/model.dsml"
WORKLOADS = ("sweep-mcf", "campaign-mcf", "serve-small")
SETUP_REPS = 11
CHILD_TIMEOUT_S = 170
LISTENING = re.compile(rb"listening on [^\s:]+:(\d+) ")

# The per-layer metrics each workload measures. The others read 0 on it:
# that workload never calls the layer.
TRACE_METRICS = {
    "sweep-mcf": {
        "workload.trace_s", "sim.busy_s", "sim.instr_per_s",
        "sim.config_ms_p50", "sim.config_ms_max", "sim.pool_busy_frac",
        "sim.configs", "sim.instructions", "trace.overhead_ratio",
        "trace.coverage",
    },
    "campaign-mcf": {
        "workload.trace_s", "sim.busy_s", "sim.instr_per_s",
        "sim.config_ms_p50", "sim.config_ms_max", "sim.pool_busy_frac",
        "sim.configs", "sim.instructions", "dse.evaluate_s",
        "dse.evaluate_points", "dse.select_s", "dse.score_s", "dse.rounds",
        "ml.retrain_s", "ml.true_err_pct", "trace.overhead_ratio",
        "trace.coverage",
    },
    "serve-small": {
        "engine.handle_us", "common.json_parse_us", "engine.schema_us",
        "engine.predict_us", "common.json_encode_us", "net.transport_us",
        "engine.rows_per_batch", "client.cpu_frac", "trace.overhead_ratio",
        "trace.coverage",
    },
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def cores():
    return sorted(os.sched_getaffinity(0))


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then (re)builds the harness and the CLI."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", MODEL):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing: run from a full checkout")
    bdir = build_dir()
    quiet = dict(cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True)
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(bdir), *generator, "-DCMAKE_BUILD_TYPE=Release"],
                       **quiet)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(len(cores())),
                    "--target", "perfbench", "dsml"], **quiet)
    return bdir / "perfbench", bdir / "dsml_tools" / "dsml"


def pinned(cpus):
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_child(cmd, env, cpus=None):
    """Runs cmd to completion; returns (stdout, peak RSS in MB, wall s)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=sys.stderr, preexec_fn=pinned(cpus))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} exited with "
                         f"{proc.returncode}")
    return out, usage.ru_maxrss / 1024.0, wall


class Server:
    """A `dsml serve --listen 0` child, pinned to its own cores."""

    def __init__(self, dsml, env, cpus):
        self.proc = subprocess.Popen(
            [str(dsml), "serve", "--models", f"applu={MODEL}", "--listen",
             "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=pinned(cpus))
        banner = b""
        deadline = time.monotonic() + 30
        try:
            while not (found := LISTENING.search(banner)):
                left = max(deadline - time.monotonic(), 0)
                ready, _, _ = select.select([self.proc.stderr], [], [], left)
                chunk = (os.read(self.proc.stderr.fileno(), 4096) if ready
                         else b"")
                if not chunk:
                    raise BenchError("dsml serve did not start: "
                                     + banner.decode(errors="replace"))
                banner += chunk
            self.port = int(found.group(1))
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """Stops the server; returns its peak RSS in MB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            self.proc.stderr.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.proc.stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def parse_result(out):
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("the harness printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, binaries):
    """Returns (harness result, extra end-to-end metrics, report lines)."""
    perfbench, dsml = binaries
    cpus = cores()
    env = dict(os.environ)
    common = ["--workload", workload, "--seed", str(seed)]
    run_args = ["run", *common, "--seconds", str(seconds), "--trace",
                "1" if trace else "0"]
    setup_times = []
    lines = []
    with tempfile.TemporaryDirectory(dir=build_dir()) as cache:
        # A fresh, empty sweep cache for every run; the harness also turns
        # the cache off, so a sweep is always simulated.
        env["DSML_CACHE_DIR"] = cache
        if workload != "serve-small":
            env["DSML_THREADS"] = str(len(cpus))
            lines.append(f"pinning: none; DSML_THREADS={len(cpus)}")
            if not trace:
                for _ in range(SETUP_REPS):
                    setup_times.append(run_child(
                        [perfbench, "setup", *common], env)[2])
            out, rss, _ = run_child([perfbench, *run_args], env)
        else:
            # One pinned connection: the server is one poll thread, and a
            # second connection queues behind the first (p50 then moved
            # 143-185 us from run to run against 103-106 us with one).
            client_cpus = cpus[:1] if len(cpus) > 1 else None
            server_cpus = cpus[-1:] if len(cpus) > 1 else None
            server_env = dict(env, DSML_THREADS="1")
            lines.append(f"pinning: server cpus {server_cpus}, client cpus "
                         f"{client_cpus}; 1 connection")
            if not trace:
                for _ in range(SETUP_REPS):
                    start = time.perf_counter()
                    server = Server(dsml, server_env, server_cpus)
                    try:
                        run_child([perfbench, "setup", *common,
                                   "--port", str(server.port)], env,
                                  client_cpus)
                        setup_times.append(time.perf_counter() - start)
                    finally:
                        server.stop()
            server = Server(dsml, server_env, server_cpus)
            try:
                out, _, _ = run_child(
                    [perfbench, *run_args, "--port", str(server.port)],
                    env, client_cpus)
            finally:
                # The system's memory is the server's; the client keeps
                # every response, so its RSS grows with throughput.
                rss = server.stop()
    result = parse_result(out)
    extra = {}
    if not trace:
        extra["setup_s"] = (statistics.median(setup_times), len(setup_times))
        extra["peak_rss_mb"] = (rss, 1)
    return result, extra, lines


def report(workload, seed, trace, spec, result, extra, lines):
    """Prints the human-readable report; returns the contract's JSON object."""
    section = spec["per_layer" if trace else "end_to_end"]
    measured = dict(result["metrics"])
    samples = dict(result.get("samples", {}))
    for name, (value, n) in extra.items():
        measured[name] = value
        samples[name] = n
    known = {m["name"] for m in section}
    unknown = set(measured) - known
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    metrics = {}
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for line in lines + result.get("notes", []):
        print(f"  {line}")
    for m in section:
        name = m["name"]
        if name in measured:
            value = measured[name]
        elif trace and name not in TRACE_METRICS[workload]:
            value = 0.0
        else:
            raise BenchError(f"{workload} did not report {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
        n = samples.get(name)
        print(f"  {name:24s} {value:14.6g} {m['unit']:8s}"
              + (f" (n={n})" if n else ""))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac {failed}/{attempted} = "
          f"{failed / attempted if attempted else 0:.6g}")
    return {"correct": bool(result["correct"]), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def machine_record(binaries):
    perfbench, _ = binaries
    env = dict(os.environ, DSML_THREADS=str(len(cores())))
    record = json.loads(run_child([perfbench, "machine"], env)[0])
    cpu_model = "unknown"
    virtual_machine = False
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
            elif line.startswith("flags"):
                virtual_machine = " hypervisor" in line
    cache = {}
    with open(build_dir() / "CMakeCache.txt") as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value.strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    return {
        "nproc": len(cores()),
        "hardware_concurrency": record["hardware_concurrency"],
        "DSML_THREADS": {"sweep-mcf": len(cores()),
                         "campaign-mcf": len(cores()),
                         "serve-small server": 1},
        "cpu_model": cpu_model,
        "virtual_machine": virtual_machine,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "linalg_backend": record["linalg_backend"],
        "simd_variant": record["simd_variant"],
        "pinning": {"sweep-mcf": "none", "campaign-mcf": "none",
                    "serve-small client": cores()[:1],
                    "serve-small server": cores()[-1:]},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--machine", action="store_true",
                        help="print the machine record and exit")
    args = parser.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        binaries = build()
        if args.machine:
            print(json.dumps(machine_record(binaries), indent=2))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outputs = {}
        for workload in names:
            result, extra, lines = run_workload(workload, args.seed, seconds,
                                                bool(args.trace), binaries)
            outputs[workload] = report(workload, args.seed, bool(args.trace),
                                       spec, result, extra, lines)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    if len(outputs) == 1:
        final = next(iter(outputs.values()))
    else:
        final = {
            "correct": all(o["correct"] for o in outputs.values()),
            "attempted": sum(o["attempted"] for o in outputs.values()),
            "failed": sum(o["failed"] for o in outputs.values()),
            "metrics": {f"{w}.{n}": m for w, o in outputs.items()
                        for n, m in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
