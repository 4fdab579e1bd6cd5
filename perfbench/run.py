#!/usr/bin/env python3
"""Benchmark of toriq, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the checkout it sits in, importing toriq
from that checkout's ``src``.  Workloads (see README.md for why each exists):

  cli_cold      cold ``python -m toriq.cli --json reproduce CASE`` processes,
                one after another, rotating through the six bundled cases
  warm_session  one long-lived process running a seeded mix of witness,
                fibre and analyze requests on random stable quasimaps
  fan_cold      passes over a relabelled fan corpus, each pass in a fresh
                process so every module cache starts empty

Each is a closed loop with one client.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics, from a run in which
every other operation is traced.  End-to-end times are normalised to the
host's nominal speed against a reference computation (calibrate.py); the raw
wall times are on the "perfbench:" line.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it starts
with "perfbench:" and records the environment, sample counts and the span
file.  ``--smoke`` shrinks set-up to one round and a tiny input pool.
"""

import argparse
import hashlib
import json
import os
import platform
import queue
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibrate import FRACTION_NOMINAL_MS, SYMPY_NOMINAL_MS, normalise, sympy_ms
from tracing import FUNCTIONS, TRACED, SpanLog
from worker import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = str(HERE / "worker.py")

CASES = ("table1", "segre", "blowup-embeddings", "family-t",
         "extension-degree", "witness-demo")
SETUP_ROUNDS = 3  # set-up is repeated and its median reported
WARM_POOL = 128  # stable quasimaps per warm_session target
FLOOR_SAMPLES = 5
RUN_BUDGET_S = 170  # a run never waits past this
CHILD_TIMEOUT_S = 60
TAIL_LADDER = (50, 90)
NOMINAL_MS = {"cli_cold": SYMPY_NOMINAL_MS, "warm_session": FRACTION_NOMINAL_MS,
              "fan_cold": FRACTION_NOMINAL_MS}  # of each workload's reference


class RunFailed(Exception):
    """The workload could not run at all; no result is printed."""


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """The highest ``TAIL_LADDER`` percentile with at least 10 samples beyond
    it (the median when there are too few samples), as (percentile, value)."""
    n = len(values)
    pct = max([p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10], default=50)
    return pct, percentile(values, pct)


def metric(value, unit):
    return {"value": value, "unit": unit}


def child_env():
    """Children import toriq from this checkout and keep bytecode inside it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Child:
    """A worker process whose stdout JSON lines a reader thread collects."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, WORKER, *map(str, args)],
                                     stdout=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT, text=True)
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if line.startswith("{"):
                self._lines.put(json.loads(line))
        self._lines.put(None)

    def messages(self):
        """Messages until the child closes stdout; TimeoutError at the deadline."""
        while True:
            try:
                msg = self._lines.get(timeout=max(self.deadline - time.monotonic(), 0))
            except queue.Empty:
                raise TimeoutError from None
            if msg is None:
                return
            yield msg

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        self.close()

    def close(self):
        """Stop the child if it still runs and wait for it and its reader."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()
        return self.proc.returncode


class Run:
    """State of one benchmark run: timed operations and what children report."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.setup_s = []
        self.setup_ref_ms = []  # the reference measured around each set-up
        self.ops = []  # dicts: op, ms, ref_ms, ok, traced (+ size for fibres)
        self.failed_unrun = 0  # operations lost to a timeout
        self.import_ms = []
        self.sympy_loaded = []
        self.rss_mb = []
        self.cache = []  # (entries, hits, misses) per measured process
        self.floor_ms = []
        self.spans = SpanLog()
        self.spans_path = OUT / f"{args.workload}.spans"

    def child_deadline(self):
        return min(time.monotonic() + CHILD_TIMEOUT_S, self.deadline)

    def take_spans(self, path):
        if path.exists():
            log, meta = SpanLog.load(path)
            self.spans.extend(log)
            path.unlink()
            return meta
        return {}

    def child_report(self, msg):
        if "ready" in msg:
            self.setup_ref_ms.append(msg["ref_ms"])
            self.import_ms.append(msg["import_ms"])
            self.sympy_loaded.append(msg["sympy_loaded"])
        if "done" in msg:
            self.rss_mb.append(msg["rss_mb"])
            self.cache.append((msg["cache_entries"], msg["cache_hits"], msg["cache_misses"]))


def python_floor_ms():
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
    return (perf_counter() - start) * 1000


def run_cli_cold(run):
    """Cold CLI processes in a closed loop, rotating through the cases."""
    args = run.args
    order = list(CASES)
    random.Random(f"cli_cold/{args.seed}").shuffle(order)

    def invoke(case, spans=None):
        if spans is None:
            argv = [sys.executable, "-m", "toriq.cli"]
        else:
            argv = [sys.executable, WORKER, "cli", str(spans)]
        argv += ["--json", "reproduce", case]
        start = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                                  cwd=ROOT, timeout=max(run.child_deadline() - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            return (perf_counter() - start) * 1000, False
        ms = (perf_counter() - start) * 1000
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["passed"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            print(f"cli_cold: {case} failed (exit {proc.returncode}): {proc.stderr[-2000:]}",
                  file=sys.stderr)
        return ms, ok

    def reference():
        # untraced runs only: end-to-end metrics never come from a traced run
        return None if args.trace else sympy_ms(child_env(), ROOT)

    # set-up: compile and cache bytecode with one untimed run per case, and
    # time the bare interpreter start; a reference before and after each round
    for _ in range(1 if args.smoke else SETUP_ROUNDS):
        before = reference()
        start = time.monotonic()
        for case in order:
            invoke(case)
        run.floor_ms.append(statistics.median(python_floor_ms() for _ in range(FLOOR_SAMPLES)))
        run.setup_s.append(time.monotonic() - start)
        after = reference()
        run.setup_ref_ms.append(None if args.trace else (before + after) / 2)
    ref_ms = after

    first = time.monotonic()
    i = 0
    while time.monotonic() - first < args.seconds or \
            (args.trace and len({op["traced"] for op in run.ops}) < 2):
        if time.monotonic() >= run.deadline:
            break
        case = order[i % len(order)]
        traced = bool(args.trace) and i % 2 == 1
        spans = OUT / f"cli-{os.getpid()}-{i}.spans" if traced else None
        ms, ok = invoke(case, spans)
        before, ref_ms = ref_ms, reference()
        if traced:
            meta = run.take_spans(spans)
            if meta:
                run.import_ms.append(meta["import_ms"])
                run.sympy_loaded.append(meta["sympy_loaded"])
                cache = meta["cache"]
                run.cache.append((cache["entries"], cache["hits"], cache["misses"]))
        run.ops.append({"op": case, "ms": ms, "ok": ok, "traced": traced,
                        "ref_ms": None if args.trace else (before + ref_ms) / 2})
        i += 1
    # ru_maxrss of children is the largest child's peak; every child here is
    # a toriq CLI process or a bare interpreter
    run.rss_mb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def run_warm_session(run):
    """One long-lived session; set-up runs in separate processes too, for its median."""
    args = run.args
    pool = 2 if args.smoke else WARM_POOL
    rounds = 1 if args.smoke else SETUP_ROUNDS
    spans = OUT / f"warm-{os.getpid()}.spans"
    for round_index in range(rounds):
        measured = round_index == rounds - 1
        deadline = run.deadline if measured else run.child_deadline()
        in_flight = False  # the measured worker is inside an operation
        with Child(["warm", args.seed, args.seconds, args.trace, pool,
                    int(not measured), spans], deadline) as child:
            try:
                for msg in child.messages():
                    run.child_report(msg)
                    if "ready" in msg:
                        run.setup_s.append(msg["ready"] - child.spawned)
                        in_flight = measured
                    elif "op" in msg:
                        run.ops.append(msg)
                    elif "done" in msg:
                        in_flight = False
            except TimeoutError:
                print("warm_session: worker timed out", file=sys.stderr)
        if len(run.setup_s) <= round_index:
            raise RunFailed(f"warm_session worker exited with {child.proc.returncode} "
                            "before its set-up ended")
        run.failed_unrun += int(in_flight)
    run.take_spans(spans)


def run_fan_cold(run):
    """Passes over the fan corpus, each in a fresh worker process and timed
    as one operation."""
    args = run.args
    first = None
    pass_index = 0
    while first is None or time.monotonic() - first < args.seconds or \
            (args.trace and len({op["traced"] for op in run.ops}) < 2):
        if time.monotonic() >= run.deadline:
            break
        traced = int(bool(args.trace) and pass_index % 2 == 1)
        spans = OUT / f"fan-{os.getpid()}-{pass_index}.spans"
        received = 0
        with Child(["fan", args.seed, pass_index, traced, spans],
                   run.child_deadline()) as child:
            try:
                for msg in child.messages():
                    run.child_report(msg)
                    if "ready" in msg:
                        run.setup_s.append(msg["ready"] - child.spawned)
                        first = first or msg["ready"]
                    elif "op" in msg:
                        run.ops.append(msg)
                        received += 1
            except TimeoutError:
                print(f"fan_cold: pass {pass_index} timed out", file=sys.stderr)
        if first is None:
            raise RunFailed(f"fan_cold worker exited with {child.proc.returncode} "
                            "before its set-up ended")
        run.failed_unrun += 1 - received
        run.take_spans(spans)
        pass_index += 1


WORKLOADS = {"cli_cold": run_cli_cold, "warm_session": run_warm_session,
             "fan_cold": run_fan_cold}


def end_to_end(run):
    """Metrics from normalised times (calibrate.py); the raw ones go to info."""
    nominal = NOMINAL_MS[run.args.workload]
    plain = [op for op in run.ops if not op["traced"]]
    raw_ms = [op["ms"] for op in plain]
    refs = [op["ref_ms"] for op in plain]
    ms = normalise(raw_ms, refs, nominal)
    setup_s = normalise(run.setup_s, run.setup_ref_ms, nominal)
    ok = sum(op["ok"] for op in plain)
    pct, tail_ms = tail(ms)
    metrics = {
        "ops_per_s": metric(ok / (sum(ms) / 1000), "1/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(max(run.rss_mb), "MB"),
    }
    raw = {"ops_per_s": ok / (sum(raw_ms) / 1000), "op_p50_ms": statistics.median(raw_ms),
           "op_tail_ms": tail(raw_ms)[1], "setup_s": statistics.median(run.setup_s),
           "ref_ms": statistics.median(refs), "ref_nominal_ms": nominal,
           "setup_rounds_s": run.setup_s, "setup_ref_ms": run.setup_ref_ms}
    return metrics, {"op_tail_percentile": pct, "samples": len(ms), "raw": raw}


def per_layer(run, attempted, failed):
    plain = [op for op in run.ops if not op["traced"]]
    traced = [op for op in run.ops if op["traced"]]
    n_traced = max(len(traced), 1)
    calls, inclusive, self_time = run.spans.totals()
    metrics = {}
    for label in FUNCTIONS:
        metrics[f"{label}.calls"] = metric(calls[label] / n_traced, "calls/op")
        metrics[f"{label}.ms"] = metric(inclusive[label] * 1000 / n_traced, "ms/op")
    for module in TRACED:
        metrics[f"{module}.self_ms"] = metric(self_time[module] * 1000 / n_traced, "ms/op")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["basepoint.degree_at_point.us_per_call"] = metric(
        ratio(inclusive["basepoint.degree_at_point"] * 1e6, calls["basepoint.degree_at_point"]),
        "us")
    metrics["contraction.grafts_per_witness"] = metric(
        ratio(calls["contraction.graft"], calls["contraction.surjectivity_witness"]),
        "grafts/witness")
    metrics["embedding.validate_embedding.per_fibre"] = metric(
        ratio(calls["embedding.validate_embedding"], calls["embedding.fibre_enumeration"]),
        "calls/fibre")
    sizes = [op["size"] for op in run.ops if "size" in op]
    metrics["embedding.fibre.mean_size"] = metric(ratio(sum(sizes), len(sizes)), "count")
    entries = [c[0] for c in run.cache]
    hits = sum(c[1] for c in run.cache)
    misses = sum(c[2] for c in run.cache)
    metrics["cache.entries"] = metric(ratio(sum(entries), len(entries)), "count")
    metrics["cache.hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")

    plain_ms = [op["ms"] for op in plain]
    p50 = statistics.median(plain_ms)
    metrics["cli.import_ms"] = metric(statistics.median(run.import_ms) if run.import_ms else 0.0,
                                      "ms")
    metrics["cli.sympy_loaded"] = metric(
        ratio(sum(run.sympy_loaded), len(run.sympy_loaded)), "flag")
    if not run.floor_ms:
        run.floor_ms.append(statistics.median(python_floor_ms() for _ in range(FLOOR_SAMPLES)))
    metrics["cli.python_floor_ms"] = metric(statistics.median(run.floor_ms), "ms")
    run_case_ms = inclusive["cases.run_case"] * 1000 / n_traced
    metrics["cli.startup_frac"] = metric(
        1 - run_case_ms / p50 if calls["cases.run_case"] else 0.0, "ratio")
    metrics["trace.overhead_frac"] = metric(
        statistics.fmean(op["ms"] for op in traced) / statistics.fmean(plain_ms) - 1
        if traced else 0.0, "ratio")
    metrics["failed_frac"] = metric(failed / attempted, "ratio")
    info = {}
    for kind in KINDS:
        ms = [op["ms"] for op in plain if op["op"] == kind]
        pct, tail_ms = tail(ms) if ms else (0, 0.0)
        metrics[f"{kind}_p50_ms"] = metric(statistics.median(ms) if ms else 0.0, "ms")
        metrics[f"{kind}_tail_ms"] = metric(tail_ms, "ms")
        if ms:
            info[f"{kind}_tail_percentile"] = pct
            info[f"{kind}_samples"] = len(ms)
    info["traced_ops"] = len(traced)
    info["untraced_ops"] = len(plain)
    return metrics, info


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment():
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git = proc.stdout.strip() or None
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {"python": platform.python_version(), "sympy": sympy,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git": git, "src_sha256": source_digest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "toriq" / "__init__.py").is_file():
        print(f"perfbench: no toriq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        WORKLOADS[args.workload](run)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(run.ops) + run.failed_unrun
    failed = sum(not op["ok"] for op in run.ops) + run.failed_unrun
    if not [op for op in run.ops if not op["traced"]]:
        print("perfbench: no untraced operation completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, info = per_layer(run, attempted, failed)
        if len(run.spans):
            run.spans.dump(run.spans_path, meta={"workload": args.workload, "seed": args.seed})
            info["spans"] = str(run.spans_path.relative_to(ROOT))
    else:
        metrics, info = end_to_end(run)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, env=environment())
    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
