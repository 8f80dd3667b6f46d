#!/usr/bin/env python3
"""Benchmark of the fermi-rpa command line on seeded workloads.

    python3 perfbench/run.py --workload radial-sweep --seed 1 --seconds 40 --trace 0

Run from a source checkout; the package is imported from ``src/``.  One
process issues the operations one at a time (a closed loop with one
client), each as a fresh ``python -m fermi_rpa.cli`` child with
FERMI_RPA_THREADS unset and BLAS/OpenMP pinned to one thread.

--trace 0  repeats full passes over the workload's operations for
           --seconds and reports the end-to-end metrics: wall_s and cpu_s
           of a pass (mean over the run's passes), peak_rss_mb (largest
           peak RSS of any operation in a pass; median over passes) and
           setup_s, the median wall time of the run's ``ratio``
           invocations.  wall_s, cpu_s and setup_s are scaled to a
           reference machine speed measured by a speed probe that runs
           before every pass (see timed_run); the summary lines give the
           raw times.
--trace 1  runs one pass through the CLI, then one pass in-process
           through ``fermi_rpa.cli.main`` untraced and one traced (see
           tracing.py), and reports the per-layer metrics.

Every output is checked: nonzero exit, stdout that differs from another
run of the same seed (or between traced and untraced runs), and any
mismatch against reference.py count as a failed operation.  The last
stdout line is the JSON result; the lines above it repeat the metrics
for people, with error_rate and the recorded environment.  Spans, raw
samples and stdout digests go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; numpy is imported after thread pinning)

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES_PER_PASS = 2
SETUP_PER_PROBE = 2
# A fixed program that uses no part of fermi_rpa, run as a child exactly
# like an operation: a fresh interpreter builds and reads a dict of tuple
# keys, interpreter and allocator work like the oracle's state algebra.
# It touches no large numpy arrays: their fresh-page faults made a probe
# noisier than the operations it scales.
SPEED_PROBE = """\
d = {}
for i in range(200000):
    d[(i * 7919 % 1048573, i & 63, i % 7)] = [i]
assert sum(v[0] for v in d.values()) == 199999 * 200000 // 2
"""
# Probe wall and CPU seconds that define the reference speed; 0.45 s is
# about the probe's time on the machine where BASELINE.json was measured.
PROBE_REFERENCE_WALL_S = 0.45
PROBE_REFERENCE_CPU_S = 0.45
RUN_LIMIT_S = 170.0  # every run must end within 180 s
EXIT_NO_PROGRAM = 2
EXIT_SELF_CHECK = 3

_START = time.perf_counter()


def pinned_environment() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FERMI_RPA_THREADS"}
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fermi_rpa").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class OpResult:
    rc: int
    stdout: bytes
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


class CliRunner:
    """Runs one CLI operation as a child and reaps it with its rusage."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        OUT.mkdir(parents=True, exist_ok=True)

    def run(self, argv: List[str]) -> OpResult:
        return self.run_python(["-m", "fermi_rpa.cli", *argv])

    def run_python(self, args: List[str]) -> OpResult:
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - _START))
        with open(OUT / f"child-{os.getpid()}.stdout", "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.DEVNULL,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.daemon = True
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
            out.seek(0)
            stdout = out.read()
        return OpResult(
            rc=proc.returncode,
            stdout=stdout,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )


def run_in_process(main: Callable, argv: List[str]) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return OpResult(rc=rc or 0, stdout=out.getvalue().encode("utf-8"), wall=time.perf_counter() - start)


class Checker:
    """Counts attempted and failed operations.

    An operation fails on a nonzero exit, on stdout that differs from
    the first stdout of the same operation (this run, or an earlier run
    of the same seed on the same source), or on a reference mismatch.
    """

    def __init__(self, checks: Dict[str, Callable[[str], List[str]]], digest_path: Path = None):
        self.checks = checks
        self.digest_path = digest_path
        self.expected: Dict[str, str] = {}
        if digest_path is not None and digest_path.is_file():
            self.expected = json.loads(digest_path.read_text())
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._verdicts: Dict[tuple, List[str]] = {}

    def record(self, label: str, result: OpResult) -> bool:
        self.attempted += 1
        problems = [] if result.rc == 0 else [f"exit code {result.rc}"]
        digest = hashlib.sha256(result.stdout).hexdigest()
        if self.expected.setdefault(label, digest) != digest:
            problems.append("stdout differs from an earlier run of the same operation")
        key = (label, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self.checks[label](result.stdout.decode("utf-8", "replace"))
        problems += self._verdicts[key]
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {problems[0]}")
        return not problems

    def save(self) -> None:
        if self.digest_path is not None and self.failed == 0:
            self.digest_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.digest_path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.expected, sort_keys=True))
            os.replace(tmp, self.digest_path)


def build_checks(workload) -> Dict[str, Callable[[str], List[str]]]:
    import reference

    checks = {"ratio": reference.check_ratio}
    if workload.name == "fock-oracle":
        expect = reference.oracle_expectations(
            workloads.ORACLE_HOLES_N, workloads.ORACLE_LAMBDA_SQ, workloads.ORACLE_PAIRS
        )
        checks["oracle"] = lambda text: reference.check_oracle(
            text, expect, workload.oracle_seed, workloads.ORACLE_TRIALS
        )
        return checks
    ref = reference.Reference(workload.potential, workloads.SUPPORT_RADIUS_SQ)
    if workload.name == "radial-sweep":
        checks["compare"] = lambda text: reference.check_compare_csv(text, ref, workloads.RADIAL_NS)
        return checks
    n = workloads.BULK_N
    exact = ref.corr_delocalized_exact(n)
    optimal, optimal_err = ref.corr_optimal(n)
    checks.update(
        {
            "hf": lambda text: reference.check_hf_json(text, ref, n),
            "corr-delocalized-exact": lambda text: reference.check_float_line(
                "corr delocalized-exact", text, exact, reference.REL_TOL * abs(exact)
            ),
            "errors-exact": lambda text: reference.check_errors_json(text, ref, n, "exact"),
            "corr-optimal": lambda text: reference.check_float_line(
                "corr optimal", text, optimal, optimal_err
            ),
        }
    )
    return checks


@dataclass
class PassStats:
    wall: float
    cpu: float
    rss_mb: float


def cli_pass(workload, runner: CliRunner, checker: Checker) -> PassStats:
    """One pass through the CLI; its times sum the operations only, so the
    checks made between operations are not measured."""
    results = []
    for label, argv in workload.ops:
        result = runner.run(argv)
        checker.record(label, result)
        results.append(result)
    return PassStats(
        wall=sum(r.wall for r in results),
        cpu=sum(r.cpu for r in results),
        rss_mb=max(r.rss_mb for r in results),
    )


def in_process_pass(workload, main: Callable, checker: Checker, tracer=None) -> float:
    wall = 0.0
    for label, argv in workload.ops:
        with tracer.span(f"op.{label}") if tracer else nullcontext():
            result = run_in_process(main, argv)
        checker.record(label, result)
        wall += result.wall
    return wall


def tail(samples: List[float]) -> str:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p:g}={ordered[rank - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def timed_run(workload, seconds: int, runner: CliRunner, checker: Checker):
    """Repeat a cycle of PROBES_PER_PASS speed probes, each followed by
    SETUP_PER_PROBE ``ratio`` calls, and one full pass until the next
    cycle would overrun --seconds.

    On a shared host the speed at which children run changes in spells
    of seconds to minutes (pass times differed by up to 1.87x over the
    runs of BASELINE.json), and everything run in a child slows down
    together, so each run reports its times scaled by
    PROBE_REFERENCE_*_S / (median probe time of the run): seconds at the
    reference speed.  The raw times are kept in the samples.
    """

    def setup_sample() -> float:
        result = runner.run(["ratio"])
        checker.record("ratio", result)
        return result.wall

    def probe() -> OpResult:
        result = runner.run_python(["-c", SPEED_PROBE])
        if result.rc != 0:
            raise RuntimeError(f"speed probe exited with code {result.rc}")
        return result

    checker.record("ratio", runner.run(["ratio"]))  # warm-up: byte-compiles src, untimed
    passes: List[PassStats] = []
    setup: List[float] = []
    probes: List[OpResult] = []
    deadline = min(time.perf_counter() + seconds, _START + RUN_LIMIT_S - 20)
    while True:
        for _ in range(PROBES_PER_PASS):
            probes.append(probe())
            setup += [setup_sample() for _ in range(SETUP_PER_PROBE)]
        passes.append(cli_pass(workload, runner, checker))
        step = statistics.median(p.wall for p in passes) + PROBES_PER_PASS * (
            statistics.median(p.wall for p in probes)
            + SETUP_PER_PROBE * statistics.median(setup)
        )
        if time.perf_counter() + step > deadline:
            break
    samples = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "peak_rss_mb": [p.rss_mb for p in passes],
        "setup_s": setup,
        "probe_wall_s": [p.wall for p in probes],
        "probe_cpu_s": [p.cpu for p in probes],
    }
    wall_scale = PROBE_REFERENCE_WALL_S / statistics.median(samples["probe_wall_s"])
    cpu_scale = PROBE_REFERENCE_CPU_S / statistics.median(samples["probe_cpu_s"])
    # Within a run, single pass times are bimodal (fast and slow spells of
    # a few seconds); the mean over passes measured steadier than the median.
    values = {
        "wall_s": statistics.fmean(samples["wall_s"]) * wall_scale,
        "cpu_s": statistics.fmean(samples["cpu_s"]) * cpu_scale,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(setup) * wall_scale,
    }
    return values, samples


def import_program():
    sys.path.insert(0, str(SRC))
    import fermi_rpa.cli

    location = Path(fermi_rpa.cli.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"imported fermi_rpa from {location}, not from {SRC}")
    return fermi_rpa.cli


def traced_run(workload, runner: CliRunner, checker: Checker, layer_names: List[str], out_prefix: str):
    import tracing

    sub = cli_pass(workload, runner, checker)
    cli = import_program()
    untraced = in_process_pass(workload, cli.main, checker)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = in_process_pass(workload, cli.main, checker, tracer)
    tracer.write(OUT / f"{out_prefix}.spans.jsonl")
    totals = tracer.totals()
    metrics = {}
    for name in layer_names:
        metrics[name] = traced - untraced if name == "trace.overhead_s" else tracer.metric(name, totals)
    samples = {"cli_wall_s": sub.wall, "in_process_untraced_s": untraced, "in_process_traced_s": traced}
    return metrics, samples


def self_check(workload_name: str, metrics: Dict[str, float], layers: List[dict]) -> List[str]:
    problems = []
    for entry in layers:
        value = metrics[entry["name"]]
        if workload_name in entry["fires_on"] and not value > 0:
            problems.append(f"{entry['name']} = {value} but should fire on {workload_name}")
        if workload_name in entry["zero_on"] and value != 0:
            problems.append(f"{entry['name']} = {value} but should read zero on {workload_name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fermi_rpa" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'fermi_rpa'}; run from a checkout\n")
        return EXIT_NO_PROGRAM
    # pin threads before anything imports numpy, here or in the traced run
    env = pinned_environment()
    os.environ.clear()
    os.environ.update(env)
    import numpy

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if sorted(m["name"] for m in bench["per_layer"]) != sorted(e["name"] for e in layers):
        sys.stderr.write("perfbench: BENCHMARK.json per_layer and layers.json disagree\n")
        return EXIT_SELF_CHECK

    tag = f"{args.workload}-seed{args.seed}"
    workload = workloads.make_workload(args.workload, args.seed, OUT / "inputs" / tag)
    checker = Checker(build_checks(workload), OUT / "digests" / source_digest() / f"{tag}.json")
    runner = CliRunner(env)
    if args.trace:
        values, samples = traced_run(
            workload, runner, checker, [m["name"] for m in declared], f"{tag}-trace"
        )
        problems = self_check(args.workload, values, layers)
        if problems:
            sys.stderr.write("perfbench self-check failed:\n  " + "\n  ".join(problems) + "\n")
            return EXIT_SELF_CHECK
    else:
        values, samples = timed_run(workload, args.seconds, runner, checker)
    checker.save()

    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "FERMI_RPA_THREADS": "unset",
        "blas_threads": 1,
        "source": source_digest(),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "samples": samples, "environment": environment,
                    "failures": checker.messages}, indent=1)
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment.items()))
    for message in checker.messages[:10]:
        print(f"  FAILED {message}")
    for m in declared:
        line = f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}"
        if isinstance(samples.get(m["name"]), list):
            runs = samples[m["name"]]
            line += f"  (n={len(runs)}, median {statistics.median(runs):.6g}, {tail(runs)})"
        print(line)
    print(f"  {'error_rate':<48} {checker.failed / checker.attempted:.6g} failed/attempted "
          f"({checker.failed} of {checker.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
