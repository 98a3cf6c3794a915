"""Benchmark of the dpe-multipath CLI: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each operation is one ``python -m dpe_multipath ...`` invocation in a fresh
child process, run in a closed loop with one client: the next operation
starts only after the previous one has ended and been checked.  One warm-up
operation, checked but not timed, precedes the timed loop.  Wall time is
taken around the child, CPU time and peak RSS from its ``os.wait4`` rusage.

Every operation must exit 0, print no traceback, pass the workload's own
check, and write files whose sha256 digests equal those recorded in
``digests.json`` for this workload and seed (or, for a seed without a
record, those of the run's first operation).  Any miss counts the operation
as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced operations with traced ones (see
``tracer.py``) and reports the per-layer metrics, among them the tracing
overhead.  The last line of stdout is one JSON object; a record with
provenance and every sample is written under ``.bench_work/results``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import Span, self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
OP_TIMEOUT_S = 120.0
SETUP_MIN = 5  # set-up is measured once after each operation, and at least this often
SETUP_CODE = (
    "import sys\n"
    "from dpe_multipath import cli\n"
    "for name in sys.argv[1:]:\n"
    "    cli.load_scenario(name)\n"
)


@dataclass
class Op:
    wall: float
    cpu: float
    rss_mb: float
    error: str | None = None


@dataclass
class Sample:
    """Everything one run measured; ``traced`` holds one span list per traced op."""

    warmup: list[Op] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    traced_ops: list[Op] = field(default_factory=list)
    traced: list[list[Span]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[int, float, os.struct_rusage]:
    """Run ``cmd`` to completion: exit code, wall seconds, rusage of that child.

    A child still running after OP_TIMEOUT_S is killed, so a hung operation
    ends as a failed one (negative exit code) instead of stalling the run.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def file_digests(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its relative path."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        digests[path.relative_to(out).as_posix()] = h.hexdigest()
    return digests


class DigestGate:
    """Output bytes must match the expected digests; the first op sets them if none."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected

    def check(self, digests: dict[str, str]) -> str | None:
        if self.expected is None:
            self.expected = digests
            return None
        if digests == self.expected:
            return None
        changed = sorted(k for k in digests.keys() | self.expected.keys()
                         if digests.get(k) != self.expected.get(k))
        return f"output bytes differ from the recorded digests: {', '.join(changed)}"


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def run_op(cmd: list[str], out: Path, workload: Workload, gate: DigestGate) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    status, wall, usage = spawn(cmd, out.with_suffix(".stdout"), out.with_suffix(".stderr"))
    op = Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    stderr = out.with_suffix(".stderr").read_text(errors="replace")
    if status != 0:
        op.error = f"exit {status}: {stderr.strip()[-300:]}"
    elif "Traceback" in stderr:
        op.error = "traceback on stderr"
    else:
        op.error = workload.check(out) or gate.check(file_digests(out))
    shutil.rmtree(out, ignore_errors=True)
    return op


def measure_setup(scenarios: list[str], workdir: Path) -> float:
    """Fresh interpreter, import of dpe_multipath.cli, load of the inputs."""
    cmd = [sys.executable, "-c", SETUP_CODE, *scenarios]
    status, wall, _ = spawn(cmd, workdir / "setup.stdout", workdir / "setup.stderr")
    if status != 0:
        err = (workdir / "setup.stderr").read_text(errors="replace").strip()
        raise RuntimeError(f"set-up failed with exit {status}: {err[-300:]}")
    return wall


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 record: bool) -> tuple[Sample, list[str]]:
    workdir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenarios = workload.scenarios(seed, workdir)
    argv = workload.argv(seed, scenarios)
    gate = DigestGate(None if record else recorded_digests(workload.name, seed))
    sample = Sample()

    measure_setup(scenarios, workdir)  # warm-up: byte-compiles the package once
    cli = [sys.executable, "-m", "dpe_multipath", *argv, "--out"]
    sample.warmup.append(run_op(cli + [str(workdir / "warmup")], workdir / "warmup",
                                workload, gate))
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        sample.ops.append(run_op(cli + [str(workdir / f"out{k}")], workdir / f"out{k}",
                                 workload, gate))
        if trace:
            spans_file = workdir / f"spans{k}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_file), str(k), "--",
                   *argv, "--out", str(workdir / f"traced{k}")]
            sample.traced_ops.append(run_op(cmd, workdir / f"traced{k}", workload, gate))
            if spans_file.is_file():
                sample.traced.append([Span(**s) for s in json.loads(spans_file.read_text())])
        else:
            sample.setup.append(measure_setup(scenarios, workdir))
        k += 1
        if time.perf_counter() >= deadline:
            break
    while not trace and len(sample.setup) < SETUP_MIN:
        sample.setup.append(measure_setup(scenarios, workdir))

    if record and gate.expected is not None and not any(
            op.error for op in sample.warmup + sample.ops):
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table.setdefault(workload.name, {})[str(seed)] = gate.expected
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if trace:
        all_spans = [s.__dict__ for spans in sample.traced for s in spans]
        (workdir / "spans.json").write_text(json.dumps(all_spans))
    return sample, argv


def percentile_line(values: list[float]) -> str:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {cut:.6g}"
    return "no percentile (fewer than 100 samples)"


def end_to_end(workload: Workload, sample: Sample) -> dict[str, float]:
    good = [op for op in sample.ops if op.error is None] or sample.ops
    attempted = sample.warmup + sample.ops
    wall = statistics.median(op.wall for op in good)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(op.cpu for op in good),
        "peak_rss_mb": statistics.median(op.rss_mb for op in good),
        "throughput": workload.items / wall,
        "setup_s": statistics.median(sample.setup),
        "error_rate": sum(op.error is not None for op in attempted) / len(attempted),
    }


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-op totals: ``<span>.self_s``/``.calls``/counts, ``<module>.self_s``, ``cli.cmd``."""
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for span, own in zip(spans, self_times(spans)):
        add(f"{span.name}.self_s", own)
        add(f"{span.name}.calls", 1)
        add(f"{span.name.split('.')[0]}.self_s", own)
        if span.name.startswith("cli.cmd_"):
            add("cli.cmd.self_s", own)
        for key, value in span.counts.items():
            add(f"{span.name}.{key}", value)
    return totals


def per_layer(sample: Sample, names: list[str]) -> dict[str, float]:
    per_op = [layer_totals(spans) for spans in sample.traced]
    metrics = {name: statistics.median(t.get(name, 0.0) for t in per_op) if per_op else 0.0
               for name in names}
    untraced = statistics.median(op.wall for op in sample.ops)
    traced = statistics.median(op.wall for op in sample.traced_ops)
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def git_commit() -> str:
    """Commit of the checkout from .git, or "unknown" outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "seed": seed,
        "argv": sys.argv,
    }


def run_one(name: str, args, spec: dict) -> dict:
    workload = WORKLOADS[name]
    sample, argv = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                args.record_digests)
    failed = [op for op in sample.warmup + sample.ops + sample.traced_ops
              if op.error is not None]
    for op in failed[:5]:
        print(f"{name}: failed operation: {op.error}")
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values = per_layer(sample, list(wanted))
    else:
        values = end_to_end(workload, sample)
        walls = [op.wall for op in sample.ops]
        print(f"{name}: wall_s samples {len(walls)}, "
              f"{percentile_line(walls)}, error_rate {values['error_rate']:.6g} "
              f"({len(failed)}/{len(sample.warmup) + len(sample.ops)} failed, "
              f"warm-up included)")
        print(f"{name}: throughput in {workload.item} per second, "
              f"{workload.items} per operation")
    for metric, unit in wanted.items():
        print(f"{name}: {metric} = {values[metric]:.6g} {unit}")
    attempted = len(sample.warmup) + len(sample.ops) + len(sample.traced_ops)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in wanted.items()},
    }
    record = {
        "workload": name,
        "provenance": provenance(args.seed),
        "cli_argv": argv,
        "samples": {"warmup": len(sample.warmup), "ops": len(sample.ops),
                    "traced_ops": len(sample.traced_ops), "setup": len(sample.setup)},
        "warmup": [op.__dict__ for op in sample.warmup],
        "ops": [op.__dict__ for op in sample.ops],
        "traced_ops": [op.__dict__ for op in sample.traced_ops],
        "setup_s": sample.setup,
        "values": values,
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests in digests.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "dpe_multipath" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'dpe_multipath'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"provenance: {json.dumps(provenance(args.seed))}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args, spec) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
