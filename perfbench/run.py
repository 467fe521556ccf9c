"""Benchmark of the rookchar command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rookchar checkout; the program is imported from its
``src/`` directory.  One client runs the workload's commands one at a time,
each in a fresh interpreter (a closed loop), and repeats the list in rounds
until ``--seconds`` have passed.  Each command's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over the rounds: ``wall_s`` (one round), ``cmd1_s`` and ``cmd2_s``
(the workload's two named commands, spawn to exit), ``peak_rss_mb`` (largest
``ru_maxrss`` of a round's children) and ``setup_s`` (a fresh interpreter
through ``import rookchar.cli``, sampled before each round).  With ``--trace 1``
untraced CLI rounds alternate with traced rounds that call ``rookchar.cli``
in this process, and the last line reports the per-layer metrics of
``layers.py`` as medians over the traced rounds.

The line before the last one is a summary record; the full record (run
context, every sample, each child's start time) and, when tracing, the spans
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402

# Every run must finish well inside 180 s; a child still running when this
# budget is spent is killed and counted as failed.
BUDGET_S = 150.0
# Set-up is sampled once before each round, and at least this many times.
MIN_SETUP_SAMPLES = 5
SETUP_ARGV = ["-c", "import rookchar.cli"]

# Run in a child, so versions and the OpenBLAS thread count are those the
# program's children see.
CONTEXT_PROBE = r"""
import ctypes, json, sys, numpy
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path and ".so" in path:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "openblas_threads": threads}))
"""


@dataclass
class Result:
    label: str
    code: int
    stdout: str
    seconds: float
    maxrss_kb: int
    started_unix: float
    error: str | None = None


class Runner:
    """Spawns the program's children inside one run's time budget."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, label: str, argv: list[str]) -> Result:
        stderr_path = self.workdir / "stderr.txt"
        with open(stderr_path, "wb") as err:
            started_unix = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(label, proc.returncode, out.decode("utf-8", "replace"), seconds,
                        usage.ru_maxrss, started_unix)
        if proc.returncode != 0:
            result.error = f"exit {proc.returncode}: " + stderr_path.read_text(
                encoding="utf-8", errors="replace")[-500:]
        return result

    def command(self, cmd: workloads.Command) -> Result:
        result = self.spawn(cmd.label, ["-m", "rookchar.cli", *cmd.argv])
        if result.error is None:
            result.error = workloads.run_check(cmd.check, result.code, result.stdout)
        result.stdout = ""  # checked; not kept
        return result

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


def run_round(runner: Runner, workload: workloads.Workload) -> list[Result]:
    return [runner.command(cmd) for cmd in workload.commands]


def round_builder(name: str, seed: int, workdir: Path):
    return lambda round_index: workloads.build(name, seed, round_index, workdir)


def summarize(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples), "max": max(samples),
            "samples": len(samples)}


def setup_sample(runner: Runner) -> float:
    """Seconds for a fresh interpreter to import rookchar.cli and exit."""
    result = runner.spawn("setup", SETUP_ARGV)
    if result.code != 0:
        raise RuntimeError(f"cannot import rookchar.cli: {result.error}")
    return result.seconds


def run_context(runner: Runner) -> dict:
    probe = runner.spawn("context", ["-c", CONTEXT_PROBE])
    context = json.loads(probe.stdout) if probe.code == 0 else {"error": probe.error}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            sha = git.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rookchar").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    context.update({
        "nproc": nproc,
        "machine": platform.machine(),
        "openblas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    })
    return context


def end_to_end(rounds: list[list[Result]], setup: list[float],
               workload: workloads.Workload) -> dict:
    def times(label: str) -> list[float]:
        return [r.seconds for rnd in rounds for r in rnd if r.label == label]

    first, second = workload.primary
    med = statistics.median
    return {
        "wall_s": (med([sum(r.seconds for r in rnd) for rnd in rounds]), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med([max(r.maxrss_kb for r in rnd) / 1024 for rnd in rounds]), "MB"),
        "cmd1_s": (med(times(first)), "s"),
        "cmd2_s": (med(times(second)), "s"),
    }


def traced_round(workload: workloads.Workload, tracer, decompose) -> tuple[list[Result], list, float]:
    """Run the workload's commands in this process with the tracer installed.

    ``decompose`` is the program's cached function itself, not its wrapper.
    """
    import rookchar.cli as cli

    results, traced = [], []
    round_s = 0.0
    for cmd in workload.commands:
        tracer.values = {}
        before = tracer.snapshot()
        decompose.cache_clear()  # a fresh process starts with a cold cache
        out, err = io.StringIO(), io.StringIO()
        started_unix = time.time()
        t0 = time.perf_counter()
        with tracer.span(f"command:{cmd.label}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        seconds = time.perf_counter() - t0
        round_s += seconds
        info = decompose.cache_info()
        after = tracer.snapshot()
        stats = {
            name: (calls - before.get(name, (0, 0.0, 0.0))[0],
                   self_s - before.get(name, (0, 0.0, 0.0))[1],
                   total_s - before.get(name, (0, 0.0, 0.0))[2])
            for name, (calls, self_s, total_s) in after.items()
        }
        stdout = out.getvalue()
        traced.append(layers.TracedCommand(cmd.label, stats, tracer.values, info.hits,
                                           info.misses, len(stdout.encode("utf-8"))))
        result = Result(cmd.label, code, "", seconds, 0, started_unix)
        if code != 0:
            result.error = f"exit {code}: {err.getvalue()[-500:]}"
        else:
            result.error = workloads.run_check(cmd.check, code, stdout)
        results.append(result)
    return results, traced, round_s


def trace_run(runner: Runner, build, seconds: float, trace_path: Path):
    """Alternate untraced CLI rounds with traced in-process rounds."""
    sys.path.insert(0, str(SRC))
    import tracing
    from rookchar.quasicycles import decompose

    plain: list[list[Result]] = []
    traced_results: list[list[Result]] = []
    per_round: list[dict] = []
    traced_s: list[float] = []
    end = time.perf_counter() + seconds
    while not per_round or (time.perf_counter() < end and not runner.expired()):
        workload = build(len(plain))  # both rounds of a pair get the same inputs
        plain.append(run_round(runner, workload))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            results, traced, round_s = traced_round(workload, tracer, decompose)
        traced_results.append(results)
        traced_s.append(round_s)
        per_round.append(layers.round_metrics(traced))
    metrics = {name: (statistics.median([m[name] for m in per_round]), layers.PER_LAYER[name])
               for name in per_round[0]}
    wall = statistics.median([sum(r.seconds for r in rnd) for rnd in plain])
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / wall, "ratio")
    trace_path.write_text(json.dumps({
        "note": "spans of the last traced round; times in seconds from perf_counter; "
                "'inner' holds the leaf calls (compose, decompose, ...) made inside a span",
        "computed_not_measured": [n for n in layers.PER_LAYER if n.endswith("_computed")],
        "spans": tracer.spans,
        "stats": {k: vars(v) for k, v in tracer.stats.items()},
    }, indent=1), encoding="utf-8")
    return plain, traced_results, metrics, {"traced_round_s": traced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rookchar" / "cli.py").is_file():
        print(f"error: no rookchar sources under {SRC}; run from a rookchar checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        runner = Runner(workdir, started)
        build = round_builder(args.workload, args.seed, workdir)
        workload = build(0)
        context = run_context(runner)
        if args.trace:
            rounds, traced, metrics, extra = trace_run(runner, build, args.seconds,
                                                       OUT / f"trace-{tag}.json")
        else:
            setup_sample(runner)  # compiles bytecode; not timed
            setup, rounds, traced = [], [], []
            end = time.perf_counter() + args.seconds
            while not rounds or (time.perf_counter() < end and not runner.expired()):
                setup.append(setup_sample(runner))
                rounds.append(run_round(runner, build(len(rounds))))
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(setup_sample(runner))
            metrics = end_to_end(rounds, setup, workload)
            extra = {"setup_s": setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for rnd in rounds + traced for r in rnd]
    failures = [f"{r.label}: {r.error}" for r in results if r.error]
    commands = {
        f"{cmd.label}_s": summarize([r.seconds for rnd in rounds for r in rnd
                                     if r.label == cmd.label])
        for cmd in workload.commands
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "why": workloads.WHY[args.workload],
        "load": "closed loop, one client, one child process at a time",
        "rounds": len(rounds),
        "commands": commands,
        "failures": failures[:10],
        "context": context,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = dict(record, context={k: context.get(k) for k in ("nproc", "openblas_threads",
                                                                 "git_sha")})
    record["samples"] = [
        [{"label": r.label, "seconds": r.seconds, "maxrss_kb": r.maxrss_kb,
          "started_unix": r.started_unix, "error": r.error} for r in rnd]
        for rnd in rounds + traced
    ]
    record.update(extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
