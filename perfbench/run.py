"""Benchmark of the kcycles command-line tool and of its layers.

    python3 perfbench/run.py --workload poly5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

With ``--trace 0`` the workload's command sequence runs through the CLI,
each command a fresh subprocess, one at a time (a closed loop with one
client), repeated until ``--seconds`` would be exceeded.  Before each
command a fixed pure-Python probe runs in this process, pinned with the
commands to one CPU.  ``wall_s``, ``cpu_s`` and ``setup_s`` are medians
over the run scaled by ``PROBE_REFERENCE_S`` over the probe's median
time: on a shared machine the neighbours' load changes the speed of
stretches of minutes by up to a half, and the scaled figures follow the
code rather than the neighbours.  The unscaled medians and the scale are
printed and recorded beside them.  With ``--trace 1`` the
traced pass runs instead: each layer's public functions are called from
``layers.py`` in fresh interpreters, inside spans, and the per-layer
metrics are printed.  Either way the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every command gets a benchmark-owned, initially empty ``--cache-dir``,
and ``KCYCLES_*`` variables are removed from the children's environment,
because a stale cache changes the work: ``verify --level quick``
recomputes every cached table it finds.  Run records and traces are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from layers import REFERENCE, TASKS, Tracer, duration, peel_partitions, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

SETUPS = 7
STARTUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 90
TASK_TIMEOUT_S = 120
WARMUP = ["coeff", "b", "--lambda", "1"]
# The probe's time at the usual speed of the 2-vCPU Xeon VM the first
# baseline was taken on; scaled times are seconds at that speed.
PROBE_REFERENCE_S = 0.1

# Which end-to-end metric each per-layer metric should move, and on which
# workload; written down before any optimization is measured against it.
MOVES = {
    "treepoly.p_family_s.k4": "wall_s/cpu_s on table8 (small share)",
    "treepoly.p_family_s.k5": "wall_s/cpu_s on poly5 and peel5",
    "treepoly.p_family_peak_mb.k5": "peak_rss_mb on poly5 and peel5",
    "treepoly.terms.k5": "peak_rss_mb on poly5 and peel5",
    "treepoly.reduced_s.k5": "wall_s on poly5 only",
    "treepoly.l_poly_s.k5": "wall_s on poly5 only",
    "treepoly.q_eval_us.k4": "wall_s on table8 (small share)",
    "treepoly.q_eval_us.k5": "wall_s on peel5",
    "exact.eval_us.k5": "wall_s on peel5",
    "exact.render_json_s.k5": "wall_s on poly5 only",
    "exact.render_text_s.k5": "wall_s on poly5 only",
    "coeffs.surjection_s.w8": "wall_s on table8; none on poly5 or peel5",
    "coeffs.b_extend_s.w8": "wall_s on table8",
    "coeffs.peel_s.k5": "wall_s on peel5",
    "coeffs.invert_s.w8": "wall_s on table8",
    "coeffs.cup_s": "wall_s on peel5",
    "cache.write_s.w8": "wall_s on table8 (cold command)",
    "cache.load_s.w8": "wall_s on table8 (warm command)",
    "cache.bytes.w8": "wall_s on table8 (both commands)",
    "verify.quick_s": "wall_s on peel5",
    "cli.startup_s": "wall_s on all three workloads",
}


def stdout_check(args: list[str]):
    want = REFERENCE[" ".join(args)]
    return lambda out, cache: sha256(out) == want


def table_check(out: bytes, cache: Path) -> bool:
    # table prints the path it wrote or read; the document must match the
    # reference bytes whether it was computed or loaded
    path = cache / "table-w8.v1.json"
    return (out == f"{path}\n".encode() and path.is_file()
            and sha256(path.read_bytes()) == REFERENCE["table-w8"])


def poly5_commands(rng: random.Random) -> list:
    commands = [["treepoly", "5", "--format", "json"],
                ["treepoly", "5", "--variant", "l:2", "--format", "text"]]
    return [(args, stdout_check(args)) for args in commands]


def table8_commands(rng: random.Random) -> list:
    # the first command computes and writes, the second reads the cache
    return [(["table", "--weight", "8"], table_check)] * 2


def peel5_commands(rng: random.Random) -> list:
    commands = [["coeff", "b", "--lambda", ",".join(map(str, lam))]
                for lam in peel_partitions(rng)]
    commands += [["cup", "--lambda", "5", "--mu", "5"], ["verify", "--level", "quick"]]
    return [(args, stdout_check(args)) for args in commands]


WORKLOADS = {"poly5": poly5_commands, "table8": table8_commands, "peel5": peel5_commands}


def child_env() -> dict[str, str]:
    # PYTHON* settings such as PYTHONDONTWRITEBYTECODE or PYTHONMALLOC would
    # change what every command costs, so the children get none of them
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KCYCLES_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return env


@dataclass
class Child:
    """One finished command: exit code, times, peak memory and output."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: str


class Launcher:
    """The launcher.py process through which a run spawns its commands."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        # the launcher finishes its current command, at most a timeout, then exits
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], timeout: float) -> Child:
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return Child(reply["returncode"], reply["wall_s"], reply["cpu_s"],
                     reply["maxrss_kib"] / 1024, out.read_bytes(),
                     err.read_bytes().decode(errors="replace"))


def cli(launch: Launcher, args: list[str], cache: Path) -> Child:
    argv = [sys.executable, "-m", "kcycles.cli", "--cache-dir", str(cache), *args]
    return launch.run(argv, COMMAND_TIMEOUT_S)


def fresh_dir(work: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work))


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like kcycles'
    inner loops: dict updates keyed by packed ints and exact rational sums.
    """
    start = time.perf_counter()
    terms: dict[int, int] = {}
    total = Fraction(0)
    for i in range(1, 80000):
        key = (i * 2654435761) & 0x3FF
        terms[key] = terms.get(key, 0) + key * i
        if i % 8 == 0:
            total += Fraction(key, i)
    return time.perf_counter() - start


def setup(launch: Launcher, work: Path) -> float:
    """One set-up: a fresh cache directory and one untimed CLI call, so that
    bytecode compilation after a source change lands here."""
    start = time.perf_counter()
    cache = fresh_dir(work, "setup-")
    child = cli(launch, WARMUP, cache)
    if child.returncode != 0 or sha256(child.stdout) != REFERENCE[" ".join(WARMUP)]:
        raise SystemExit(f"warm-up command failed: {child.returncode}\n{child.stderr}")
    return time.perf_counter() - start


def run_workload(launch: Launcher, name: str, seed: int, seconds: float, work: Path) -> dict:
    setups = [setup(launch, work) for _ in range(SETUPS)]
    commands = WORKLOADS[name](random.Random(seed))
    iterations = []
    probes: list[float] = []
    start = time.perf_counter()
    while True:
        cache = fresh_dir(work, "cache-")
        children = []
        for args, check in commands:
            probes.append(probe())
            children.append((args, cli(launch, args, cache), check))
        iterations.append({
            "wall_s": sum(c.wall_s for _, c, _ in children),
            "cpu_s": sum(c.cpu_s for _, c, _ in children),
            "commands": [
                {"args": args, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                 "maxrss_mb": c.maxrss_mb, "returncode": c.returncode,
                 "ok": c.returncode == 0 and check(c.stdout, cache),
                 "stderr": c.stderr[-2000:]}
                for args, c, check in children
            ],
        })
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i["wall_s"] for i in iterations) > seconds:
            break
    done = [c for i in iterations for c in i["commands"]]
    failed = sum(not c["ok"] for c in done)
    raw = {
        "wall_s": statistics.median(i["wall_s"] for i in iterations),
        "cpu_s": statistics.median(i["cpu_s"] for i in iterations),
        "setup_s": statistics.median(setups),
    }
    speed = PROBE_REFERENCE_S / statistics.median(probes)
    return {
        "attempted": len(done),
        "failed": failed,
        "metrics": {
            "wall_s": raw["wall_s"] * speed,
            "cpu_s": raw["cpu_s"] * speed,
            "peak_rss_mb": max(c["maxrss_mb"] for c in done),
            "setup_s": raw["setup_s"] * speed,
        },
        "raw": raw,
        "speed": speed,
        "failed_frac": failed / len(done),
        "setups_s": setups,
        "probes_s": probes,
        "iterations": iterations,
    }


def run_traced(launch: Launcher, seed: int, work: Path) -> dict:
    setup(launch, work)
    tracer = Tracer()
    metrics: dict[str, float] = {}
    errors: list[str] = []
    attempted = failed = 0
    for task in TASKS:
        task_work = fresh_dir(work, f"{task}-")
        argv = [sys.executable, str(BENCH / "layers.py"), task,
                "--seed", str(seed), "--work", str(task_work)]
        with tracer.span(f"task.{task}") as parent:
            child = launch.run(argv, TASK_TIMEOUT_S)
        attempted += 1
        if child.returncode != 0:
            failed += 1
            errors.append(f"task {task} exited {child.returncode}: {child.stderr[-2000:]}")
            continue
        result = json.loads(child.stdout.decode().splitlines()[-1])
        failed += bool(result["errors"])
        offset = len(tracer.spans)
        for span in result["spans"]:
            span["id"] += offset
            span["parent"] = parent["id"] if span["parent"] is None else span["parent"] + offset
            tracer.spans.append(span)
        metrics.update(result["metrics"])
        errors += [f"{task}: {e}" for e in result["errors"]]
    startups = []
    for _ in range(STARTUP_SAMPLES):
        cache = fresh_dir(work, "startup-")
        with tracer.span("cli.startup") as span:
            child = cli(launch, WARMUP, cache)
        attempted += 1
        if child.returncode != 0 or sha256(child.stdout) != REFERENCE[" ".join(WARMUP)]:
            failed += 1
            errors.append(f"startup command failed: {child.stderr[-2000:]}")
        startups.append(duration(span))
    metrics["cli.startup_s"] = statistics.median(startups)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "self_s": self_times(tracer.spans),
        "span_overhead_s": span_overhead() * len(tracer.spans),
        "spans": tracer.spans,
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each layer's self time: its spans' durations minus their children's.
    The layer is the span name's first dotted component."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration(span)
    out: dict[str, float] = {}
    for span in spans:
        layer = span["name"].split(".")[0]
        own = duration(span) - child_time.get(span["id"], 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


def span_overhead(samples: int = 5000) -> float:
    """Seconds one span adds: a traced empty loop minus an untraced one."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("overhead"):
            pass
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        pass
    return max(traced - (time.perf_counter() - start), 0.0) / samples


def machine() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or "unknown"
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"cpus": os.cpu_count(), "ram_gib": round(ram / 2**30, 1),
            "python": platform.python_version(), "commit": commit}


def report(label: str, seed: int, seconds: float, trace: int, spec: dict) -> bool:
    """Run one workload, or the traced pass, print its report and result
    line, and write its record; True when every metric was measured."""
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        with Launcher(work) as launch:
            if trace:
                result = run_traced(launch, seed, work)
            else:
                result = run_workload(launch, label, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = {"workload": label, "why": why.get(label), "seed": seed, "seconds": seconds,
               "trace": trace, "machine": machine()}
    record = OUT / f"{label}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"context": context, **result}, indent=1) + "\n")

    if trace:
        print(f"traced pass (seed {seed})")
    else:
        print(f"workload {label} (seed {seed}): {why[label]}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in context["machine"].items()))
    for name, value in result["metrics"].items():
        note = f"  moves {MOVES[name]}" if name in MOVES else ""
        print(f"  {name:30s} {value:14.6f} {units[name]}{note}")
    if trace:
        for layer, seconds_spent in sorted(result["self_s"].items()):
            print(f"  self time {layer:20s} {seconds_spent:14.6f} s")
        print(f"  tracing overhead {result['span_overhead_s']:.6f} s "
              f"over {len(result['spans'])} spans")
        for error in result["errors"]:
            print(f"  FAILED {error}")
    else:
        print(f"  {'failed_frac':30s} {result['failed_frac']:14.6f} fraction "
              f"({result['failed']} of {result['attempted']} commands)")
        print(f"  {len(result['iterations'])} iterations, {SETUPS} set-ups; unscaled medians "
              + ", ".join(f"{k} {v:.6f} s" for k, v in result["raw"].items())
              + f"; scale {result['speed']:.4f}")
    print(f"record: {record.relative_to(ROOT)}")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
        return False
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in wanted},
    }))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="all runs every workload and then the traced pass")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kcycles" / "cli.py").is_file():
        print(f"error: no kcycles source tree at {SRC}", file=sys.stderr)
        return 2
    # the children inherit the pin, so they and the probe share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        runs = [(name, 0) for name in WORKLOADS] + [("all", 1)]
    else:
        runs = [(args.workload, args.trace)]
    ok = [report(label, args.seed, args.seconds, trace, spec) for label, trace in runs]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
