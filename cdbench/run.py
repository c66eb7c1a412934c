"""copydet benchmark: one workload and seed, each run a fresh process.

    python3 cdbench/run.py --workload trend --seed 0 --seconds 55 --trace 0

Run from the repository root; the program is imported from ``src``. Set-up
(write the inputs, then start one process that imports the CLI) repeats
SETUPS times. Runs then repeat for ``--seconds``; each one starts a new
interpreter that executes the workload's CLI commands in-process (see
child.py), so its time includes interpreter start and ``import copydet``.
With ``--trace 1`` one more run executes under the layer probes of
probes.py. After the runs the outputs are checked (checks.py).

Times are CPU seconds (user plus system) of the benchmark and the processes
it starts: every run is one thread, and on a shared host the wall time also
counts the stretches in which the host gave the process no CPU.

Standard output gets two JSON lines: the machine and per-run facts, then
the result ``{"correct", "attempted", "failed", "metrics"}``. End-to-end
metrics (``--trace 0``) are medians over the invocation; per-layer metrics
(``--trace 1``) come from the one traced run. Scratch files live under
``.bench_work/`` and are removed before exit.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy loads below, and in every child

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

import checks
import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 9
MIN_RUNS = 3
# The whole invocation must end within 180 s, whatever --seconds asks.
DEADLINE_S = 170.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Invocation:
    """Spawns child processes of one workload and seed under one deadline."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = perf_counter() + DEADLINE_S
        self.env = _child_env()

    def spawn(self, argv: list[str]) -> tuple[float, int, resource.struct_rusage]:
        """(wall seconds, exit code, resource usage) of one child process."""
        timeout = max(1.0, self.deadline - perf_counter())
        with open(self.work / "child.stderr", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *argv],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / "child.stderr").read_text(errors="replace")[-2000:]
            print(f"cdbench: child exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return wall, proc.returncode, usage

    def set_up(self) -> tuple[float, float, int]:
        """(wall seconds, CPU seconds, exit code) of writing the inputs and importing the CLI."""
        t0, cpu0 = perf_counter(), process_time()
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        workloads.write_inputs(self.workload, self.seed, self.work / "inputs")
        _, code, usage = self.spawn(["--warm"])
        return perf_counter() - t0, process_time() - cpu0 + _cpu(usage), code

    def run(self, trace: Path | None = None) -> tuple[float, int, resource.struct_rusage, dict | None]:
        """One run in a fresh ``run/`` directory; returns the digests of its outputs."""
        run_dir = self.work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        argv = ["--workload", self.workload, "--seed", str(self.seed)]
        if trace is not None:
            argv += ["--trace", str(trace)]
        wall, code, usage = self.spawn(argv)
        return wall, code, usage, checks.digest_tree(run_dir) if code == 0 else None


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def check_outputs(workload: str, work: Path) -> tuple[dict, list[str]]:
    """Headline quality of the last run, and every check that failed on it."""
    run_dir = work / "run"
    commands = workloads.commands(workload, 0)
    stdout = (run_dir / f"cmd{len(commands) - 1}.out").read_text(encoding="utf-8")
    headline = workloads.headline(workload, json.loads(stdout))
    quality = {key: headline[key] for key in ("micro_ap", "recall_at_p90")}
    errors = checks.unit_norm_errors(run_dir)
    if workload == "trend":
        if (run_dir / "out" / "report.json").read_text(encoding="utf-8") != stdout:
            errors.append("report.json differs from the printed report")
        emb = run_dir / "out" / "embeddings"
        oracle = checks.oracle_quality(
            emb / "queries_post.emb", emb / "reference_post.emb", run_dir / "out" / "world" / "gt.csv"
        )
    else:
        oracle = checks.oracle_quality(
            run_dir / "queries_post.emb", run_dir / "reference_post.emb", work / "inputs" / "gt.csv"
        )
    for key, value in quality.items():
        if not 0.0 <= value <= 1.0 or abs(value - oracle[key]) > checks.QUALITY_TOL:
            errors.append(f"{key} {value!r} disagrees with the oracle's {oracle[key]!r}")
    return quality, errors


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "l2": caches.get("L2", "?"),
        "l3": caches.get("L3", "?"),
        "threads": BLAS_PIN,
    }


def measure(args, work: Path) -> tuple[dict, dict]:
    inv = Invocation(args.workload, args.seed, work)
    errors: list[str] = []

    setup_wall, setup_cpu, inputs = [], [], None
    for _ in range(SETUPS):
        wall, cpu, code = inv.set_up()
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        setup_wall.append(wall)
        setup_cpu.append(cpu)
        digest = checks.digest_tree(work / "inputs")
        if inputs is not None and digest != inputs:
            errors.append("set-ups of one seed wrote different inputs")
        inputs = digest

    walls, usages, codes, outputs = [], [], [], []
    start = perf_counter()
    while True:
        wall, code, usage, digest = inv.run()
        walls.append(wall)
        usages.append(usage)
        codes.append(code)
        outputs.append(digest)
        typical = statistics.median(walls)
        if perf_counter() + typical * (2 if args.trace else 1) > inv.deadline:
            break
        if len(walls) >= MIN_RUNS and perf_counter() - start + typical > args.seconds:
            break

    snapshot = {"calls": {}, "span": {}, "self": {}, "counts": {}, "missing": [], "errors": []}
    if args.trace:
        trace_file = work / "trace.json"
        traced, code, traced_usage, digest = inv.run(trace_file)
        codes.append(code)
        outputs.append(digest)
        if code == 0:
            snapshot = json.loads(trace_file.read_text(encoding="utf-8"))

    failed = sum(code != 0 or digest != outputs[0] for code, digest in zip(codes, outputs))
    if failed:
        errors.append(f"{failed} of {len(codes)} runs failed or wrote other bytes than the first")
    quality = {"micro_ap": 0.0, "recall_at_p90": 0.0}
    if codes[-1] == 0:
        try:
            quality, found = check_outputs(args.workload, work)
            errors += found
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"outputs could not be checked: {exc!r}")

    if args.trace:
        run_facts = {
            "traced": traced,
            "untraced": statistics.median(walls),
            "sys_s": traced_usage.ru_stime,
            "minor_faults": traced_usage.ru_minflt,
            **quality,
        }
        metrics = probes.layer_metrics(snapshot, run_facts)
        units = {name: unit for name, unit, *_ in probes.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": statistics.median(setup_cpu),
            "run_cpu_s": statistics.median(_cpu(u) for u in usages),
            "peak_rss_mb": statistics.median(u.ru_maxrss / 1024 for u in usages),
        }
        units = {"setup_s": "s", "run_cpu_s": "s", "peak_rss_mb": "MiB"}

    result = {
        "correct": not errors,
        "attempted": len(codes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": workloads.commands(args.workload, args.seed),
        "machine": machine(),
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "run_wall_s": walls,
        "user_s": [u.ru_utime for u in usages],
        "sys_s": [u.ru_stime for u in usages],
        "minor_faults": [u.ru_minflt for u in usages],
        "peak_rss_mb": [u.ru_maxrss / 1024 for u in usages],
        "exit_codes": codes,
        "quality": quality,
        "errors": errors,
        "probes_missing": snapshot["missing"],
        "probe_errors": snapshot["errors"],
    }
    return result, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the untraced runs repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "copydet" / "cli.py").is_file():
        print(f"cdbench: no copydet sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, facts = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
