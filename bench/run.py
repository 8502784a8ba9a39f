"""rabsim benchmark: one scenario workload, timed end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop: this
driver runs one ``rabsim`` scenario at a time, each in a fresh interpreter
(``bench/child.py``), checks its CSV and sidecar (``bench/checks.py``), and
makes at least two rounds and more while another still fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics: the medians over the rounds of
``solve_s``, ``cpu_s`` and ``peak_rss_mb``, and the median ``setup_s`` of
several fresh interpreters.  ``--trace 1`` prints the per-layer metrics of
one traced round (``bench/tracing.py``), run with the sweeps' pool at one
worker, together with an untraced round at the normal worker count for the
pool efficiency and an untraced round at one worker for the tracing
overhead.  The last line of standard output is the JSON result; the same
figures, the machine record and every round's raw values go to
``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Whole-run budget; every run must end within 180 s.
RUN_BUDGET_S = 170.0
#: Rounds every run makes, however long they take, so that a median damps
#: one disturbed round; further rounds are made while they fit in --seconds.
MIN_ROUNDS = 2
#: Fresh interpreters timed for setup_s, after one that fills the bytecode cache.
SETUP_PROBES = 7
#: Heatmap cells re-propagated by the independent three-level oracle per run.
ORACLE_COLUMNS = 4

END_TO_END = {"solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "dynamics.propagate_process.s": "s",
    "dynamics.propagate_process.us_per_step": "us",
    "dynamics.propagate_density.s": "s",
    "dynamics.convergence_check.s": "s",
    "dynamics.grid_steps": "count",
    "dynamics.trajectory_mb": "MB",
    "analysis.fidelity.s": "s",
    "analysis.fidelity.samples": "count",
    "analysis.fidelity.us_per_sample": "us",
    "analysis.sweep_heatmap.s": "s",
    "analysis.heatmap.ms_per_cell": "ms",
    "analysis.fidelity_vs_gamma.s": "s",
    "analysis.pool.efficiency": "ratio",
    "cli.parse.s": "s",
    "models.s": "s",
    "cli.self.s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

OPERATING_POINT = ["--omega-m-mhz", "2", "--omega-ratio", "7.5"]
HEATMAP_EXTENT = {"v_min": 10.0, "v_max": 20.0, "w_min": 5.0, "w_max": 10.0, "resolution": 10}


@dataclass(frozen=True)
class Workload:
    """One scenario: its flags, its config-file keys and its pool fan-out."""

    scenario: str
    flags: list
    config: dict = field(default_factory=dict)  # file-only keys, passed with --config
    pool_tasks: int = 0  # tasks fanned out over the process pool; 0 = no pool


WORKLOADS = {
    "gate-cz": Workload(
        "gate-fidelity", ["--gate", "cz", "--gamma-khz", "1.5", "--dt-divisor", "50"]),
    "gamma-sweep-cnot": Workload(
        "fidelity-vs-gamma", ["--gate", "cnot", "--gamma-khz", "2", "--dt-divisor", "50"],
        {"gamma_points": checks.GAMMA_POINTS}, pool_tasks=checks.GAMMA_POINTS),
    "heatmap": Workload(
        "heatmap", ["--gamma-khz", "0", "--dt-divisor", "100"],
        HEATMAP_EXTENT, pool_tasks=HEATMAP_EXTENT["resolution"]),
    "populations": Workload("rab-populations", ["--gamma-khz", "0"]),
}


def machine_info(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "RABSIM_THREADS": threads,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


class Run:
    """One benchmark run: its inputs, its deadline and its rounds' records."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.started = time.monotonic()
        self.dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.csv = self.dir / "out.csv"
        self.argv = [self.workload.scenario, *OPERATING_POINT, *self.workload.flags,
                     "--out", str(self.csv)]
        if self.workload.config:
            conf = self.dir / "scenario.conf"
            conf.write_text("".join(f"{k} = {v}\n" for k, v in self.workload.config.items()))
            self.argv += ["--config", str(conf)]
        self.cells, self.oracle = [], []
        if name == "heatmap":
            # The seed picks which columns are re-propagated: each one's ridge
            # cell (V = 2 omega on these axes) and one other cell in it.
            n = HEATMAP_EXTENT["resolution"]
            rng = random.Random(seed)
            for j in rng.sample(range(n), ORACLE_COLUMNS):
                self.cells += [(j, j), (rng.choice([i for i in range(n) if i != j]), j)]
            self.oracle = checks.heatmap_oracle(HEATMAP_EXTENT, self.cells)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def env(self, threads: int) -> dict:
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, RABSIM_THREADS=str(threads),
                    PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def _spawn(self, args, threads: int, stdout) -> subprocess.Popen:
        return subprocess.Popen(args, cwd=ROOT, env=self.env(threads), stdout=stdout,
                                start_new_session=True)

    def _wait(self, proc: subprocess.Popen) -> None:
        try:
            proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise

    def setup_probe(self) -> float:
        """Seconds from spawning an interpreter to a resolved ScenarioConfig.

        Covers interpreter start, importing numpy and rabsim, parse_config and
        the RRI matching in drive_params.  time.monotonic is system-wide, so
        the child's reading and the parent's share one clock.
        """
        code = ("import sys, time\nfrom rabsim import cli\n"
                "cli.parse_config(sys.argv[1:]).drive_params()\n"
                "print(repr(time.monotonic()))")
        spawned = time.monotonic()
        proc = self._spawn([sys.executable, "-c", code, *self.argv], 1, subprocess.PIPE)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        return float(stdout.decode().split()[-1]) - spawned

    def round(self, *, trace: bool, threads: int) -> dict | None:
        """Run the scenario once in a fresh interpreter and check its output.

        Returns the child's record, or None when the scenario did not finish.
        """
        record_path = self.dir / "round.json"
        record_path.unlink(missing_ok=True)
        self.csv.unlink(missing_ok=True)
        spec = {"argv": self.argv, "trace": trace, "record": str(record_path)}
        # The child's output goes to stderr, so the result stays the last stdout line.
        proc = self._spawn([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                           threads, sys.stderr)
        try:
            self._wait(proc)
        except subprocess.TimeoutExpired:
            return self._round_failed(f"round killed after the {RUN_BUDGET_S:.0f} s run budget")
        if proc.returncode != 0 or not record_path.exists():
            return self._round_failed(f"round process exited with {proc.returncode}")
        record = json.loads(record_path.read_text())
        if record["exit_code"] != 0 or not self.csv.exists():
            return self._round_failed(f"rabsim exited with {record['exit_code']}")
        table = checks.read_table(self.csv)
        verdict = self._check(table)
        self.attempted += verdict.attempted
        self.failed += len(verdict.failed)
        self.messages += verdict.messages
        record["output_bytes"] = self.csv.stat().st_size + self.csv.with_suffix(".json").stat().st_size
        return record

    def _check(self, table) -> checks.Verdict:
        if self.name == "gate-cz":
            return checks.check_gate_cz(table, checks.read_sidecar(self.csv))
        if self.name == "gamma-sweep-cnot":
            return checks.check_gamma_sweep_cnot(table)
        if self.name == "heatmap":
            return checks.check_heatmap(table, HEATMAP_EXTENT, self.cells, self.oracle)
        return checks.check_populations(table)

    def _round_failed(self, message: str) -> None:
        # Without output the sample count is unknown; count what is known.
        ops = 1 + (HEATMAP_EXTENT["resolution"] ** 2 if self.name == "heatmap"
                   else self.workload.pool_tasks)
        self.attempted += ops
        self.failed += ops
        self.messages.append(message)


def measure(run: Run, seconds: float, threads: int) -> dict:
    """End-to-end metrics: medians over MIN_ROUNDS rounds or more, as fit in ``seconds``."""
    run.setup_probe()
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    rounds = []
    first = time.monotonic()
    while True:
        record = run.round(trace=False, threads=threads)
        if record is None:
            break
        rounds.append(record)
        elapsed = time.monotonic() - first
        per_round = elapsed / len(rounds)
        if per_round > run.remaining() - 10.0:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("solve_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in rounds) if rounds else None
    return {"metrics": metrics, "setup_probes": setups, "rounds": rounds}


def trace(run: Run, threads: int) -> dict:
    """Per-layer metrics from one traced round, with its untraced references."""
    pooled = run.round(trace=False, threads=threads)
    serial = run.round(trace=False, threads=1) if run.workload.pool_tasks else pooled
    traced = run.round(trace=True, threads=1)
    if None in (pooled, serial, traced):
        return {"metrics": dict.fromkeys(PER_LAYER), "rounds": []}
    workers = min(threads, run.workload.pool_tasks) if run.workload.pool_tasks else 1
    metrics = dict(traced["layers"])
    metrics["analysis.pool.efficiency"] = pooled["cpu_s"] / (workers * pooled["solve_s"])
    metrics["cli.output_bytes"] = traced["output_bytes"]
    # Same worker count on both sides, so the difference is the wrappers' cost.
    metrics["trace.overhead_s"] = traced["solve_s"] - serial["solve_s"]
    rounds = [{k: v for k, v in r.items() if k != "spans"} for r in (pooled, serial, traced)]
    return {"metrics": metrics, "rounds": rounds, "spans": traced["spans"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rabsim" / "cli.py").is_file():
        print(f"bench: no rabsim source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    run = Run(args.workload, args.seed, bool(args.trace))
    outcome = trace(run, threads) if args.trace else measure(run, args.seconds, threads)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in metrics.values())
    result = {"correct": run.failed == 0 and finite,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": run.argv, "heatmap_oracle_cells": run.cells,
              "machine": machine_info(threads), "check_failures": run.messages,
              "wall_s": time.monotonic() - run.started, **outcome, **result}
    (OUT / f"{run.dir.name}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    for message in run.messages:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
