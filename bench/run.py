"""cardiotox benchmark: time the CLI end to end, or layer by layer with --trace 1.

    python3 bench/run.py --workload effects_paper --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Set-up generates the workload's inputs
with ``cardiotox synth`` from the seed, several times; the median is set-up
time. Then whole rounds of the workload's CLI commands run, each command in
its own child process, until --seconds of rounds have passed. The first
round's outputs are checked against computations made apart from the
program; later rounds must reproduce them byte for byte.

With --trace 0 the last line reports wall_s, peak_rss_mb and setup_s. With
--trace 1 rounds alternate untraced and traced (bench/tracer.py), and the last
line reports per-layer self times and counts plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from workloads import (
    ALPHA_STAY,
    WORKLOADS,
    Command,
    Workload,
    command_argv,
    inject_exclusions,
    plan_injection,
    spec_for,
    synth_argv,
    write_spec,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH / "tracer.py"

BLAS_THREADS = 1
COMMAND_TIMEOUT_S = 150.0

# Per-layer self times: metric -> traced functions whose self time it sums.
SELF_TIMES = {
    "cohort.load_s": ("cohort.load_cohort", "cohort.load_code_map"),
    "preprocess.eligibility_s": ("preprocess.apply_eligibility",),
    "preprocess.features_s": ("preprocess.compute_features",),
    "preprocess.build_matrix_s": ("preprocess.build_matrix",),
    "glm.fit_s": ("glm.fit_logistic",),
    "glm.eliminate_s": ("glm.backward_eliminate",),
    "evaluate.cv_s": ("evaluate.cv_report_and_scores",),
    "evaluate.auc_s": ("evaluate.auc",),
    "evaluate.roc_s": ("evaluate.roc_curve",),
    "evaluate.kfold_s": ("evaluate.stratified_kfold",),
    "causal.bootstrap_s": ("causal.bootstrap_effects",),
    "tableio.write_s": ("tableio.write_csv",),
}
CALL_COUNTS = {
    "cohort.code_map_loads": "cohort.load_code_map",
    "preprocess.build_matrix_calls": "preprocess.build_matrix",
    "glm.fits": "glm.fit_logistic",
    "evaluate.auc_calls": "evaluate.auc",
}
COUNTERS = {
    "preprocess.patients_excluded": "preprocess.patients_excluded",
    "glm.irls_iterations": "glm.irls_iterations",
    "glm.fit_failures": "glm.fit_logistic.raised",
    "glm.elimination_steps": "glm.elimination_steps",
    "causal.replicates": "causal.replicates",
    "causal.replicates_failed": "causal.replicates_failed",
    "causal.index_bytes": "causal.index_bytes",
    "tableio.bytes_written": "tableio.bytes_written",
}
SYNTH_TIMES = {
    "synth.generate_s": "synth.generate",
    "synth.write_s": "synth.write_cohort",
    "synth.truth_s": "synth.write_truth_csv",
}
UNITS = {
    "cohort.rows_per_s": "1/s",
    "causal.replicates_per_s": "1/s",
    "causal.index_bytes": "bytes_computed",
    "tableio.bytes_written": "bytes",
    "trace.layer_share": "ratio",
}
COUNT_METRICS = set(CALL_COUNTS) | set(COUNTERS)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


@dataclass
class Finished:
    wall_s: float
    rss_mb: float
    returncode: int


def run_cli(args: list[str], log: Path, spans: Path | None = None) -> Finished:
    """Run one cardiotox command in a child process; wall time and its own peak RSS."""
    if spans is None:
        argv = [sys.executable, "-m", "cardiotox.cli", *args]
    else:
        argv = [sys.executable, str(TRACER), str(spans), "--", *args]
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, usage.ru_maxrss / 1024.0, proc.returncode)


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Setups:
    """The repeated set-ups of one run; the first writes the inputs the rounds use.

    The repeats are spread between rounds, so that their median samples the
    whole run rather than one stretch of it.
    """

    workload: Workload
    seed: int
    work: Path
    traced: bool
    times: list[float] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    @property
    def data_dir(self) -> Path:
        return self.work / "data"

    @property
    def pending(self) -> bool:
        return len(self.times) < self.workload.setup_repeats

    def run(self) -> None:
        data = self.data_dir if not self.times else self.work / "data-repeat"
        shutil.rmtree(data, ignore_errors=True)
        spans = self.work / f"synth-{len(self.times)}.spans.json" if self.traced else None
        spec_path = self.work / "spec.json"
        write_spec(spec_path, spec_for(self.workload, self.seed))
        start = time.perf_counter()
        done = run_cli(synth_argv(spec_path, data), self.work / "setup.log", spans)
        if done.returncode != 0:
            raise RuntimeError(f"cardiotox synth exited {done.returncode}; see setup.log")
        if self.workload.inject_exclusions:
            inject_exclusions(data, plan_injection(self.seed))
        self.times.append(time.perf_counter() - start)
        self.digests.add(checks.tree_digest(data))
        if spans is not None:
            self.spans.append(spans)


Checker = Callable[[Command, Path], dict[str, list[str]]]


def make_checker(workload: Workload, seed: int, data: Path) -> Checker:
    """Function (command, output dir) -> problems, with references built once."""
    if workload.inject_exclusions:
        ref = checks.build_ingest_reference(data, plan_injection(seed))
        return lambda command, out: checks.check_features(out, ref)
    ref = checks.build_reference(data)
    if workload.n_boot is not None:
        expected = checks.reference_effects(ref)
        truth = checks.true_effects(ref, spec_for(workload, seed))
        return lambda command, out: checks.check_effects(out, expected, truth, workload.n_boot)

    def check_model_command(command: Command, out: Path):
        if command.args[0] == "fit":
            return checks.check_fit(ref, out, ALPHA_STAY)
        if command.args[0] == "cv":
            return checks.check_cv(out)
        return checks.check_compare(ref, out, *command.target, ALPHA_STAY)

    return check_model_command


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    walls: dict[str, float] = field(default_factory=dict)  # command name -> wall time
    rss_mb: float = 0.0
    failed: int = 0
    spans: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def run_round(workload: Workload, data_dir: Path, out_root: Path, traced: bool) -> Round:
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    result = Round()
    for command in workload.commands:
        spans = out_root.parent / f"{out_root.name}-{command.name}.spans.json" if traced else None
        done = run_cli(command_argv(command, data_dir, out_root / command.name),
                       out_root.parent / "commands.log", spans)
        result.walls[command.name] = done.wall_s
        result.rss_mb = max(result.rss_mb, done.rss_mb)
        if done.returncode != 0:
            result.failed += 1
            print(f"# {command.name} exited {done.returncode}", file=sys.stderr)
        elif spans is not None:
            result.spans.append(spans)
    return result


def check_first_round(workload: Workload, checker: Checker, out_root: Path) -> dict:
    """Check every command's outputs; returns the digests later rounds must match.

    A command whose outputs fail a check gets the digest None.
    """
    digests = {}
    for command in workload.commands:
        out = out_root / command.name
        if not (out / "run_manifest.json").exists():
            continue  # the command failed and is counted as such
        problems = checker(command, out)
        for check, found in problems.items():
            for problem in found[:5]:
                print(f"# CHECK FAILED {check}: {problem}", file=sys.stderr)
        digests[command.name] = None if any(problems.values()) else checks.tree_digest(out)
    return digests


def outputs_match(workload: Workload, out_root: Path, digests: dict) -> bool:
    ok = True
    for command in workload.commands:
        out = out_root / command.name
        if (out / "run_manifest.json").exists() and command.name in digests:
            if checks.tree_digest(out) != digests[command.name]:
                print(f"# {command.name}: outputs differ from the first round", file=sys.stderr)
                ok = False
    return ok


# ---------------------------------------------------------------------------
# Trace aggregation


def _load_spans(paths: list[Path]):
    """Self and inclusive time and call count per traced name, plus counters."""
    self_s, incl_s, calls, counts = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(int)
    for path in paths:
        data = json.loads(path.read_text())
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self_s[name] += end - start - child
            incl_s[name] += end - start
            calls[name] += 1
        for key, value in data["counts"].items():
            counts[key] += value
    return self_s, incl_s, calls, counts


def layer_metrics(traced: Round) -> dict[str, float]:
    self_s, incl_s, calls, counts = _load_spans(traced.spans)
    m: dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        m[metric] = sum(self_s[n] for n in names)
    for metric, name in CALL_COUNTS.items():
        m[metric] = calls[name]
    for metric, key in COUNTERS.items():
        m[metric] = counts[key]
    load = incl_s["cohort.load_cohort"]
    m["cohort.rows_per_s"] = counts["cohort.rows"] / load if load > 0 else 0.0
    boot = incl_s["causal.bootstrap_effects"]
    m["causal.replicates_per_s"] = counts["causal.replicates"] / boot if boot > 0 else 0.0
    m["cli.self_s"] = self_s["cli.main"]
    m["process.startup_s"] = traced.wall_s - incl_s["cli.main"]
    m["trace.wall_s"] = traced.wall_s
    m["trace.layer_share"] = sum(m[k] for k in SELF_TIMES) / traced.wall_s
    return m


def synth_metrics(paths: list[Path]) -> dict[str, float]:
    per_setup = [_load_spans([p])[1] for p in paths]
    return {metric: statistics.median(incl[name] for incl in per_setup)
            for metric, name in SYNTH_TIMES.items()}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric in COUNT_METRICS else "s"


# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups = Setups(workload, seed, work, trace)
    setups.run()
    checker = make_checker(workload, seed, setups.data_dir)

    untraced: list[Round] = []
    traced: list[Round] = []
    attempted = failed = 0
    digests = None
    correct = True
    measured = 0.0
    while measured < seconds or not untraced:
        start = time.perf_counter()
        # traced and untraced rounds alternate which goes first
        order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for with_trace in (order if trace else (False,)):
            out_root = work / f"round{len(untraced) + len(traced)}"
            r = run_round(workload, setups.data_dir, out_root, with_trace)
            (traced if with_trace else untraced).append(r)
            attempted += len(workload.commands)
            failed += r.failed
            if digests is None:
                digests = check_first_round(workload, checker, out_root)
                correct = None not in digests.values()
            else:
                correct = outputs_match(workload, out_root, digests) and correct
            shutil.rmtree(out_root)
        measured += time.perf_counter() - start
        if setups.pending:
            setups.run()
    while setups.pending:
        setups.run()

    if len(setups.digests) != 1:
        print("# synth outputs differ between set-ups of one seed", file=sys.stderr)
        correct = False
    if not trace:
        # Sum of per-command medians: a burst of machine noise that slows one
        # command in one round then does not carry into the workload's time.
        wall = sum(statistics.median(r.walls[c.name] for r in untraced)
                   for c in workload.commands)
        metrics = {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in untraced), "MB"),
            "setup_s": (statistics.median(setups.times), "s"),
        }
        rounds = len(untraced)
    else:
        per_round = [layer_metrics(r) for r in traced]
        values = {}
        for metric in per_round[0]:
            series = [m[metric] for m in per_round]
            if metric in COUNT_METRICS and len(set(series)) > 1:
                print(f"# {metric} differs between traced rounds: {series}", file=sys.stderr)
                correct = False
            values[metric] = series[0] if metric in COUNT_METRICS else statistics.median(series)
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(r.wall_s for r in untraced))
        values.update(synth_metrics(setups.spans))
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        rounds = len(traced)
    print(f"# round walls: {[round(r.wall_s, 3) for r in untraced]}")
    print(f"# workload={workload.name} seed={seed} rounds={rounds} "
          f"setups={workload.setup_repeats} blas_threads={BLAS_THREADS} nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: the child is killed and reaped, work removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cardiotox" / "cli.py").is_file():
        print(f"error: no cardiotox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only succeeds once no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
