"""resperf benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up makes the workload's inputs from the seed and warms the program with
one untimed invocation on a small input; it is repeated SETUP_REPEATS times
and ``setup_s`` is the median.  Then whole passes run, each in fresh
``resperf`` processes started one at a time, until the next pass would end
after ``--seconds``; every invocation's outputs are checked after the pass.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics of the traced passes (see bench/README.md).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: OpenBLAS's second thread burns CPU for no wall-time
# gain on these matrix sizes.  Children inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = BENCH / "work"
SETUP_REPEATS = 3
N_LARGE = 20_000
N_WARM = 300
RECOVERY_PROFESSORS = 2_000
RECOVERY_RUNS = 8
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


@dataclass
class Invocation:
    command: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    stderr_lines: int
    stdout: str
    spans: Path | None


@dataclass
class Step:
    """One CLI invocation and the check of its outputs."""
    tag: str
    args: list[str]
    # Invocation -> problems; with ``runs``, (problems, failed runs, runs with
    # a negative age AME, runs with a positive seniority AME)
    check: Callable
    runs: int = 0            # sign-recovery runs inside the invocation


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    cost_s: float            # wall time including the output checks
    invocations: list[Invocation]
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)     # nonzero exits
    problems: list[str] = field(default_factory=list)   # failed output checks
    signs: tuple[int, int, int] = (0, 0, 0)  # ok runs, age < 0, seniority > 0


def invoke(args: list[str], log_dir: Path, tag: str, run_id: str | None) -> Invocation:
    """Run one resperf command in a fresh process and wait for it."""
    out, err = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    spans = log_dir / f"{tag}.npz" if run_id else None
    if run_id:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans), run_id, *args]
    else:
        cmd = [sys.executable, "-m", "resperf.cli", *args]
    with out.open("wb") as fo, err.open("wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=CHILD_ENV, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(args[0], wall, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, proc.returncode,
                      err.read_bytes().count(b"\n"),
                      out.read_text(encoding="utf-8", errors="replace"), spans)


class Chain:
    """compute on a 20k roster; with ``full`` also regress x4 and report."""

    def __init__(self, lenient: bool, full: bool):
        self.lenient, self.full = lenient, full

    def setup(self, seed: int, d: Path):
        world, files = gen.write_inputs(seed, N_LARGE, self.lenient, d / "inputs")
        _, small = gen.write_inputs(seed, N_WARM, self.lenient, d / "warm")
        warm = invoke(self._compute_args(small, d / "warm" / "out"), d, "warm", None)
        if warm.exit_code:
            raise RuntimeError(f"warm-up compute exited {warm.exit_code}")
        return world, files

    @staticmethod
    def _compute_args(files: dict, out: Path) -> list[str]:
        return ["compute", "--roster", str(files["roster"]), "--pubs", str(files["pubs"]),
                "--conventions", str(files["conventions"]), "--out", str(out)]

    def steps(self, state, seed: int, k: int, d: Path) -> list[Step]:
        world, files = state
        comp = d / "compute"

        def check_compute(inv: Invocation) -> list[str]:
            want = checks.expected_indicators(world)
            problems = (checks.check_compute_summary(inv.stdout, world, want)
                        + checks.check_indicators(world, comp, want)
                        + checks.check_covariates(world, comp)
                        + checks.check_percentiles(comp))
            if inv.stderr_lines != want["warnings"]:
                problems.append(f"compute logged {inv.stderr_lines} lines, expected "
                                f"{want['warnings']} skipped-publication warnings")
            return problems

        out = [Step("compute", self._compute_args(files, comp), check_compute)]
        if not self.full:
            return out
        for dep in checks.INDICATORS:
            reg = d / f"regress-{dep}"
            out.append(Step(f"regress-{dep}",
                            ["regress", "--data", str(comp), "--dependent", dep,
                             "--out", str(reg)],
                            lambda inv, reg=reg, dep=dep: checks.check_fits(comp, reg, dep)))
        rep = d / "report"
        out.append(Step("report", ["report", "--roster", str(files["roster"]),
                                   "--indicators", str(comp / "indicators.csv"),
                                   "--out", str(rep)],
                        lambda inv: checks.check_report(rep, world.n_professors)))
        return out


class Recovery:
    """``simulate`` at the acceptance size; RECOVERY_RUNS runs per pass."""

    def setup(self, seed: int, d: Path):
        warm = invoke(["simulate", "--runs", "1", "--n-professors", "200",
                       "--seed", str(seed), "--out", str(d / "warm")], d, "warm", None)
        if warm.exit_code:
            raise RuntimeError(f"warm-up simulate exited {warm.exit_code}")
        return None

    def steps(self, state, seed: int, k: int, d: Path) -> list[Step]:
        first = seed * 1000 + k * RECOVERY_RUNS
        sim = d / "simulate"
        step = Step("simulate", ["simulate", "--runs", str(RECOVERY_RUNS),
                                 "--n-professors", str(RECOVERY_PROFESSORS),
                                 "--seed", str(first), "--out", str(sim)],
                    lambda inv: checks.read_recovery(sim, RECOVERY_RUNS),
                    runs=RECOVERY_RUNS)
        return [step]


WORKLOADS = {
    "recovery-2k": Recovery(),
    "chain-csv-20k": Chain(lenient=False, full=True),
    "lenient-jsonl-20k": Chain(lenient=True, full=False),
}


def run_pass(workload, state, seed: int, k: int, traced: bool, d: Path) -> PassResult:
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    steps = workload.steps(state, seed, k, d)
    run_id = f"pass{k}" if traced else None
    start = time.perf_counter()
    invs = [invoke(s.args, d, s.tag, run_id and f"{run_id}/{s.tag}") for s in steps]
    wall = time.perf_counter() - start
    res = PassResult(traced, wall, 0.0, invs)
    for step, inv in zip(steps, invs):
        res.attempted += 1 + step.runs
        if inv.exit_code:
            res.failed += 1 + step.runs
            res.errors.append(f"{step.tag} exited {inv.exit_code}")
            continue
        found = step.check(inv)
        if step.runs:
            found, n_failed, age_neg, sen_pos = found
            res.failed += n_failed
            ok_runs = step.runs - n_failed
            res.signs = tuple(a + b for a, b in zip(res.signs, (ok_runs, age_neg, sen_pos)))
        if found:
            res.failed += 1
            res.problems += [f"{step.tag}: {p}" for p in found]
    res.cost_s = time.perf_counter() - start
    return res


def host_snapshot() -> dict:
    """Machine-wide steal ticks and load averages, to tell a slow host apart."""
    with open("/proc/stat", encoding="ascii") as fh:
        steal = int(fh.readline().split()[8])
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"steal_s": steal / os.sysconf("SC_CLK_TCK"), "loadavg": load,
            "t": time.perf_counter()}


def layer_metrics(passes: list[PassResult]) -> dict[str, float]:
    """Per-layer values of each traced pass, as medians over those passes."""
    per_pass = [_pass_layers(p) for p in passes if p.traced]
    return {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}


SELF_METRICS = {
    "corpus.ingest_publications.self_s": "corpus.ingest_publications",
    "corpus.ingest_roster.self_s": "corpus.ingest_roster",
    "corpus.index_s": "corpus.__init__",
    "corpus.authored_by.self_s": "corpus.authored_by",
    "credit.fractional_contribution.self_s": "credit.fractional_contribution",
    "indicators.build_scaling_table.self_s": "indicators.build_scaling_table",
    "indicators.compute_scores.self_s": "indicators.compute_scores",
    "cohort.cohort_percentiles.self_s": "cohort.cohort_percentiles",
    "pipeline.run_scoring.self_s": "pipeline.run_scoring",
    "regress.build_design.self_s": "regress.build_design",
    "regress.collinearity_check.self_s": "regress.collinearity_check",
    "regress.fit_fractional_logit.self_s": "regress.fit_fractional_logit",
    "regress.average_marginal_effects.self_s": "regress.average_marginal_effects",
    "sim.generate_cohort.self_s": "sim.generate_cohort",
}
CALL_METRICS = {
    "corpus.authored_by.calls": "corpus.authored_by",
    "credit.fractional_contribution.calls": "credit.fractional_contribution",
    "regress.build_design.calls": "regress.build_design",
    "regress.fit_fractional_logit.calls": "regress.fit_fractional_logit",
    "sim.generate_cohort.calls": "sim.generate_cohort",
}
COMMANDS = ("compute", "regress", "report", "simulate")
LAYER_UNITS = {**{m: "count" for m in CALL_METRICS},
               "cli.compute.peak_rss_mb": "MB", "cli.stderr_lines": "count",
               "indicators.log_records": "count", "regress.newton_iters": "count",
               "gc.collections": "count"}


def _pass_layers(p: PassResult) -> dict[str, float]:
    self_s, total_s, calls, counters = (defaultdict(float), defaultdict(float),
                                        defaultdict(int), defaultdict(int))
    for inv in p.invocations:
        if inv.spans is None or not inv.spans.exists():
            continue
        with np.load(inv.spans) as z:
            names, name, parent = z["names"].tolist(), z["name"], z["parent"]
            dur = z["end"] - z["start"]
            for key, value in zip(z["counter_names"].tolist(), z["counters"].tolist()):
                counters[key] += value
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = np.bincount(name, weights=dur - child, minlength=len(names))
        whole = np.bincount(name, weights=dur, minlength=len(names))
        count = np.bincount(name, minlength=len(names))
        for i, span in enumerate(names):
            self_s[span] += own[i]
            total_s[span] += whole[i]
            calls[span] += int(count[i])
    out = {"cli.import_s": total_s["cli.import"]}
    for cmd in COMMANDS:
        out[f"cli.{cmd}.wall_s"] = sum(i.wall_s for i in p.invocations if i.command == cmd)
    out["cli.compute.peak_rss_mb"] = max(
        [i.rss_mb for i in p.invocations if i.command == "compute"], default=0.0)
    out["cli.stderr_lines"] = sum(i.stderr_lines for i in p.invocations)
    out.update({m: self_s[s] for m, s in SELF_METRICS.items()})
    out.update({m: calls[s] for m, s in CALL_METRICS.items()})
    out["indicators.log_records"] = counters["indicators.log_records"]
    out["regress.newton_iters"] = counters["regress.newton_iters"]
    out["report.self_s"] = sum(v for k, v in self_s.items() if k.startswith("report."))
    out["gc.pause_s"] = total_s["gc"]
    out["gc.collections"] = calls["gc"]
    out["proc.cpu_s"] = sum(i.cpu_s for i in p.invocations)
    out["trace.pass_s"] = p.wall_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "resperf" / "cli.py").is_file():
        print(f"no resperf sources under {ROOT / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2

    seed = args.seed % 2**31  # numpy seeds must be non-negative
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    host0 = host_snapshot()

    setup_s = []
    d = work / "setup"
    for _ in range(SETUP_REPEATS):
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        start = time.perf_counter()
        state = workload.setup(seed, d)
        setup_s.append(time.perf_counter() - start)

    passes: list[PassResult] = []
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, state, seed, len(passes), traced,
                               work / "pass"))
        if args.trace and not any(p.traced for p in passes):
            continue
        traced_next = bool(args.trace) and len(passes) % 2 == 1
        same_kind = [p.cost_s for p in passes if p.traced == traced_next]
        if time.perf_counter() - begin + same_kind[-1] > args.seconds:
            break
    host1 = host_snapshot()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [q for p in passes for q in p.errors]
    problems = [q for p in passes for q in p.problems]
    ok_runs, age_neg, sen_pos = (sum(col) for col in zip(*(p.signs for p in passes)))
    if ok_runs:
        need = checks.sign_recovery_threshold(ok_runs)
        for label, hits in (("negative age AME", age_neg), ("positive seniority AME", sen_pos)):
            if hits < need:
                problems.append(f"{label} in {hits} of {ok_runs} runs; a recovery rate "
                                f">= 95% gives at least {need}")

    plain = [p for p in passes if not p.traced]
    if args.trace:
        metrics = layer_metrics(passes)
        metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                       - statistics.median(p.wall_s for p in plain))
        units = {m: LAYER_UNITS.get(m, "s") for m in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup_s),
                   "pass_s": statistics.median(p.wall_s for p in plain),
                   "peak_rss_mb": statistics.median(
                       max(i.rss_mb for i in p.invocations) for p in plain)}
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

    wall = host1["t"] - host0["t"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "cpu_s": sum(i.cpu_s for i in p.invocations),
                    "peak_rss_mb": max(i.rss_mb for i in p.invocations),
                    "commands_s": [i.wall_s for i in p.invocations]} for p in passes],
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "problems": problems[:20],
        "host": {"wall_s": wall, "steal_s": host1["steal_s"] - host0["steal_s"],
                 "cpus": os.cpu_count(), "loadavg_start": host0["loadavg"],
                 "loadavg_end": host1["loadavg"]},
    }
    (work / "result.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
