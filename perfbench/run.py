"""cyclocode benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Set-up (temp dir, seeded inputs, one cold `import cyclocode.cli`)
runs SETUP_REPEATS times and reports the median as setup_s.  Then the
workload's ops run in passes, each op a fresh child process, until the
next pass would overrun --seconds (at least MIN_PASSES passes).  Every op
is checked by oracle.py after its pass, outside the timed region.

--trace 0 prints the end-to-end metrics: wall_s sums each op's median
over the passes, so a burst that slows one op moves it less, and setup_s
is the median set-up.  --trace 1 runs one traced pass plus untraced
passes for the overhead and prints the per-layer metrics.  The last
stdout line is the result JSON; the line before it gives the run's
context (versions, per-op times, defects seen).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import MODULES
from workloads import WORKLOADS, Op, Result, Verdict

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 120
RUN_LIMIT_S = 150

# Per-layer metrics: span self times, call counts and counters from tracer.py.
SELF_S = [
    "engine.class_system", "engine.class_distance_matrix", "classgraph.build_graph",
    "classgraph.sparsity_diagnostics", "classgraph.degree_stats",
    "solver.greedy_independent_set.gv-greedy", "solver.greedy_independent_set.min-degree",
    "solver.greedy_independent_set.random-restart", "solver.solve_report",
    "codes.read_code_file", "codes.write_code_file", "codes.verify_code",
    "codes.derive_fhs", "codes.verify_fhs", "codes.derive_wmuc", "codes.verify_wmuc",
    "codes.assemble", "concentration.min_autodistance_histogram",
    "concentration.min_autodistance_histogram_cw", "concentration.mc_tail",
    "concentration.conditional_tail_weight_slice", "volumes.intersection_decay_table",
    "volumes.bound_report", "cli.main",
]
CALLS = ["classgraph.sparsity_diagnostics", "volumes.ball_intersection_volume"]
COUNTS = [
    "engine.class_system.words", "engine.class_system.cache_hits",
    "engine.class_distance_matrix.bytes", "classgraph.build_graph.vertices",
    "classgraph.build_graph.edges", "classgraph.build_graph.kind.explicit",
    "classgraph.build_graph.kind.matrix", "classgraph.build_graph.kind.lazy",
    "classgraph.sparsity_diagnostics.refused", "classgraph.neighbors.calls", "solver.picked",
    "codes.read_code_file.words", "codes.verify_code.words",
    "codes.verify_code.strategy.pairwise", "codes.verify_code.strategy.ballprobe",
    "codes.verify_code.strategy.collapse", "codes.verify_code.failed",
    "volumes.intersection.membership_tests",
]
# rate name -> (counter, span keys whose total time is the denominator)
RATES = {
    "codes.read_code_file.words_per_s": ("codes.read_code_file.words", ["codes.read_code_file"]),
    "concentration.census.words_per_s": (
        "concentration.census.words",
        ["concentration.exact_autodistance_census",
         "concentration.exact_autodistance_census_cw"]),
    "concentration.mc_tail.samples_per_s": (
        "concentration.mc_tail.samples", ["concentration.mc_tail"]),
    "concentration.conditional_tail_weight_slice.samples_per_s": (
        "concentration.conditional_tail_weight_slice.samples",
        ["concentration.conditional_tail_weight_slice"]),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CYCLOCODE_BUDGET")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Launcher:
    """Runs ops through launcher.py, a process that stays small."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, env: dict, tag: str,
            timeout: float = OP_TIMEOUT_S) -> Result:
        out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
        request = {"argv": argv, "cwd": str(cwd), "env": env, "out": str(out_path),
                   "err": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the op launcher died")
        reply = json.loads(line)
        return Result(reply["exit"], out_path.read_text(), err_path.read_text(),
                      reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)


def setup(launcher: Launcher, root: Path, workload, seed: int, workdir: Path,
          env: dict) -> list:
    """Temp dir, seeded inputs, and a cold import that must come from ./src."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workload.prepare(workdir, seed)
    probe = launcher.run([sys.executable, "-c", "import cyclocode.cli as c; print(c.__file__)"],
                         workdir, env, "setup")
    src = (root / "src").resolve()
    if probe.exit_code != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(src):
        raise BenchError(f"cannot import cyclocode from {src}: {probe.stderr.strip()[-300:]}")
    return ops


def op_argv(op: Op, trace_file: Path | None) -> list[str]:
    traced = ["--trace", str(trace_file)] if trace_file else []
    if op.sweep:
        return [sys.executable, str(BENCH_DIR / "child.py"), *traced, "sweep", *op.args]
    if trace_file:
        return [sys.executable, str(BENCH_DIR / "child.py"), *traced, "cli", *op.args]
    return [sys.executable, "-m", "cyclocode.cli", *op.args]


def run_pass(launcher: Launcher, ops: list[Op], workdir: Path, env: dict, index: int,
             traced: bool, memo: dict, deadline: float) -> dict:
    """Run every op once, then judge the outputs before the next pass
    overwrites them.  wall_s sums the ops' wall times; for the sweep it is
    the child's own time in library calls, its imports excluded."""
    results, traces, timed = [], [], []
    for k, op in enumerate(ops):
        trace_file = workdir / f"trace_{index}_{k}.json" if traced else None
        # An op still running at the deadline is killed and fails its check.
        timeout = max(1.0, min(OP_TIMEOUT_S, deadline - perf_counter()))
        res = launcher.run(op_argv(op, trace_file), workdir, env, f"op_{index}_{k}", timeout)
        results.append(res)
        if traced:  # an op killed before it wrote its trace fails its check anyway
            traces.append(json.loads(trace_file.read_text()) if trace_file.exists() else
                          {"startup_s": 0.0, "calls": {}, "self_s": {}, "total_s": {},
                           "counts": {}})
        if op.sweep and res.exit_code == 0:
            timed.append(json.loads((workdir / "sweep_result.json").read_text())["timed_s"])
        else:
            timed.append(res.wall_s)
    return {"results": results, "traces": traces, "timed": timed, "wall_s": sum(timed),
            "span_s": sum(r.wall_s for r in results), "outcomes": judge(ops, results, memo)}


def judge(ops: list[Op], results: list[Result], memo: dict) -> list[dict]:
    outcomes = []
    for op, res in zip(ops, results):
        try:
            verdict = op.check(res, memo)
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            verdict = Verdict(False, 0, f"unreadable output: {type(exc).__name__}: {exc}")
        defect = None
        if not verdict.ok and op.defect is not None and op.defect.matches(res):
            defect = op.defect.name
        outcomes.append({"op": op.name, "ok": verdict.ok, "words": verdict.words,
                         "defect": defect, "detail": verdict.detail, "exit": res.exit_code})
    return outcomes


def layer_metrics(ops: list[Op], traced: dict, untraced_walls: list[float]) -> dict:
    """Per-layer numbers from one traced pass.

    Each op's time splits into cli.startup_s (CLI ops), the self time of
    every span, and a remainder (interpreter start and exit, argument
    glue, the tracer itself); trace.overhead_s is the traced pass minus
    the median untraced pass.
    """
    calls, self_s, total_s, counts = {}, {}, {}, {}
    startup = remainder = 0.0
    for op, tr, timed in zip(ops, traced["traces"], traced["timed"]):
        for table, part in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s"),
                            (counts, "counts")):
            for key, value in tr[part].items():
                table[key] = table.get(key, 0) + value
        if not op.sweep:  # the sweep's timed window excludes its imports
            startup += tr["startup_s"]
            timed -= tr["startup_s"]
        remainder += timed - sum(tr["self_s"].values())

    metrics = {f"{key}.self_s": (self_s.get(key, 0.0), "s") for key in SELF_S}
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == module), "s")
    for key in CALLS:
        metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    sparsity_calls = calls.get("classgraph.sparsity_diagnostics", 0)
    refused = counts.get("classgraph.sparsity_diagnostics.refused", 0)
    metrics["classgraph.sparsity_diagnostics.refused_frac"] = (
        refused / sparsity_calls if sparsity_calls else 0.0, "ratio")
    for name, (counter, spans) in RATES.items():
        spent = sum(total_s.get(k, 0.0) for k in spans)
        metrics[name] = (counts.get(counter, 0) / spent if spent else 0.0, "1/s")
    untraced = statistics.median(untraced_walls)
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
    metrics["trace.remainder_s"] = (remainder, "s")
    return metrics


def measure(launcher, ops, workdir, env, seconds, trace, deadline, memo):
    """Untraced passes until the next would overrun `seconds` of op time,
    the traced pass included (at least MIN_PASSES, or one beside the traced
    pass), or the deadline."""
    traced = run_pass(launcher, ops, workdir, env, 0, True, memo, deadline) if trace else None
    passes = []
    spent = traced["span_s"] if trace else 0.0
    while True:
        index = len(passes) + 1
        passes.append(run_pass(launcher, ops, workdir, env, index, False, memo, deadline))
        spent += passes[-1]["span_s"]
        longest = max(p["span_s"] for p in passes)
        enough = len(passes) >= (1 if trace else MIN_PASSES) and spent + longest > seconds
        if enough or perf_counter() > deadline:
            return traced, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "cyclocode" / "__init__.py").is_file():
        print(f"no cyclocode sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    rundir = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir = rundir / "work"
    launcher = Launcher()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            ops = setup(launcher, root, workload, args.seed, workdir, env)
            setup_times.append(perf_counter() - start)
        memo: dict = {}
        traced, passes = measure(launcher, ops, workdir, env, args.seconds, args.trace,
                                 deadline, memo)

        judged = [p["outcomes"] for p in ([traced] if traced else []) + passes]
        flat = [o for outcomes in judged for o in outcomes]
        failed = sum(1 for o in flat if not o["ok"] and o["defect"] is None)
        if args.trace:
            metrics = layer_metrics(ops, traced, [p["wall_s"] for p in passes])
        else:
            metrics = {
                "wall_s": (sum(statistics.median(p["timed"][k] for p in passes)
                               for k in range(len(ops))), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (max(r.rss_mb for p in passes for r in p["results"]), "MB"),
                "ops_ok_frac": (sum(o["ok"] for o in flat) / len(flat), "ratio"),
                "checked_words": (
                    statistics.median(sum(o["words"] for o in outs) for outs in judged), "count"),
            }
        last = judged[-1]
        context = {
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [sum(r.cpu_s for r in p["results"]) for p in passes],
            "setup_s": setup_times,
            "ops": [
                {"op": op.name, "wall_s": statistics.median(p["timed"][k] for p in passes),
                 "pass_wall_s": [p["timed"][k] for p in passes],
                 "rss_mb": max(p["results"][k].rss_mb for p in passes), **last[k]}
                for k, op in enumerate(ops)
            ],
        }
        if traced:
            context["traced_ops"] = [
                {"op": op.name, "self_s": tr["self_s"], "calls": tr["calls"]}
                for op, tr in zip(ops, traced["traces"])
            ]
        print(json.dumps(context))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(flat),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(rundir, ignore_errors=True)
        if rundir.parent.is_dir() and not any(rundir.parent.iterdir()):
            rundir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
