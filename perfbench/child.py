"""One benchmark op in its own process.

    python child.py [--trace FILE] cli ARGS...   # cyclocode CLI, traced
    python child.py [--trace FILE] sweep SPEC    # library sweep

With --trace the cyclocode modules are wrapped by tracer.install() and
the spans are written to FILE as JSON at exit, with `startup_s`, the
time of a fresh `import cyclocode.cli`.  The sweep writes each code it
builds as a .npy file plus sweep_result.json into the spec's `out`
directory, and `timed_s`, the time of its library calls alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def sweep(spec_path: str) -> int:
    import numpy as np

    from cyclocode import (
        SolverConfig, assemble, build_graph, degree_stats, solve_report, verify_code,
    )

    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    codes = []
    timed = 0.0
    for n, q, weight, distances in spec["families"]:
        for d in distances:
            start = perf_counter()
            graph = build_graph(n, q, d, weight=weight)
            degree_stats(graph)
            built = []
            for strategy in spec["strategies"]:
                report = solve_report(graph, SolverConfig(strategy=strategy, seed=spec["seed"]))
                code = assemble(graph, report.vertices)
                verdict = verify_code(code, n, q, d, weight=weight)
                built.append((strategy, report.size, code.words_digits, verdict.passed))
            timed += perf_counter() - start
            for strategy, size, words, passed in built:
                name = f"sweep_{n}_{q}_{weight}_{d}_{strategy}.npy"
                np.save(out / name, words)
                codes.append({"n": n, "q": q, "weight": weight, "d": d, "strategy": strategy,
                              "size": size, "passed": passed, "file": name})
    (out / "sweep_result.json").write_text(json.dumps({"codes": codes, "timed_s": timed}))
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    tracer = None
    if trace_path:
        import tracer as tracing

        start = perf_counter()
        import cyclocode.cli  # noqa: F401  (timed: the CLI's cold import)

        startup = perf_counter() - start
        tracer = tracing.install()
    try:
        if mode == "cli":
            import cyclocode.cli

            return cyclocode.cli.main(rest)
        return sweep(rest[0])
    finally:
        if tracer is not None:
            Path(trace_path).write_text(json.dumps({"startup_s": startup, **tracer.dump()}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
