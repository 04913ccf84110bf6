"""The benchmark's workloads: ops, the inputs they read, and their oracles.

Every op is one child process.  CLI ops run `python -m cyclocode.cli`
exactly as a user would; the sweep runs library calls in one process
(child.py).  Each op carries a check that judges its exit code, document
and output files with oracle.py alone.  A few ops reproduce defects the
program has at the commit that defined this benchmark; they carry a
KnownDefect, which excuses exactly that failure and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float

    def doc(self) -> dict:
        return json.loads(self.stdout)


@dataclass(frozen=True)
class KnownDefect:
    """A failure the program shows today: this exit code with this text."""

    name: str
    exit_code: int
    text: str

    def matches(self, res: Result) -> bool:
        return res.exit_code == self.exit_code and self.text in res.stdout + res.stderr


@dataclass
class Verdict:
    ok: bool
    words: int = 0
    detail: str = ""


@dataclass
class Op:
    name: str
    args: list[str]                  # cyclocode CLI arguments, or the sweep spec path
    check: Callable[[Result, dict], Verdict]
    defect: KnownDefect | None = None
    sweep: bool = False


@dataclass
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], list[Op]]


def _fail(detail: str) -> Verdict:
    return Verdict(False, 0, detail)


def _cached(memo: dict, key, compute):
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _file_key(path: Path, *claims) -> tuple:
    return (path.read_bytes(), *claims)


# ---------------------------------------------------------------------------
# construct-cold


# (n, q, d, weight): every backend `auto` picks, and the sparsity scan both
# running (ball, cw matrix) and refused by its work cap.
CONSTRUCT_POINTS = [
    (8, 3, 3, None),    # ball, sparsity scan runs
    (16, 2, 4, None),   # ball, np.unique dominates, sparsity refused
    (10, 3, 5, None),   # matrix (V_sys^2 bytes), sparsity refused
    (18, 2, 6, 7),      # constant-weight matrix
    (19, 2, 5, None),   # lazy
]


def _construct_check(out: Path, expect: list) -> Callable[[Result, dict], Verdict]:
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        code = res.doc()["report"]["code"]
        count, problem = _cached(memo, _file_key(out, *expect),
                                 lambda: oracle.check_cyclic_file(out, expect))
        if problem:
            return _fail(problem)
        if code["words"] != count or not code["verdict"]["passed"]:
            return _fail(f"document reports {code['words']} words, file has {count}")
        return Verdict(True, count)

    return check


def prepare_construct(workdir: Path, seed: int) -> list[Op]:
    ops = []
    for n, q, d, w in CONSTRUCT_POINTS:
        out = workdir / f"c_{n}_{q}_{d}_{w}.code"
        args = ["construct", "--n", str(n), "--q", str(q), "--d", str(d),
                "--seed", str(seed), "--format", "machine", "--out", out.name]
        expect = ["HCC", n, q, d]
        if w is not None:
            args += ["--weight", str(w)]
            expect = ["OOC", n, q, d, w]
        ops.append(Op(f"construct {n},{q},{d}" + (f",w{w}" if w else ""), args,
                      _construct_check(out, expect)))
    return ops


# ---------------------------------------------------------------------------
# sweep-warm


# (n, q, weight, distances): later distances reuse the class table, and the
# matrix backend reuses its cached distance matrix.
SWEEP_FAMILIES = [(15, 2, None, [3, 5, 6]), (19, 2, 8, [4, 8])]
STRATEGIES = ["gv-greedy", "min-degree", "random-restart"]


def _sweep_check(workdir: Path) -> Callable[[Result, dict], Verdict]:
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        report = json.loads((workdir / "sweep_result.json").read_text())
        expected = {(n, q, w, d, s) for n, q, w, ds in SWEEP_FAMILIES for d in ds
                    for s in STRATEGIES}
        got = {(e["n"], e["q"], e["weight"], e["d"], e["strategy"]) for e in report["codes"]}
        if got != expected:
            return _fail("sweep did not report every (family, d, strategy)")
        total = 0
        for e in report["codes"]:
            words = np.load(workdir / e["file"])
            bad = _cached(memo, (words.tobytes(), e["q"], e["d"], e["weight"]),
                          lambda: oracle.violations(words, e["q"], e["d"], e["weight"]))
            if bad or not e["passed"]:
                return _fail(f"{e['file']}: violations {sorted(bad)}, verdict {e['passed']}")
            if len(words) != e["size"] * e["n"] or len(words) % e["n"]:
                return _fail(f"{e['file']}: {len(words)} words for {e['size']} classes")
            total += len(words)
        return Verdict(True, total)

    return check


def prepare_sweep(workdir: Path, seed: int) -> list[Op]:
    spec = {"families": SWEEP_FAMILIES, "strategies": STRATEGIES, "seed": seed,
            "out": str(workdir)}
    path = workdir / "sweep_spec.json"
    path.write_text(json.dumps(spec))
    return [Op("sweep", [str(path)], _sweep_check(workdir), sweep=True)]


# ---------------------------------------------------------------------------
# verify-files


VERIFY_Q_DEFAULT = KnownDefect(
    "verify-q-default", 1, "expected q=2, file declares 3")


def _mutants(words: np.ndarray, q: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded damage to a valid code; the name says what was planted."""
    out = {}
    while True:
        row, pos = int(rng.integers(len(words))), int(rng.integers(words.shape[1]))
        flipped = words.copy()
        flipped[row, pos] = (flipped[row, pos] + 1) % q
        if oracle.min_autodistance(flipped[row : row + 1])[0] > 0:
            break
    out["flip"] = flipped
    out["dup"] = np.concatenate([words, words[int(rng.integers(len(words))), None]])
    out["drop"] = np.delete(words, int(rng.integers(len(words))), axis=0)
    return out


def _verify_check(expected: set[str], count: int) -> Callable[[Result, dict], Verdict]:
    """A verify op must exit 1 exactly when violations were planted and
    report exactly the planted kinds."""
    def check(res: Result, memo: dict) -> Verdict:
        want_exit = 1 if expected else 0
        if res.exit_code != want_exit:
            return _fail(f"exit {res.exit_code}, want {want_exit}: {res.stderr[-200:]}")
        verdict = res.doc()["report"]["verdict"]
        kinds = {v["kind"] for v in verdict.get("violations", [])}
        if verdict["passed"] != (not expected) or kinds != expected:
            return _fail(f"verdict {verdict.get('passed')} {sorted(kinds)}, "
                         f"want {sorted(expected)}")
        if verdict.get("word_count") != count:
            return _fail(f"verdict counts {verdict.get('word_count')} words, file has {count}")
        return Verdict(True, count)

    return check


def _derive_check(out: Path, source: np.ndarray, n: int, q: int, d: int,
                  kind: str) -> Callable[[Result, dict], Verdict]:
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        if kind == "FHS":
            count, problem = _cached(memo, _file_key(out, kind),
                                     lambda: oracle.check_fhs_file(out, source, n, q, d))
            reported = res.doc()["report"]["sequences"]
        else:
            count, problem = _cached(memo, _file_key(out, kind),
                                     lambda: oracle.check_wmuc_file(out, source, n, q, d,
                                                                    n - d + 1))
            reported = res.doc()["report"]["words"]
        if problem:
            return _fail(problem)
        if reported != count:
            return _fail(f"document reports {reported} words, file has {count}")
        return Verdict(True, count)

    return check


def prepare_verify(workdir: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []

    def write(name: str, n: int, q: int, words: np.ndarray) -> Path:
        path = workdir / name
        oracle.write_code_file(path, ["HCC", n, q, 2], rng.permutation(words))
        return path

    def verify(label: str, path: Path, n: int, q: int, count: int, expected=(), extra=()):
        args = ["verify", path.name, "--n", str(n), "--q", str(q), "--d", "2",
                "--format", "machine", *extra]
        ops.append(Op(label, args, _verify_check(set(expected), count)))

    # Binary parity code: verify it, derive FHS and WMUC sets, verify those.
    # Sizes keep each op's own work above its interpreter start-up, which
    # varies more from run to run than computing does.
    n, q = 18, 2
    binary = oracle.parity_code(n, q)
    src = write("bin18.hcc", n, q, binary)
    verify("verify bin18", src, n, q, len(binary))
    for verb, kind, suffix, extra in (
        ("fhs", "FHS", "fhs", ["--lambda", str(n - 2)]),
        ("wmuc", "WMUC", "wmuc", ["--kappa", str(n - 1)]),
    ):
        out = workdir / f"bin18.{suffix}"
        ops.append(Op(f"{verb} bin18", [verb, "--from", src.name, "--out", out.name,
                                        "--format", "machine"],
                      _derive_check(out, binary, n, q, 2, kind)))
        verify(f"verify bin18.{suffix}", out, n, q, len(binary) // n, extra=extra)

    # Ternary parity code and three seeded mutants of it.
    n, q = 11, 3
    ternary = oracle.parity_code(n, q)
    verify("verify ter11", write("ter11.hcc", n, q, ternary), n, q, len(ternary))
    for name, words in _mutants(ternary, q, rng).items():
        verify(f"verify ter11 {name}", write(f"ter11_{name}.hcc", n, q, words), n, q,
               len(words), expected=oracle.violations(words, q, 2))

    # Comma format (q > 10).
    n, q = 5, 12
    wide = oracle.parity_code(n, q)
    verify("verify q12", write("q12.hcc", n, q, wide), n, q, len(wide))

    # A bare verify on a small ternary file: no flags, so the header alone
    # states the claims.
    n, q = 5, 3
    small = oracle.parity_code(n, q)
    path = write("ter5.hcc", n, q, small)
    ops.append(Op("verify ter5 bare", ["verify", path.name, "--format", "machine"],
                  _verify_check(set(), len(small)), defect=VERIFY_Q_DEFAULT))
    return ops


# ---------------------------------------------------------------------------
# experiments


BOUNDS_INT_DIGITS = KnownDefect(
    "bounds-int-digits", 2, "Exceeds the limit (4300 digits) for integer string conversion")


def _census_check(n: int, q: int, eps: Fraction, weight: int | None):
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        report = res.doc()["report"]
        want = _cached(memo, ("census", n, q, eps, weight),
                       lambda: oracle.census(n, q, eps, weight))
        got = {k: report[k] for k in want}
        if got != want or not report["bound_holds"]:
            return _fail(f"census {got}, want {want}")
        return Verdict(True, want["total"])

    return check


def _mc_check(label: str, samples: int, seed: int):
    """Same seed, same document: every pass must reproduce the first."""

    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        doc = res.doc()
        doc["manifest"].pop("timing_seconds")
        report = doc["report"]
        if (report["samples"], report["seed"]) != (samples, seed) \
                or not 0 <= report["hits"] <= samples \
                or report["estimate"] != report["hits"] / samples:
            return _fail(f"inconsistent estimate {report}")
        first = memo.setdefault(("mc", label), doc)
        if first != doc:
            return _fail("a rerun with the same seed gave another document")
        return Verdict(True, samples)

    return check


def _decay_check(n: int, q: int, t: int):
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        want = _cached(memo, ("decay", n, q, t), lambda: oracle.decay_rows(n, q, t))
        got = res.doc()["report"]["rows"]
        if got != want:
            return _fail("decay rows differ from the closed-form sum")
        return Verdict(True, n + 1)

    return check


def _bounds_check(n: int, q: int, d: int):
    def check(res: Result, memo: dict) -> Verdict:
        if res.exit_code != 0:
            return _fail(f"exit {res.exit_code}: {res.stderr[-200:]}")
        report = res.doc()["report"]
        want = oracle.gv(n, q, d)
        got = Fraction(int(report["gv"]["num"]), int(report["gv"]["den"]))
        scale = Fraction(int(report["hcc_linear_scale"]["num"]),
                         int(report["hcc_linear_scale"]["den"]))
        if got != want or scale != n * want or report["mcdiarmid_terms"][0][0] != n - 1:
            return _fail("bound values differ from the exact ball-volume formula")
        return Verdict(True, 1)

    return check


def prepare_experiments(workdir: Path, seed: int) -> list[Op]:
    eps = Fraction(1, 10)
    common = ["--eps", "0.1", "--format", "machine"]
    mc_samples = 20_000
    return [
        Op("setA n18", ["experiment", "setA", "--n", "18", *common],
           _census_check(18, 2, eps, None)),
        Op("setB n20 p1/2", ["experiment", "setB", "--n", "20", "--p", "0.5", *common],
           _census_check(20, 2, eps, 10)),
        Op("mc-tail uniform", ["experiment", "mc-tail", "--n", "200", "--samples",
                               str(mc_samples), "--seed", str(seed), *common],
           _mc_check("uniform", mc_samples, seed)),
        Op("mc-tail p1/4", ["experiment", "mc-tail", "--n", "200", "--p", "0.25", "--samples",
                            str(mc_samples), "--seed", str(seed), *common],
           _mc_check("slice", mc_samples, seed)),
        Op("decay n16 t5", ["experiment", "intersection-decay", "--n", "16", "--d", "5",
                            "--format", "machine"],
           _decay_check(16, 2, 5)),
        Op("bounds n2000", ["bounds", "--n", "2000", "--d", "500", *common],
           _bounds_check(2000, 2, 500)),
        Op("bounds n10000 q4", ["bounds", "--n", "10000", "--q", "4", "--d", "5000",
                                "--eps", "0.05", "--format", "machine"],
           _bounds_check(10000, 4, 5000), defect=BOUNDS_INT_DIGITS),
    ]


# The `why` of each workload, as BENCHMARK.json gives it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("construct-cold",
                 "CLI construct, a cold process per op, over every graph backend and the "
                 "sparsity scan: class tables and graph builds",
                 prepare_construct),
        Workload("sweep-warm",
                 "library sweep in one process, three solvers per point: solvers, and the "
                 "class-table and distance-matrix caches on repeat d",
                 prepare_sweep),
        Workload("verify-files",
                 "CLI verify and FHS/WMUC derivations on seeded parity-code files and "
                 "mutants: file parsing and verifiers, no graph",
                 prepare_verify),
        Workload("experiments",
                 "CLI censuses, Monte-Carlo tails, decay table and bounds: the only work of "
                 "the concentration and volumes layers",
                 prepare_experiments),
    )
}
