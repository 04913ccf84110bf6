"""Command-line surface for the whole pipeline.

Verbs: bounds, construct, verify, fhs, wmuc, experiment, graph-stats.
Every run emits one self-describing document: a human-readable table
followed by a machine JSON section (--format text, the default), or the
JSON alone (--format machine).  The JSON embeds a run manifest (command,
parameters, seed, version, timing); re-running from a saved manifest with
--manifest reproduces the document byte-for-byte apart from the timing
field.

Exit codes: 0 pass, 1 verification failure, 2 usage or format error,
3 capacity (budget) error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, codes
from .budget import ENV_VAR
from .classgraph import build_graph, degree_stats, sparsity_diagnostics
from .codes import CodeArtifact, read_code_file, write_code_file
from .concentration import (
    conditional_tail_weight_slice,
    exact_autodistance_census,
    exact_autodistance_census_cw,
    mc_tail,
)
from .errors import CapacityError, CodeFileFormatError, ContractViolation
from .solver import SolverConfig, solve_report
from .volumes import bound_report, format_rational, intersection_decay_table

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_EXPERIMENT_KINDS = ("setA", "setB", "mc-tail", "intersection-decay", "sparsity")


class UsageError(ValueError):
    """Parameter combinations the formulas cannot accept."""


def _manifest(command: str, params: dict, seed, started: float) -> dict:
    clean = {}
    for k, v in params.items():
        clean[k] = str(v) if isinstance(v, (Path, Fraction)) else v
    return {
        "command": command,
        "params": clean,
        "seed": seed,
        "version": __version__,
        "timing_seconds": round(time.perf_counter() - started, 3),
    }


def _table(rows) -> list[str]:
    rows = [(str(k), str(v)) for k, v in rows]
    if not rows:
        return []
    width = max(len(k) for k, _ in rows)
    return [f"{k:<{width}}  {v}" for k, v in rows]


def _emit(fmt: str, doc: dict, text_lines: list[str]) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "machine":
        print(payload)
        return
    for line in text_lines:
        print(line)
    print()
    print("--- machine ---")
    print(payload)


def _require(args, *names):
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _weight_from_args(args) -> int | None:
    """--weight directly, or --p as a rate w = p * n (must be integral)."""
    if args.weight is not None:
        return args.weight
    if getattr(args, "p", None) is not None:
        w = Fraction(args.p) * args.n
        if w.denominator != 1:
            raise UsageError(f"rate p={args.p} must make p*n an integer, got {w}")
        return int(w)
    return None


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    _require(args, "n")
    n, q = args.n, args.q
    d = args.d
    notes: list[str] = []
    if args.kappa is not None:
        if not (1 <= args.kappa <= n):
            raise UsageError(f"kappa must lie in [1, {n}], got {args.kappa}")
        if d is None:
            d = n - args.kappa + 1
        notes.append(
            f"kappa={args.kappa}: representative codes need distance d >= n - kappa + 1 = "
            f"{n - args.kappa + 1}"
        )
    weight = _weight_from_args(args)
    if weight is not None and args.weight is None:
        notes.append(f"rate p={args.p} gives weight w = {weight}")
    report = bound_report(n, q, d, weight=weight, lam=args.lam, eps=args.eps)
    doc = {
        "manifest": _manifest(
            "bounds",
            {
                "n": n,
                "q": q,
                "d": args.d,
                "weight": args.weight,
                "p": args.p,
                "lambda": args.lam,
                "kappa": args.kappa,
                "eps": args.eps,
                "tau": args.tau,
            },
            None,
            started,
        ),
        "report": report.to_dict(),
        "notes": notes,
    }
    _emit(args.format, doc, _table(report.rows()) + notes)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# construct


def _empty_artifact(n: int, q: int, d: int, weight: int | None) -> CodeArtifact:
    import numpy as np

    return CodeArtifact(
        kind="OOC" if weight is not None else "HCC",
        n=n,
        q=q,
        d=d,
        weight=weight,
        words_digits=np.zeros((0, n), dtype=np.uint8),
        provenance={"num_classes": 0},
    )


def _run_pipeline(args, n: int, q: int, d: int, weight: int | None):
    """build_graph -> solver -> assemble -> verify; shared by several verbs.

    The returned notes explain a refused sparsity scan (diagnostics None)
    with its required work and budget.
    """
    graph = build_graph(n, q, d, weight=weight, method=args.method, budget=args.budget)
    config = SolverConfig(strategy=args.strategy, restarts=args.restarts, seed=args.seed)
    diagnostics = None
    notes: list[str] = []
    try:
        diagnostics = sparsity_diagnostics(graph, args.tau)
    except CapacityError as exc:
        notes.append(f"sparsity skipped: {exc}")
    sreport = solve_report(graph, config, diagnostics)
    artifact = codes.assemble(
        graph,
        sreport.vertices,
        provenance={
            "strategy": config.strategy,
            "seed": config.seed,
            "restarts": config.restarts,
        },
    )
    verdict = codes.verify_code(artifact, n, q, d, weight=weight)
    return graph, sreport, diagnostics, artifact, verdict, notes


def cmd_construct(args) -> int:
    started = time.perf_counter()
    _require(args, "n", "d")
    n, q, d = args.n, args.q, args.d
    weight = _weight_from_args(args)
    notes: list[str] = []
    params = {
        "n": n,
        "q": q,
        "d": d,
        "weight": args.weight,
        "p": args.p,
        "method": args.method,
        "strategy": args.strategy,
        "restarts": args.restarts,
        "tau": args.tau,
        "eps": args.eps,
        "budget": args.budget,
        "out": args.out,
    }
    if d > n:
        notes.append(f"empty vertex set: no length-{n} class reaches distance d={d} > n")
        artifact = _empty_artifact(n, q, d, weight)
        verdict = codes.verify_code(artifact, n, q, min(d, n), weight=weight)
        if args.out:
            write_code_file(args.out, artifact)
            notes.append(f"wrote {args.out}")
        doc = {
            "manifest": _manifest("construct", params, args.seed, started),
            "report": {
                "graph": None,
                "solver": None,
                "code": {"kind": artifact.kind, "words": 0, "verdict": verdict.to_dict()},
                "bounds": None,
            },
            "notes": notes,
        }
        _emit(args.format, doc, ["code: empty (0 words)"] + notes)
        return EXIT_PASS

    graph, sreport, diagnostics, artifact, verdict, pipeline_notes = _run_pipeline(
        args, n, q, d, weight
    )
    notes += pipeline_notes
    if args.out:
        write_code_file(args.out, artifact)
        notes.append(f"wrote {args.out}")
    bounds = bound_report(n, q, d, weight=weight, eps=args.eps)
    gv_float = None if bounds.gv is None else float(bounds.gv)
    report = {
        "graph": {
            "num_vertices": graph.num_vertices,
            "degree_bound": graph.degree_bound,
            "sparsity": None if diagnostics is None else diagnostics.to_dict(),
        },
        "solver": sreport.to_dict(),
        "code": {
            "kind": artifact.kind,
            "words": artifact.word_count,
            "classes": len(sreport.vertices),
            "verdict": verdict.to_dict(),
        },
        "bounds": bounds.to_dict(),
    }
    text = [
        f"graph: {graph.num_vertices} vertices, degree bound D = {graph.degree_bound}",
        f"solver ({sreport.strategy}): {sreport.size} classes, "
        f"greedy floor {sreport.greedy_floor} [{sreport.degree_basis}]",
    ]
    if diagnostics is not None:
        text.append(
            f"sparsity: max |S| {diagnostics.max_s}, max |T| {diagnostics.max_t}, "
            f"K-hat {diagnostics.k_hat}"
        )
    if sreport.reference is not None:
        text.append(f"independence reference (V/D) ln(min(D, K-hat)): {sreport.reference:.4f}")
    text.append(
        f"code: {artifact.kind} with {artifact.word_count} words "
        f"({len(sreport.vertices)} classes x n={n}); verify: {verdict.summary()}"
    )
    if bounds.gv is not None:
        text.append(f"gv comparison: M = {artifact.word_count} vs gv = {format_rational(bounds.gv)}")
    if bounds.levenshtein is not None:
        text.append(f"levenshtein comparison: {format_rational(bounds.levenshtein)}")
    text += notes
    doc = {
        "manifest": _manifest("construct", params, args.seed, started),
        "report": report,
        "notes": notes,
    }
    _emit(args.format, doc, text)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify


def _check_expectations(args, artifact: CodeArtifact) -> list[str]:
    mismatches = []
    for flag, actual in (
        ("n", artifact.n),
        ("q", artifact.q),
        ("d", artifact.d),
        ("weight", artifact.weight),
        ("kappa", artifact.kappa),
    ):
        expected = getattr(args, flag)
        if expected is not None and expected != actual:
            mismatches.append(f"expected {flag}={expected}, file declares {actual}")
    if args.lam is not None and args.lam != artifact.lam:
        mismatches.append(f"expected lambda={args.lam}, file declares {artifact.lam}")
    return mismatches


def cmd_verify(args) -> int:
    started = time.perf_counter()
    artifact = read_code_file(args.path)
    mismatches = _check_expectations(args, artifact)
    report_extra = None
    if mismatches:
        verdict_dict = {"passed": False, "mismatches": mismatches}
        passed = False
        text = ["FAIL: header mismatch"] + mismatches
    else:
        kind = artifact.kind
        if kind == "OOC":
            verdict = codes.verify_code(
                artifact, artifact.n, artifact.q, artifact.d, weight=artifact.weight
            )
        elif kind == "FHS":
            verdict, corr = codes.verify_fhs(artifact, artifact.n, artifact.q, artifact.lam)
            report_extra = corr.to_dict()
        elif kind == "WMUC":
            verdict = codes.verify_wmuc(artifact, artifact.n, artifact.q, artifact.kappa)
        else:
            verdict = codes.verify_code(artifact, artifact.n, artifact.q, artifact.d)
        verdict_dict = verdict.to_dict()
        passed = verdict.passed
        text = [f"{artifact.kind} n={artifact.n} q={artifact.q} d={artifact.d}: {verdict.summary()}"]
        if report_extra:
            text.append(
                f"correlations: max_auto={report_extra['max_auto']} "
                f"max_cross={report_extra['max_cross']} claimed lambda={artifact.lam}"
            )
    doc = {
        "manifest": _manifest(
            "verify",
            {
                "path": args.path,
                "n": args.n,
                "q": args.q,
                "d": args.d,
                "weight": args.weight,
                "lambda": args.lam,
                "kappa": args.kappa,
            },
            None,
            started,
        ),
        "report": {"kind": artifact.kind, "verdict": verdict_dict, "correlations": report_extra},
    }
    _emit(args.format, doc, text)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# fhs / wmuc derivations


def _source_artifact(args):
    """A verified HCC/OOC: read from --from, or construct via the pipeline."""
    if args.source is not None:
        artifact = read_code_file(args.source)
        if artifact.kind not in ("HCC", "OOC"):
            raise UsageError(f"derivations start from an HCC or OOC file, got {artifact.kind}")
        verdict = codes.verify_code(
            artifact, artifact.n, artifact.q, artifact.d, weight=artifact.weight
        )
        return artifact, verdict, None
    _require(args, "n", "d")
    weight = _weight_from_args(args)
    graph, sreport, diagnostics, artifact, verdict, _ = _run_pipeline(
        args, args.n, args.q, args.d, weight
    )
    return artifact, verdict, sreport


def cmd_fhs(args) -> int:
    started = time.perf_counter()
    artifact, verdict, sreport = _source_artifact(args)
    params = {
        "source": args.source,
        "n": args.n,
        "q": args.q,
        "d": args.d,
        "weight": args.weight,
        "p": args.p,
        "method": args.method,
        "strategy": args.strategy,
        "restarts": args.restarts,
        "budget": args.budget,
        "out": args.out,
    }
    if not verdict.passed:
        doc = {
            "manifest": _manifest("fhs", params, args.seed, started),
            "report": {"source_verdict": verdict.to_dict(), "correlations": None},
        }
        _emit(args.format, doc, [f"source code failed verification: {verdict.summary()}"])
        return EXIT_FAIL
    fhs_art, corr = codes.derive_fhs(artifact)
    notes = []
    if args.out:
        write_code_file(args.out, fhs_art)
        notes.append(f"wrote {args.out}")
    doc = {
        "manifest": _manifest("fhs", params, args.seed, started),
        "report": {
            "source": {"kind": artifact.kind, "words": artifact.word_count},
            "sequences": fhs_art.word_count,
            "lambda_claimed": fhs_art.lam,
            "correlations": corr.to_dict(),
        },
        "notes": notes,
    }
    text = [
        f"{fhs_art.word_count} sequences from {artifact.word_count} codewords "
        f"(n={fhs_art.n}, q={fhs_art.q})",
        f"lambda claimed n - d = {fhs_art.lam}; achieved {corr.lambda_achieved} "
        f"(auto {corr.max_auto}, cross {corr.max_cross})",
    ] + notes
    _emit(args.format, doc, text)
    return EXIT_PASS if corr.within_claim else EXIT_FAIL


def cmd_wmuc(args) -> int:
    started = time.perf_counter()
    artifact, verdict, sreport = _source_artifact(args)
    params = {
        "source": args.source,
        "n": args.n,
        "q": args.q,
        "d": args.d,
        "weight": args.weight,
        "p": args.p,
        "kappa": args.kappa,
        "method": args.method,
        "strategy": args.strategy,
        "restarts": args.restarts,
        "budget": args.budget,
        "out": args.out,
    }
    if not verdict.passed:
        doc = {
            "manifest": _manifest("wmuc", params, args.seed, started),
            "report": {"source_verdict": verdict.to_dict(), "verdict": None},
        }
        _emit(args.format, doc, [f"source code failed verification: {verdict.summary()}"])
        return EXIT_FAIL
    kappa = args.kappa if args.kappa is not None else artifact.n - artifact.d + 1
    wmuc_art = codes.derive_wmuc(artifact, kappa)
    wverdict = codes.verify_wmuc(wmuc_art, wmuc_art.n, wmuc_art.q, kappa)
    notes = []
    if args.out:
        write_code_file(args.out, wmuc_art)
        notes.append(f"wrote {args.out}")
    doc = {
        "manifest": _manifest("wmuc", params, args.seed, started),
        "report": {
            "source": {"kind": artifact.kind, "words": artifact.word_count},
            "words": wmuc_art.word_count,
            "kappa": kappa,
            "verdict": wverdict.to_dict(),
        },
        "notes": notes,
    }
    text = [
        f"{wmuc_art.word_count} representative words, kappa = {kappa}: {wverdict.summary()}"
    ] + notes
    _emit(args.format, doc, text)
    return EXIT_PASS if wverdict.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# experiment


def _census_doc(result) -> dict:
    return {
        "count": result.count,
        "total": result.total,
        "threshold": str(result.threshold),
        "probability": str(result.probability),
        "count_bound": str(result.bound.count_bound),
        "vacuous": result.bound.vacuous,
        "bound_holds": result.bound_holds,
    }


def cmd_experiment(args) -> int:
    started = time.perf_counter()
    kind = args.kind
    if kind is None:
        raise UsageError(f"experiment needs a kind: one of {', '.join(_EXPERIMENT_KINDS)}")
    if kind not in _EXPERIMENT_KINDS:
        raise UsageError(f"unknown experiment kind {kind!r}; pick from {', '.join(_EXPERIMENT_KINDS)}")
    params = {
        "kind": kind,
        "n": args.n,
        "q": args.q,
        "d": args.d,
        "weight": args.weight,
        "p": args.p,
        "eps": args.eps,
        "tau": args.tau,
        "samples": args.samples,
        "shift": args.shift,
        "method": args.method,
        "budget": args.budget,
    }
    passed = True

    if kind == "setA":
        _require(args, "n", "eps")
        result = exact_autodistance_census(args.n, args.q, args.eps, args.budget)
        passed = result.bound_holds
        report = _census_doc(result)
        text = [
            f"exact census: {result.count} of {result.total} words have "
            f"autodistance > {result.threshold}",
            f"guaranteed floor: {report['count_bound']}"
            + (" [vacuous]" if result.bound.vacuous else ""),
            f"bound holds: {passed}",
        ]
    elif kind == "setB":
        _require(args, "n", "eps")
        p = args.p if args.p is not None else Fraction(1, 2)
        result = exact_autodistance_census_cw(args.n, p, args.eps, args.budget)
        passed = result.bound_holds
        report = _census_doc(result)
        text = [
            f"exact weight-slice census (p={p}): {result.count} of {result.total} "
            f"words have autodistance > {result.threshold}",
            f"guaranteed floor: {report['count_bound']}"
            + (" [vacuous]" if result.bound.vacuous else ""),
            f"bound holds: {passed}",
        ]
    elif kind == "mc-tail":
        _require(args, "n", "eps")
        if args.p is not None:
            est = conditional_tail_weight_slice(
                args.n, args.p, args.eps, args.samples, args.seed, shift=args.shift
            )
        else:
            est = mc_tail(args.n, args.q, args.eps, args.samples, args.seed, shift=args.shift)
        passed = est.consistent
        report = {
            "model": est.model,
            "threshold": str(est.threshold),
            "samples": est.samples,
            "seed": est.seed,
            "rng": est.rng_algorithm,
            "hits": est.hits,
            "estimate": est.estimate,
            "stderr": est.stderr,
            "bound": est.bound,
            "consistent": est.consistent,
        }
        text = [
            f"{est.model} tail at n={est.n}, eps={est.eps}: "
            f"{est.hits}/{est.samples} hits, estimate {est.estimate:.6g} "
            f"(stderr {est.stderr:.2g})",
            f"union bound {est.bound:.6g}; consistent (est <= bound + 3 stderr): {passed}",
        ]
    elif kind == "intersection-decay":
        _require(args, "n", "d")
        rows = intersection_decay_table(
            args.n, args.q, args.d, weight=args.weight, budget=args.budget
        )
        report = {
            "radius": args.d,
            "rows": [
                {"separation": r.separation, "intersection": r.intersection, "ratio": str(r.ratio)}
                for r in rows
            ],
        }
        text = [f"{'separation':>10}  {'intersection':>12}  ratio"]
        text += [
            f"{r.separation:>10}  {r.intersection:>12}  {format_rational(r.ratio)}" for r in rows
        ]
    else:  # sparsity
        _require(args, "n", "d")
        weight = _weight_from_args(args)
        graph = build_graph(
            args.n, args.q, args.d, weight=weight, method=args.method, budget=args.budget
        )
        stats = degree_stats(graph)
        diag = sparsity_diagnostics(graph, args.tau)
        passed = stats.within_bound
        report = {"degrees": stats.to_dict(), "sparsity": diag.to_dict()}
        text = [
            f"graph: {stats.num_vertices} vertices, {stats.num_edges} edges, "
            f"max degree {stats.max_degree} (bound D - 1 = {stats.degree_bound - 1})",
            f"split at distance {diag.split_distance}: max |S| {diag.max_s}, "
            f"max |T| {diag.max_t}",
            f"max neighborhood edges {diag.max_neighborhood_edges}; K-hat {diag.k_hat}",
            f"degree bound holds: {passed}",
        ]

    doc = {
        "manifest": _manifest("experiment", params, args.seed, started),
        "report": report,
    }
    _emit(args.format, doc, text)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# graph-stats


def cmd_graph_stats(args) -> int:
    started = time.perf_counter()
    _require(args, "n", "d")
    weight = _weight_from_args(args)
    graph = build_graph(
        args.n, args.q, args.d, weight=weight, method=args.method, budget=args.budget
    )
    stats = degree_stats(graph)
    diag = None
    if args.tau is not None:
        diag = sparsity_diagnostics(graph, args.tau)
    report = {
        "degrees": stats.to_dict(),
        "sparsity": None if diag is None else diag.to_dict(),
    }
    text = [
        f"vertices: {stats.num_vertices}",
        f"edges: {stats.num_edges}",
        f"max degree: {stats.max_degree} (bound D - 1 = {stats.degree_bound - 1})",
        f"mean degree: {stats.mean_degree:.4f}",
        f"within bound: {stats.within_bound}",
    ]
    if diag is not None:
        text.append(
            f"sparsity at tau={diag.tau}: max |S| {diag.max_s}, max |T| {diag.max_t}, "
            f"K-hat {diag.k_hat}"
        )
    doc = {
        "manifest": _manifest(
            "graph-stats",
            {
                "n": args.n,
                "q": args.q,
                "d": args.d,
                "weight": args.weight,
                "p": args.p,
                "method": args.method,
                "tau": args.tau,
            },
            None,
            started,
        ),
        "report": report,
    }
    _emit(args.format, doc, text)
    return EXIT_PASS if stats.within_bound else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.add_argument("--out", type=Path, default=None, help="write the code file here")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"enumeration budget override (also via {ENV_VAR})",
    )
    p.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="re-run with the parameters stored in a previous machine document",
    )


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--eps", type=Fraction, default=None, help="decimal-exact (0.1 means 1/10)")
    p.add_argument("--tau", type=Fraction, default=None)
    p.add_argument("--p", type=Fraction, default=None)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        choices=["gv-greedy", "min-degree", "random-restart"],
        default="gv-greedy",
    )
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument(
        "--method",
        choices=["auto", "pairwise", "ball", "lazy"],
        default="auto",
        help="class-graph backend",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclocode",
        description="GV-type bounds, constructions, and verification for "
        "hopping cyclic codes, optical orthogonal codes, frequency hopping "
        "sequence sets, and weakly mutually uncorrelated codes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form bound table for one parameter point")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a verified code via the class graph")
    _add_params(p)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a code file against its header claims")
    p.add_argument("path", type=Path)
    _add_params(p)
    _add_common(p)
    # An omitted --q is not a claim: the file header states the alphabet.
    p.set_defaults(func=cmd_verify, q=None)

    p = sub.add_parser("fhs", help="derive a frequency hopping sequence set")
    p.add_argument("--from", dest="source", type=Path, default=None, help="input HCC/OOC file")
    _add_params(p)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_fhs)

    p = sub.add_parser("wmuc", help="derive a weakly mutually uncorrelated code")
    p.add_argument("--from", dest="source", type=Path, default=None, help="input HCC/OOC file")
    _add_params(p)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_wmuc)

    p = sub.add_parser("experiment", help="concentration and structure experiments")
    p.add_argument("kind", nargs="?", choices=_EXPERIMENT_KINDS, default=None)
    _add_params(p)
    _add_solver(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--shift", type=int, default=None, help="isolate a single shift (mc-tail)")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("graph-stats", help="degree audit of the class graph")
    _add_params(p)
    _add_solver(p)
    _add_common(p)
    p.set_defaults(func=cmd_graph_stats)

    return parser


def _apply_manifest(args) -> None:
    data = json.loads(Path(args.manifest).read_text())
    manifest = data.get("manifest", data)
    for key, value in manifest.get("params", {}).items():
        attr = "lam" if key == "lambda" else key
        if not hasattr(args, attr):
            continue
        if attr in ("tau", "p", "eps") and value is not None:
            value = Fraction(value)
        if attr in ("out", "source", "path") and value is not None:
            value = Path(value)
        setattr(args, attr, value)
    if manifest.get("seed") is not None and hasattr(args, "seed"):
        args.seed = manifest["seed"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "manifest", None):
            _apply_manifest(args)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CodeFileFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ContractViolation, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
