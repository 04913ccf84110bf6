"""End-to-end checks of the command-line verbs, driven through main().

Every test calls cyclocode.cli.main() in-process and inspects the exit
code plus the emitted document (text table + machine JSON, or JSON alone).
Frozen output values are cross-checked against direct library calls or
small brute-force computations inside the tests.
"""

import json
import sys
from fractions import Fraction
from math import comb, exp, log

import pytest

from cyclocode import (
    ball_volume,
    build_graph,
    conditional_tail_weight_slice,
    gv_bound,
    hamming_distance,
    mc_tail,
    read_code_file,
    word,
)
from cyclocode import budget
from cyclocode.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine(argv, capsys):
    """Run with --format machine and parse the JSON document."""
    code, out, err = run_cli(argv + ["--format", "machine"], capsys)
    return code, json.loads(out), err


@pytest.fixture(scope="module")
def hcc_file(tmp_path_factory):
    """A verified (n=7, q=2, d=3) code written by the construct verb."""
    path = tmp_path_factory.mktemp("cli") / "code.hcc"
    code = main(["construct", "--n", "7", "--d", "3", "--out", str(path), "--format", "machine"])
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# bounds


def test_bounds_gv_exact_fraction(capsys):
    code, doc, _ = machine(["bounds", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    assert doc["report"]["gv"] == {"num": "128", "den": "29"}
    # independent: q^n / Vol_q(n, d-1)
    assert Fraction(2**7, ball_volume(7, 2, 2)) == Fraction(128, 29)
    assert doc["manifest"]["command"] == "bounds"
    assert doc["manifest"]["params"]["n"] == 7
    assert "timing_seconds" in doc["manifest"]


def test_bounds_levenshtein_constant_weight(capsys):
    code, doc, _ = machine(["bounds", "--n", "7", "--d", "3", "--weight", "3"], capsys)
    assert code == 0
    assert doc["report"]["levenshtein"] == {"num": "35", "den": "13"}
    vol_cw = sum(comb(3, i) * comb(4, i) for i in range(2))
    assert Fraction(comb(7, 3), vol_cw) == Fraction(35, 13)


def test_bounds_kappa_sets_distance(capsys):
    code, doc, _ = machine(["bounds", "--n", "7", "--kappa", "5"], capsys)
    assert code == 0
    assert doc["report"]["d"] == 3  # n - kappa + 1
    assert doc["report"]["gv"] == {"num": "128", "den": "29"}
    assert any("d >= n - kappa + 1 = 3" in note for note in doc["notes"])


def test_bounds_rate_flag_sets_weight(capsys):
    code, doc, _ = machine(["bounds", "--n", "8", "--d", "2", "--p", "1/4"], capsys)
    assert code == 0
    assert doc["report"]["weight"] == 2
    assert doc["manifest"]["params"]["p"] == "1/4"
    assert any("weight w = 2" in note for note in doc["notes"])


def test_bounds_rate_must_be_integral(capsys):
    code, _, err = run_cli(["bounds", "--n", "7", "--d", "2", "--p", "1/3"], capsys)
    assert code == 2
    assert err.startswith("usage error:")
    assert "integer" in err


def test_bounds_union_tail_terms(capsys):
    code, doc, _ = machine(
        ["bounds", "--n", "12", "--d", "4", "--eps", "0.1", "--lambda", "8"], capsys
    )
    assert code == 0
    terms = doc["report"]["mcdiarmid_terms"]
    assert len(terms) == 1
    count, tail = terms[0]
    assert count == 11  # n - 1 shifts
    assert float(tail) == pytest.approx(exp(-(0.1**2) * 12 / 2), rel=1e-12)
    assert doc["report"]["hcc_gv"]["vacuous"] is True
    assert doc["report"]["fhs_gv"]["vacuous"] is True


def test_bounds_requires_n(capsys):
    code, _, err = run_cli(["bounds"], capsys)
    assert code == 2
    assert "missing required option(s): --n" in err


def test_bounds_text_format_sections(capsys):
    code, out, _ = run_cli(["bounds", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    head, sep, tail = out.partition("--- machine ---\n")
    assert sep, "text output must contain the machine separator"
    assert "128/29" in head
    doc = json.loads(tail)
    assert doc["report"]["gv"] == {"num": "128", "den": "29"}


def test_bounds_print_fractions_longer_than_the_int_digit_limit(capsys):
    # The (10000, 4, 5000) GV fraction has more digits than str() converts
    # by default; both formats must still print it exactly.
    argv = ["bounds", "--n", "10000", "--q", "4", "--d", "5000", "--eps", "0.05"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    code, doc, _ = machine(argv, capsys)
    assert code == 0
    gv = doc["report"]["gv"]
    limit = sys.get_int_max_str_digits()
    assert len(gv["num"]) > limit
    assert f"{gv['num']}/{gv['den']}" in out.partition("--- machine ---")[0]
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(gv["num"]), int(gv["den"])) == gv_bound(10000, 4, 5000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_without_distance_is_sparse(capsys):
    code, doc, _ = machine(["bounds", "--n", "6"], capsys)
    assert code == 0
    assert doc["report"]["gv"] is None
    assert doc["report"]["levenshtein"] is None


# ---------------------------------------------------------------------------
# construct


def test_construct_builds_verified_code(capsys):
    code, doc, _ = machine(["construct", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    report = doc["report"]
    graph = build_graph(7, 2, 3)
    assert report["graph"]["num_vertices"] == graph.num_vertices == 4
    assert report["graph"]["degree_bound"] == graph.degree_bound == 29
    assert report["graph"]["sparsity"]["k_hat"] == str(29 * 29 + 1)
    assert report["solver"]["size"] == 2
    assert report["solver"]["reference"] == pytest.approx((4 / 29) * log(29), rel=1e-12)
    assert report["code"]["kind"] == "HCC"
    assert report["code"]["words"] == 14
    assert report["code"]["classes"] == 2
    assert report["code"]["words"] == report["code"]["classes"] * 7
    assert report["code"]["verdict"]["passed"] is True
    assert report["bounds"]["gv"] == {"num": "128", "den": "29"}
    assert doc["notes"] == []


def test_construct_oversized_distance_yields_empty_code(capsys):
    code, doc, _ = machine(["construct", "--n", "5", "--d", "7"], capsys)
    assert code == 0
    assert doc["report"]["code"]["words"] == 0
    assert doc["report"]["code"]["verdict"]["passed"] is True
    assert any(note.startswith("empty vertex set") for note in doc["notes"])


def test_construct_writes_readable_file(hcc_file):
    artifact = read_code_file(hcc_file)
    assert artifact.kind == "HCC"
    assert (artifact.n, artifact.q, artifact.d) == (7, 2, 3)
    assert artifact.word_count == 14
    # provenance comments are informational only and not round-tripped
    assert artifact.provenance == {}
    assert artifact.verified is False
    assert hcc_file.read_text().splitlines()[0].startswith("# provenance:")


def test_construct_weight_via_rate(capsys):
    code, doc, _ = machine(["construct", "--n", "7", "--d", "3", "--p", "3/7"], capsys)
    assert code == 0
    assert doc["report"]["code"]["kind"] == "OOC"
    assert doc["report"]["code"]["words"] == 7
    assert doc["report"]["bounds"]["levenshtein"] == {"num": "35", "den": "13"}


def test_construct_then_verify_roundtrip(hcc_file, capsys):
    code, doc, _ = machine(["verify", str(hcc_file)], capsys)
    assert code == 0
    assert doc["report"]["kind"] == "HCC"
    assert doc["report"]["verdict"]["passed"] is True
    assert doc["report"]["verdict"]["word_count"] == 14


def test_construct_notes_a_refused_sparsity_scan(monkeypatch, capsys):
    # Under a tiny work cap the graph falls back to the pairwise build and
    # the sparsity scan refuses; the document must say why it is missing.
    monkeypatch.setattr(budget, "ROWSCAN_BUDGET", 500)
    code, doc, _ = machine(["construct", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    assert doc["report"]["graph"]["sparsity"] is None
    refusals = [note for note in doc["notes"] if note.startswith("sparsity skipped:")]
    assert len(refusals) == 1
    assert "exceed the work cap" in refusals[0]
    assert refusals[0].endswith(", budget 500)")


def test_construct_notes_why_a_lazy_graph_has_no_sparsity(monkeypatch, capsys):
    # Under a cap below V^2 n = 4 * 4 * 7 neither build fits, so auto picks
    # the lazy graph, which keeps no adjacency for the scan to read.
    monkeypatch.setattr(budget, "ROWSCAN_BUDGET", 100)
    code, doc, _ = machine(["construct", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    assert doc["report"]["graph"]["sparsity"] is None
    assert doc["report"]["solver"]["degree_basis"] == "observed-degree"
    refusals = [note for note in doc["notes"] if note.startswith("sparsity skipped:")]
    assert len(refusals) == 1
    assert "lazy graph" in refusals[0]
    assert refusals[0].endswith("(required 112, budget 100)")


# ---------------------------------------------------------------------------
# verify


def test_verify_bare_reads_alphabet_from_header(tmp_path, capsys):
    path = tmp_path / "ternary.hcc"
    code = main(["construct", "--n", "5", "--q", "3", "--d", "3", "--out", str(path),
                 "--format", "machine"])
    assert code == 0
    capsys.readouterr()
    code, doc, _ = machine(["verify", str(path)], capsys)
    assert code == 0
    assert doc["report"]["verdict"]["passed"] is True
    assert doc["manifest"]["params"]["q"] is None
    # An explicit --q is still checked against the header.
    code, doc, _ = machine(["verify", str(path), "--q", "2"], capsys)
    assert code == 1
    assert doc["report"]["verdict"]["mismatches"] == ["expected q=2, file declares 3"]


def test_verify_reports_header_mismatch(hcc_file, capsys):
    code, out, _ = run_cli(["verify", str(hcc_file), "--n", "9"], capsys)
    assert code == 1
    head, _, tail = out.partition("--- machine ---\n")
    assert "FAIL: header mismatch" in head
    doc = json.loads(tail)
    assert doc["report"]["verdict"]["passed"] is False
    assert doc["report"]["verdict"]["mismatches"] == ["expected n=9, file declares 7"]


def test_verify_flags_corrupted_file(hcc_file, tmp_path, capsys):
    bad = tmp_path / "bad.hcc"
    bad.write_text(hcc_file.read_text() + "0000000\n")
    code, doc, _ = machine(["verify", str(bad)], capsys)
    assert code == 1
    verdict = doc["report"]["verdict"]
    assert verdict["passed"] is False
    assert verdict["checks"]["full_period"] is False
    assert verdict["checks"]["size_multiple_of_n"] is False
    assert {"kind": "period", "witness": ["0000000"]} in verdict["violations"]


def test_verify_format_error_names_line(tmp_path, capsys):
    path = tmp_path / "fmt.hcc"
    path.write_text("HCC x 2 1\n")
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert err.startswith("format error: line 1:")


def test_verify_symbol_above_255_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "wide.hcc"
    path.write_text("HCC 2 300 1\n0,299\n")
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert err.startswith("format error: line 2: symbol 299")


def test_verify_non_utf8_file_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "bytes.hcc"
    path.write_bytes(b"HCC 2 2 1\n\xff1\n")
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert err.startswith("format error: line 2: not UTF-8 text")


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["verify", str(tmp_path / "nope.hcc")], capsys)
    assert code == 2
    assert err.startswith("usage error:")


def test_verify_header_only_file_passes_vacuously(tmp_path, capsys):
    path = tmp_path / "empty.hcc"
    path.write_text("HCC 5 2 2\n")
    code, doc, _ = machine(["verify", str(path)], capsys)
    assert code == 0
    assert doc["report"]["verdict"]["passed"] is True
    assert doc["report"]["verdict"]["word_count"] == 0


# ---------------------------------------------------------------------------
# fhs


def test_fhs_from_file(hcc_file, capsys):
    code, doc, _ = machine(["fhs", "--from", str(hcc_file)], capsys)
    assert code == 0
    report = doc["report"]
    assert report["source"] == {"kind": "HCC", "words": 14}
    assert report["sequences"] == 2
    assert report["lambda_claimed"] == 4  # n - d
    corr = report["correlations"]
    assert corr["within_claim"] is True
    assert corr["max_auto"] == 3
    assert corr["max_cross"] == 4
    assert corr["lambda_achieved"] == 4


def test_fhs_writes_file_and_verifies(hcc_file, tmp_path, capsys):
    out_path = tmp_path / "set.fhs"
    code, doc, _ = machine(["fhs", "--from", str(hcc_file), "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# provenance:")
    assert lines[1] == "FHS 7 2 3 4"
    code, vdoc, _ = machine(["verify", str(out_path)], capsys)
    assert code == 0
    assert vdoc["report"]["correlations"] == doc["report"]["correlations"]


def test_fhs_pipeline_without_source(capsys):
    code, doc, _ = machine(["fhs", "--n", "7", "--d", "3"], capsys)
    assert code == 0
    assert doc["report"]["sequences"] == 2
    assert doc["report"]["lambda_claimed"] == 4


def test_fhs_rejects_wmuc_source(hcc_file, tmp_path, capsys):
    wm = tmp_path / "code.wmuc"
    assert main(["wmuc", "--from", str(hcc_file), "--out", str(wm)]) == 0
    capsys.readouterr()
    code, _, err = run_cli(["fhs", "--from", str(wm)], capsys)
    assert code == 2
    assert "derivations start from an HCC or OOC file" in err


# ---------------------------------------------------------------------------
# wmuc


def test_wmuc_default_kappa(hcc_file, capsys):
    code, doc, _ = machine(["wmuc", "--from", str(hcc_file)], capsys)
    assert code == 0
    assert doc["report"]["kappa"] == 5  # n - d + 1
    assert doc["report"]["words"] == 2
    assert doc["report"]["verdict"]["passed"] is True


def test_wmuc_explicit_kappa_and_file(hcc_file, tmp_path, capsys):
    out_path = tmp_path / "code.wmuc"
    code, doc, _ = machine(
        ["wmuc", "--from", str(hcc_file), "--kappa", "6", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert doc["report"]["kappa"] == 6
    assert out_path.read_text().splitlines()[1] == "WMUC 7 2 3 6"
    code, vdoc, _ = machine(["verify", str(out_path)], capsys)
    assert code == 0
    assert vdoc["report"]["verdict"]["passed"] is True


# ---------------------------------------------------------------------------
# experiment


def test_experiment_census_plain(capsys):
    code, doc, _ = machine(["experiment", "setA", "--n", "4", "--eps", "0.25"], capsys)
    assert code == 0
    report = doc["report"]
    assert report["count"] == 12
    assert report["total"] == 16
    assert report["threshold"] == "1"  # n(1 - 1/q - eps)
    assert report["vacuous"] is True
    assert report["bound_holds"] is True


def test_experiment_census_weight_slice(capsys):
    code, doc, _ = machine(["experiment", "setB", "--n", "8", "--eps", "0.2"], capsys)
    assert code == 0
    report = doc["report"]
    assert report["count"] == 64
    assert report["total"] == 70  # C(8, 4): default rate p = 1/2
    assert report["threshold"] == "8/5"
    assert report["probability"] == "32/35"


def test_experiment_mc_tail_matches_library(capsys):
    code, doc, _ = machine(
        ["experiment", "mc-tail", "--n", "12", "--eps", "0.2", "--samples", "2000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    report = doc["report"]
    est = mc_tail(12, 2, Fraction(1, 5), 2000, 7)
    assert report["model"] == "uniform"
    assert report["threshold"] == "18/5"
    assert report["rng"] == "numpy-pcg64"
    assert report["seed"] == 7
    assert report["samples"] == 2000
    assert report["hits"] == est.hits == 483
    assert report["estimate"] == pytest.approx(483 / 2000)
    assert report["consistent"] is est.consistent is True


def test_experiment_mc_tail_weight_slice_model(capsys):
    code, doc, _ = machine(
        [
            "experiment", "mc-tail", "--n", "12", "--p", "0.5", "--eps", "0.2",
            "--samples", "2000", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    est = conditional_tail_weight_slice(12, Fraction(1, 2), Fraction(1, 5), 2000, 7)
    assert doc["report"]["model"] == "weight-slice"
    assert doc["report"]["hits"] == est.hits


def test_experiment_intersection_decay_rows(capsys):
    code, doc, _ = machine(["experiment", "intersection-decay", "--n", "6", "--d", "2"], capsys)
    assert code == 0
    # brute force: intersection of radius-2 balls around 0^6 and 1^s 0^(6-s)
    centers = [word([1] * s + [0] * (6 - s), 2) for s in range(7)]
    zero = word([0] * 6, 2)
    expected = []
    for s in range(7):
        count = 0
        for value in range(64):
            w = word([(value >> (5 - i)) & 1 for i in range(6)], 2)
            if hamming_distance(w, zero) <= 2 and hamming_distance(w, centers[s]) <= 2:
                count += 1
        expected.append(
            {"separation": s, "intersection": count, "ratio": str(Fraction(count, 22))}
        )
    assert doc["report"]["rows"] == expected
    assert doc["report"]["rows"][0]["intersection"] == 22  # full ball at separation 0
    assert doc["report"]["rows"][6]["intersection"] == 0  # disjoint past 2t


def test_experiment_sparsity_defaults_tau(capsys):
    code, doc, _ = machine(["experiment", "sparsity", "--n", "8", "--d", "3"], capsys)
    assert code == 0
    degrees = doc["report"]["degrees"]
    assert degrees["num_vertices"] == 10
    assert degrees["num_edges"] == 33
    assert degrees["histogram"] == {"6": 4, "7": 6}
    assert degrees["within_bound"] is True
    sparsity = doc["report"]["sparsity"]
    assert sparsity["tau"] == "3/8"  # defaults to d/n
    assert sparsity["split_distance"] == "3/2"
    assert sparsity["max_s"] == 3
    assert sparsity["max_t"] == 5
    assert sparsity["k_hat"] == "1369/15"


def test_experiment_requires_kind(capsys):
    code, _, err = run_cli(["experiment", "--n", "4", "--eps", "0.25"], capsys)
    assert code == 2
    assert "experiment needs a kind" in err


def test_experiment_mc_tail_rejects_alphabet_past_a_byte(capsys):
    argv = ["experiment", "mc-tail", "--n", "20", "--q", "300", "--eps", "0.1",
            "--samples", "100", "--seed", "1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "q=300" in err


def test_experiment_unknown_kind_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "bogus", "--n", "4"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# graph-stats


def test_graph_stats_degree_audit(capsys):
    code, doc, _ = machine(["graph-stats", "--n", "6", "--d", "2"], capsys)
    assert code == 0
    degrees = doc["report"]["degrees"]
    assert degrees["num_vertices"] == 9
    assert degrees["num_edges"] == 16
    assert degrees["max_degree"] == 4
    assert degrees["degree_bound"] == 7
    assert degrees["histogram"] == {"2": 2, "4": 7}
    assert degrees["mean_degree"] == pytest.approx(32 / 9)
    assert degrees["within_bound"] is True
    assert doc["report"]["sparsity"] is None


def test_graph_stats_optional_sparsity(capsys):
    code, doc, _ = machine(["graph-stats", "--n", "6", "--d", "2", "--tau", "1/3"], capsys)
    assert code == 0
    sparsity = doc["report"]["sparsity"]
    assert sparsity["tau"] == "1/3"
    assert sparsity["split_distance"] == "1"  # d - tau*n/2 = 2 - 1
    assert sparsity["max_s"] == 4
    assert sparsity["max_t"] == 0
    assert sparsity["max_neighborhood_edges"] == 0
    assert sparsity["k_hat"] == "50"  # edgeless neighborhoods: D^2 + 1


# ---------------------------------------------------------------------------
# capacity and usage errors


def test_capacity_exit_code(monkeypatch, capsys):
    monkeypatch.delenv("CYCLOCODE_BUDGET", raising=False)
    code, _, err = run_cli(["construct", "--n", "26", "--d", "2"], capsys)
    assert code == 3
    assert err.startswith("capacity error:")


def test_budget_flag_can_trigger_capacity(capsys):
    code, _, err = run_cli(["graph-stats", "--n", "8", "--d", "3", "--budget", "100"], capsys)
    assert code == 3
    assert err.startswith("capacity error:")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bounds", "--n", "4", "--eps", "zzz"],
        ["construct", "--n", "6", "--d", "2", "--strategy", "bogus"],
    ],
)
def test_parser_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# manifest replay


def _strip_timing(text):
    return [line for line in text.splitlines() if '"timing_seconds"' not in line]


def test_manifest_replay_is_byte_identical(tmp_path, capsys):
    argv = [
        "construct", "--n", "7", "--d", "3", "--seed", "5",
        "--strategy", "random-restart", "--format", "machine",
    ]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    saved = tmp_path / "run.json"
    saved.write_text(first)
    code, second, _ = run_cli(
        ["construct", "--manifest", str(saved), "--format", "machine"], capsys
    )
    assert code == 0
    assert _strip_timing(first) == _strip_timing(second)
    assert json.loads(second)["manifest"]["seed"] == 5


def test_manifest_accepts_bare_manifest_section(tmp_path, capsys):
    code, first, _ = run_cli(["bounds", "--n", "7", "--d", "3", "--format", "machine"], capsys)
    assert code == 0
    saved = tmp_path / "manifest.json"
    saved.write_text(json.dumps(json.loads(first)["manifest"]))
    code, second, _ = run_cli(["bounds", "--manifest", str(saved), "--format", "machine"], capsys)
    assert code == 0
    assert _strip_timing(first) == _strip_timing(second)
