"""Code artifacts end to end: assembly, verification, derivations, file I/O.

Verification verdicts are checked for exactness (witnesses included), for
order-insensitivity, and across the strategy-routing paths (pairwise scan,
ball probing, class collapse, pure-python fallback).
"""

import itertools

import numpy as np
import pytest

from cyclocode import (
    CapacityError,
    CodeFileFormatError,
    ContractViolation,
    DimensionMismatch,
    cyclic_shift,
    engine,
    hamming_distance,
    word,
    word_to_text,
)
from cyclocode.classgraph import build_graph
from cyclocode.codes import (
    CodeArtifact,
    assemble,
    derive_fhs,
    derive_wmuc,
    hamming_correlation,
    read_code_file,
    verify_code,
    verify_fhs,
    verify_hcc,
    verify_ooc,
    verify_wmuc,
    write_code_file,
)
from cyclocode.solver import exact_mis


def orbit_words(text, q=2):
    x = word(text, q)
    return [cyclic_shift(x, i) for i in range(x.n)]


def texts(rows):
    return ["".join(str(int(s)) for s in row) for row in rows]


# ---------------------------------------------------------------------------
# assembly


def test_assemble_unions_the_chosen_orbits():
    g = build_graph(3, 2, 1)
    art = assemble(g, (0, 1))
    assert art.kind == "HCC"
    assert (art.n, art.q, art.d) == (3, 2, 1)
    assert art.word_count == 6
    assert texts(art.words_digits) == ["001", "010", "011", "100", "101", "110"]
    assert art.provenance["num_classes"] == 2
    assert art.provenance["num_graph_vertices"] == 2
    assert not art.verified


def test_assemble_empty_selection():
    g = build_graph(6, 2, 2)
    art = assemble(g, ())
    assert art.word_count == 0
    assert art.words_digits.shape == (0, 6)


def test_assemble_word_count_is_n_times_classes():
    g = build_graph(8, 2, 3)
    chosen = exact_mis(g)
    art = assemble(g, chosen)
    assert art.word_count == 8 * len(chosen)
    # every orbit is fully present
    packed = engine.codec_for(8, 2).pack(art.words_digits)
    for value in packed:
        rots = engine.codec_for(8, 2).all_rotations(np.array([value], dtype=np.uint64))[0]
        assert np.isin(rots, packed).all()


def test_assemble_constant_weight_kind():
    g = build_graph(7, 2, 3, weight=3)
    art = assemble(g, (0,))
    assert art.kind == "OOC"
    assert art.weight == 3
    assert art.word_count == 7
    assert (art.words_digits.sum(axis=1) == 3).all()


def test_assemble_rejects_bad_vertex_sets():
    g = build_graph(8, 2, 3)
    v0_neighbor = int(g.neighbors(0)[0])
    with pytest.raises(ContractViolation):
        assemble(g, (0, v0_neighbor))
    with pytest.raises(ContractViolation):
        assemble(g, (0, 0))
    with pytest.raises(ValueError):
        assemble(g, (0, g.num_vertices))


# ---------------------------------------------------------------------------
# hopping-cyclic verification


def test_verify_passes_on_a_full_orbit():
    v = verify_hcc(orbit_words("001"), 3, 2, 1)
    assert v.passed
    assert v.checks == {
        "distinct": True,
        "full_period": True,
        "shift_closed": True,
        "min_distance": True,
        "size_multiple_of_n": True,
    }
    assert v.word_count == 3
    assert v.summary() == "PASS (3 words)"


def test_verify_flags_periodic_words():
    v = verify_hcc([word("000", 2)], 3, 2, 1)
    assert not v.passed
    assert v.checks["full_period"] is False
    assert v.checks["size_multiple_of_n"] is False
    assert v.violations[0].kind == "period"
    assert word_to_text(v.violations[0].witness[0]) == "000"


def test_verify_flags_missing_shift():
    v = verify_hcc([word("001", 2), word("010", 2)], 3, 2, 1)
    assert not v.passed
    assert v.checks["shift_closed"] is False
    witness = [word_to_text(w) for w in v.violations[0].witness]
    assert v.violations[0].kind == "closure"
    assert witness == ["010", "100"]


def test_verify_flags_short_distance_with_witness():
    rows = orbit_words("0001") + orbit_words("0111")
    v = verify_hcc(rows, 4, 2, 3)
    assert not v.passed
    assert v.checks["min_distance"] is False
    viol = next(x for x in v.violations if x.kind == "distance")
    assert viol.detail == {"distance": 2, "required": 3}
    a, b = viol.witness
    assert hamming_distance(a, b) == 2


def test_verify_flags_duplicates():
    rows = orbit_words("001") + [word("001", 2)]
    v = verify_hcc(rows, 3, 2, 1)
    assert not v.passed
    assert v.checks["distinct"] is False
    assert v.violations[0].kind == "duplicate"
    assert v.violations[0].detail["count"] == 2


def test_verify_updates_artifact_flag():
    g = build_graph(7, 2, 3)
    art = assemble(g, exact_mis(g))
    assert not art.verified
    assert verify_hcc(art, 7, 2, 3).passed
    assert art.verified
    bad = CodeArtifact(kind="HCC", n=3, q=2, d=1, words_digits=np.zeros((1, 3), dtype=np.uint8))
    verify_hcc(bad, 3, 2, 1)
    assert bad.verified is False


def test_verify_empty_code_is_vacuous():
    art = CodeArtifact(kind="HCC", n=5, q=2, d=3)
    v = verify_hcc(art, 5, 2, 3)
    assert v.passed
    assert v.word_count == 0
    assert "vacuous" in v.notes[0]
    assert art.verified


def test_verify_rejects_out_of_range_distance():
    with pytest.raises(ValueError):
        verify_hcc(orbit_words("001"), 3, 2, 0)
    with pytest.raises(ValueError):
        verify_hcc(orbit_words("001"), 3, 2, 4)


def test_verify_input_forms_agree():
    rows = orbit_words("0001011")
    as_words = verify_hcc(rows, 7, 2, 3)
    as_matrix = verify_hcc(np.array([w.symbols for w in rows], dtype=np.uint8), 7, 2, 3)
    art = CodeArtifact(
        kind="HCC", n=7, q=2, d=3, words_digits=np.array([w.symbols for w in rows], dtype=np.uint8)
    )
    as_artifact = verify_hcc(art, 7, 2, 3)
    assert as_words.to_dict() == as_matrix.to_dict() == as_artifact.to_dict()


def test_verify_is_order_insensitive():
    rows = orbit_words("0001") + orbit_words("0111")
    base = verify_hcc(rows, 4, 2, 3).to_dict()
    rng = np.random.default_rng(5)
    for _ in range(4):
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        assert verify_hcc(shuffled, 4, 2, 3).to_dict() == base


def test_verify_shape_and_symbol_guards():
    with pytest.raises(DimensionMismatch):
        verify_hcc([word("0011", 2)], 3, 2, 1)
    with pytest.raises(ValueError):
        verify_hcc(np.array([[0, 2, 1]], dtype=np.uint8), 3, 2, 1)


@pytest.mark.parametrize(
    "rows, symbol",
    [
        ([[0, 1], [1, 0], [-1, 1], [1, -1]], -1),  # wrapped to 255: a false PASS
        ([[0, 1], [1, 0], [256, 1], [1, 256]], 256),  # wrapped to 0: a false duplicate
    ],
)
def test_verify_rejects_symbols_outside_the_byte_range(rows, symbol):
    for code in (np.array(rows), np.array(rows, dtype=np.int16), [tuple(r) for r in rows]):
        with pytest.raises(ValueError, match=f"symbol {symbol} out of range"):
            verify_code(code, 2, 300, 1)


# ---------------------------------------------------------------------------
# constant-weight verification


def test_verify_ooc_checks_weight():
    rows = orbit_words("0011011")
    v = verify_ooc(rows, 7, 2, 4)
    assert v.passed
    assert v.checks["constant_weight"] is True
    mixed = rows + orbit_words("0000011")
    vm = verify_ooc(mixed, 7, 2, 4)
    assert not vm.passed
    assert vm.checks["constant_weight"] is False
    viol = next(x for x in vm.violations if x.kind == "weight")
    assert viol.detail == {"weight": 2, "expected": 4}


def test_verify_ooc_weight_check_precedes_distance():
    # A weight violation does not hide the other checks: they all run.
    v = verify_ooc(orbit_words("0000011"), 7, 1, 3)
    assert set(v.checks) == {
        "distinct",
        "constant_weight",
        "full_period",
        "shift_closed",
        "min_distance",
        "size_multiple_of_n",
    }


# ---------------------------------------------------------------------------
# strategy routing on larger codes


def test_verify_routes_through_ball_patterns():
    # Even-weight full-period words of length 14: shift-closed, pairwise
    # distances even, so the d=2 claim holds; the code is too large for the
    # pairwise scan but the radius-1 ball has only 14 patterns.
    system = engine.class_system(14, 2, None, None)
    rows = system.codec.unpack(np.sort(system.rotations.reshape(-1)))
    even = rows[rows.sum(axis=1) % 2 == 0]
    assert len(even) == 8064
    v = verify_code(even, 14, 2, 2)
    assert v.passed
    assert v.notes == ("distance check via 14 ball patterns",)


def test_verify_routes_through_class_collapse():
    # All full-period words of length 13 with an inflated distance claim:
    # too many words for pairwise, too many patterns for ball probing, but
    # shift-closed, so the orbit-collapse scan finds the true distance 2.
    system = engine.class_system(13, 2, None, None)
    rows = system.codec.unpack(np.sort(system.rotations.reshape(-1)))
    assert len(rows) == 8190
    v = verify_code(rows, 13, 2, 6)
    assert not v.passed
    assert v.notes == ("distance check via class collapse",)
    viol = next(x for x in v.violations if x.kind == "distance")
    assert viol.detail == {"distance": 2, "required": 6}


def test_verify_refuses_when_no_strategy_fits():
    rng = np.random.default_rng(1)
    codec = engine.codec_for(16, 2)
    packed = np.sort(rng.choice(1 << 16, size=6001, replace=False).astype(np.uint64))
    rows = codec.unpack(packed)
    with pytest.raises(CapacityError):
        verify_code(rows, 16, 2, 7)


def test_verify_python_fallback_beyond_packed_layout():
    # n = 70, q = 3 exceeds the 64-bit packed layout; the reference path
    # must handle a weight-1 orbit (distance 2 between any two rotations).
    n = 70
    rows = []
    for i in range(n):
        s = [0] * n
        s[i] = 1
        rows.append(word(tuple(s), 3))
    v = verify_code(rows, n, 3, 2)
    assert v.passed
    assert v.checks["min_distance"] is True
    periodic = word(tuple([0, 1] * (n // 2)), 3)
    vf = verify_code([periodic], n, 3, 1)
    assert not vf.passed
    assert vf.checks["full_period"] is False


def test_verify_python_fallback_matches_packed_on_small_codes():
    # Force the reference path by calling it directly and compare verdicts.
    from cyclocode.codes import _verify_packed, _verify_python

    rng = np.random.default_rng(8)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        rows = np.unique(rng.integers(0, 2, size=(m, 5), dtype=np.uint8), axis=0)
        for d in (1, 2, 3):
            cp, vp, _ = _verify_packed(rows, 5, 2, d, None)
            cq, vq, _ = _verify_python(rows, 5, 2, d, None)
            assert cp == cq
            assert [x.kind for x in vp] == [x.kind for x in vq]


# ---------------------------------------------------------------------------
# correlation


def test_hamming_correlation_examples():
    x = word("01", 2)
    y = word("10", 2)
    assert hamming_correlation(x, x, 0) == 2
    assert hamming_correlation(x, y, 1) == 2
    assert hamming_correlation(x, y, 0) == 0
    z = word("0011011", 2)
    assert hamming_correlation(z, z, 0) == 7


def test_hamming_correlation_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = word(tuple(int(s) for s in rng.integers(0, 3, size=n)), 3)
        b = word(tuple(int(s) for s in rng.integers(0, 3, size=n)), 3)
        for i in range(n):
            coincidences = sum(
                1 for j in range(n) if a.symbols[j] == b.symbols[(j + i) % n]
            )
            assert hamming_correlation(a, b, i) == coincidences
            assert hamming_correlation(a, b, i) == n - hamming_distance(a, cyclic_shift(b, i))


def test_hamming_correlation_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        hamming_correlation(word("01", 2), word("012", 3), 0)


# ---------------------------------------------------------------------------
# FHS derivation and audit


def verified_artifact(n, q, d, weight=None):
    g = build_graph(n, q, d, weight=weight)
    art = assemble(g, exact_mis(g, limit=50))
    assert verify_code(art, n, q, d, weight=weight).passed
    return art


def test_derive_fhs_from_distance_n_code():
    art = verified_artifact(2, 2, 2)
    fhs, report = derive_fhs(art)
    assert fhs.kind == "FHS"
    assert fhs.lam == 0
    assert fhs.word_count == 1
    assert report.sequences == 1
    assert report.max_auto == 0
    assert report.max_cross is None
    assert report.lambda_achieved == 0
    assert report.within_claim


def test_derive_fhs_pipeline_with_independent_recheck():
    art = verified_artifact(7, 2, 3)
    fhs, report = derive_fhs(art)
    assert fhs.lam == 4
    assert report.sequences == 2
    assert report.within_claim
    seqs = fhs.words()
    max_auto = max(
        hamming_correlation(s, s, i) for s in seqs for i in range(1, 7)
    )
    max_cross = max(
        hamming_correlation(a, b, i)
        for a, b in itertools.permutations(seqs, 2)
        for i in range(7)
    )
    assert report.max_auto == max_auto == 3
    assert report.max_cross == max_cross == 4
    assert report.lambda_achieved == 4


def test_derive_fhs_takes_one_sequence_per_orbit():
    art = verified_artifact(8, 2, 3)
    fhs, report = derive_fhs(art)
    assert art.word_count == 8 * report.sequences
    canon = {word_to_text(w) for w in fhs.words()}
    assert len(canon) == report.sequences


def test_derive_fhs_empty_code():
    art = CodeArtifact(kind="HCC", n=5, q=2, d=3)
    verify_code(art, 5, 2, 3)
    fhs, report = derive_fhs(art)
    assert fhs.word_count == 0
    assert report.sequences == 0
    assert report.max_auto is None and report.max_cross is None
    assert report.lambda_achieved is None
    assert report.within_claim


def test_derive_fhs_preconditions():
    art = verified_artifact(7, 2, 3)
    fhs, _ = derive_fhs(art)
    with pytest.raises(ContractViolation):
        derive_fhs(fhs)  # wrong kind
    fresh = CodeArtifact(kind="HCC", n=7, q=2, d=3, words_digits=art.words_digits)
    with pytest.raises(ContractViolation):
        derive_fhs(fresh)  # never verified


def test_verify_fhs_roundtrip_and_overclaim():
    art = verified_artifact(7, 2, 3)
    fhs, report = derive_fhs(art)
    verdict, audit = verify_fhs(fhs.words(), 7, 2, 4)
    assert verdict.passed
    assert audit.to_dict() == report.to_dict()
    tight, audit3 = verify_fhs(fhs.words(), 7, 2, 3)
    assert not tight.passed
    assert audit3.lambda_achieved == 4
    assert audit3.lam_claimed == 3
    viol = tight.violations[0]
    assert viol.kind == "correlation"
    assert viol.detail["correlation"] == 4
    assert viol.detail["claimed"] == 3


def test_verify_fhs_orbit_duplicates_hit_full_correlation():
    verdict, report = verify_fhs([word("001", 2), word("010", 2)], 3, 2, 2)
    assert not verdict.passed
    assert report.max_cross == 3
    viol = verdict.violations[0]
    assert viol.kind == "correlation"
    assert viol.detail == {"shift": 2, "correlation": 3, "claimed": 2}
    assert [word_to_text(w) for w in viol.witness] == ["001", "010"]


def test_verify_fhs_autocorrelation_violation():
    verdict, report = verify_fhs([word("0101", 2)], 4, 2, 2)
    assert not verdict.passed
    assert report.max_auto == 4
    viol = verdict.violations[0]
    assert viol.detail == {"shift": 2, "correlation": 4, "claimed": 2}


def test_verify_fhs_empty_and_domain():
    verdict, report = verify_fhs([], 5, 2, 2)
    assert verdict.passed
    assert report.sequences == 0
    with pytest.raises(ValueError):
        verify_fhs([word("001", 2)], 3, 2, -1)
    with pytest.raises(ValueError):
        verify_fhs([word("001", 2)], 3, 2, 4)


def test_verify_fhs_large_set_escalation_paths():
    # Above the pairwise limit the audit canonicalizes and escalates ball
    # radii.  Seeded choice of 6001 distinct orbits of length 17: the true
    # max cross-correlation is 16 (two orbits at distance 1).
    codec = engine.codec_for(17, 2)
    system = engine.class_system(17, 2, None, None)
    rng = np.random.default_rng(9)
    pick = np.sort(rng.choice(system.count, size=6001, replace=False))
    rows = codec.unpack(system.reps_packed[pick])
    verdict, report = verify_fhs(rows, 17, 2, 15)
    assert not verdict.passed
    assert report.max_cross == 16
    assert report.max_auto == 15
    relaxed, report2 = verify_fhs(rows, 17, 2, 16)
    assert relaxed.passed
    assert report2.max_cross == 16

    # An orbit duplicate in a large set short-circuits to correlation n.
    dup = codec.unpack(codec.rotate(codec.pack(rows[:1]), 3))
    verdict3, report3 = verify_fhs(np.concatenate([rows, dup]), 17, 2, 16)
    assert not verdict3.passed
    assert report3.max_cross == 17


def test_verify_fhs_correlation_definition_against_report():
    # Small exhaustive cross-check of the audit against the raw definition.
    seqs = [word("00111", 2), word("01011", 2)]
    _, report = verify_fhs(seqs, 5, 2, 4)
    expect_auto = max(hamming_correlation(s, s, i) for s in seqs for i in range(1, 5))
    expect_cross = max(
        hamming_correlation(a, b, i)
        for a, b in itertools.permutations(seqs, 2)
        for i in range(5)
    )
    assert report.max_auto == expect_auto
    assert report.max_cross == expect_cross


# ---------------------------------------------------------------------------
# WMUC verification and derivation


def test_verify_wmuc_examples():
    assert verify_wmuc([word("011", 2)], 3, 2, 2).passed
    assert verify_wmuc([word("001", 2)], 3, 2, 1).passed
    v = verify_wmuc([word("010", 2)], 3, 2, 1)
    assert not v.passed
    assert v.checks["uncorrelated"] is False
    viol = v.violations[0]
    assert viol.kind == "prefix-suffix"
    assert viol.detail == {"length": 1}
    assert [word_to_text(w) for w in viol.witness] == ["010", "010"]


def test_verify_wmuc_cross_word_collision():
    # prefix of one word equals suffix of another
    v = verify_wmuc([word("0011", 2), word("1100", 2)], 4, 2, 2)
    assert not v.passed
    assert v.violations[0].detail["length"] == 2


def test_verify_wmuc_kappa_n_is_trivially_clean():
    assert verify_wmuc([word("010", 2)], 3, 2, 3).passed


def test_verify_wmuc_domain_and_empty():
    with pytest.raises(ValueError):
        verify_wmuc([word("001", 2)], 3, 2, 0)
    with pytest.raises(ValueError):
        verify_wmuc([word("001", 2)], 3, 2, 4)
    v = verify_wmuc([], 6, 2, 2)
    assert v.passed
    assert "vacuous" in v.notes[0]


def test_verify_wmuc_matches_brute_force():
    # Exhaustive equivalence against the definition on random small sets.
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        rows = np.unique(rng.integers(0, 2, size=(m, 6), dtype=np.uint8), axis=0)
        ws = [tuple(int(s) for s in row) for row in rows]
        for kappa in range(1, 7):
            clean = all(
                x[:ell] != y[6 - ell :]
                for ell in range(kappa, 6)
                for x in ws
                for y in ws
            )
            verdict = verify_wmuc(rows, 6, 2, kappa)
            assert verdict.passed == clean


def test_verify_wmuc_python_path_beyond_packed_layout():
    n = 33
    clean = word(tuple([0] * 32 + [3]), 4)
    assert verify_wmuc([clean], n, 4, 1).passed
    colliding = word(tuple([3] + [0] * 31 + [3]), 4)
    v = verify_wmuc([clean, colliding], n, 4, 1)
    assert not v.passed
    assert v.violations[0].detail["length"] == 1


def test_derive_wmuc_smallest_case():
    art = verified_artifact(2, 2, 2)
    wm = derive_wmuc(art, 1)
    assert wm.kind == "WMUC"
    assert wm.kappa == 1
    assert texts(wm.words_digits) == ["01"]
    assert verify_wmuc(wm, 2, 2, 1).passed


def test_derive_wmuc_pipeline_at_minimum_kappa():
    art = verified_artifact(7, 2, 3)
    # smallest admissible kappa is n - d + 1 = 5
    for kappa in (5, 6, 7):
        wm = derive_wmuc(art, kappa)
        assert wm.word_count == 2
        assert verify_wmuc(wm, 7, 2, kappa).passed


def test_derive_wmuc_preconditions():
    art = verified_artifact(7, 2, 3)
    with pytest.raises(ContractViolation):
        derive_wmuc(art, 4)  # needs d >= n - kappa + 1 = 4 > 3
    with pytest.raises(ValueError):
        derive_wmuc(art, 0)
    with pytest.raises(ValueError):
        derive_wmuc(art, 8)
    fresh = CodeArtifact(kind="HCC", n=7, q=2, d=3, words_digits=art.words_digits)
    with pytest.raises(ContractViolation):
        derive_wmuc(fresh, 5)
    fhs, _ = derive_fhs(art)
    with pytest.raises(ContractViolation):
        derive_wmuc(fhs, 5)


# ---------------------------------------------------------------------------
# file round trips


def roundtrip(tmp_path, artifact, name="code.txt"):
    path = tmp_path / name
    write_code_file(path, artifact)
    return path, read_code_file(path)


def test_file_roundtrip_hcc(tmp_path):
    g = build_graph(3, 2, 1)
    art = assemble(g, (0, 1))
    path, back = roundtrip(tmp_path, art)
    assert (back.kind, back.n, back.q, back.d) == ("HCC", 3, 2, 1)
    assert back.weight is None and back.kappa is None and back.lam is None
    assert np.array_equal(back.words_digits, art.words_digits)
    assert back.verified is False
    assert back.provenance == {}  # comments are not round-tripped
    text = path.read_text()
    assert text.startswith("# provenance: ")
    assert text.endswith("\n")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body[0] == "HCC 3 2 1"
    assert body[1:] == sorted(body[1:])


def test_file_roundtrip_ooc(tmp_path):
    g = build_graph(7, 2, 3, weight=3)
    art = assemble(g, (0,))
    path, back = roundtrip(tmp_path, art)
    assert back.kind == "OOC"
    assert back.weight == 3
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "OOC 7 2 3 3"
    assert np.array_equal(back.words_digits, art.words_digits)


def test_file_roundtrip_fhs_and_wmuc(tmp_path):
    art = verified_artifact(7, 2, 3)
    fhs, _ = derive_fhs(art)
    _, fhs_back = roundtrip(tmp_path, fhs, "fhs.txt")
    assert fhs_back.kind == "FHS"
    assert fhs_back.lam == 4
    assert np.array_equal(fhs_back.words_digits, fhs.words_digits)
    wm = derive_wmuc(art, 5)
    path, wm_back = roundtrip(tmp_path, wm, "wmuc.txt")
    assert wm_back.kind == "WMUC"
    assert wm_back.kappa == 5
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "WMUC 7 2 3 5"


def test_file_comma_format_for_large_alphabets(tmp_path):
    art = CodeArtifact(
        kind="HCC", n=3, q=12, d=1, words_digits=np.array([[0, 11, 3]], dtype=np.uint8)
    )
    path, back = roundtrip(tmp_path, art)
    assert path.read_text() == "HCC 3 12 1\n0,11,3\n"
    assert back.words_digits.tolist() == [[0, 11, 3]]


def test_file_write_is_deterministic(tmp_path):
    art = verified_artifact(7, 2, 3)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_code_file(a, art)
    write_code_file(b, art)
    assert a.read_bytes() == b.read_bytes()
    # a read-back artifact rewrites to the same bytes minus the comment
    back = read_code_file(a)
    c = tmp_path / "c.txt"
    write_code_file(c, back)
    stripped = "".join(
        line + "\n" for line in a.read_text().splitlines() if not line.startswith("#")
    )
    assert c.read_text() == stripped


def test_file_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("HCC 5 2 2\n")
    art = read_code_file(path)
    assert art.word_count == 0
    assert art.words_digits.shape == (0, 5)


def test_file_blank_lines_and_comments_are_skipped(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# generated\n\nHCC 3 2 1\n# body starts\n001\n010\n100\n")
    art = read_code_file(path)
    assert art.word_count == 3


def test_file_format_errors_carry_line_numbers(tmp_path):
    cases = [
        ("HCC 3 2\n", 1, "header needs"),
        ("XYZ 3 2 1\n", 1, "unknown code kind"),
        ("OOC 7 2 3\n", 1, "5 tokens"),
        ("HCC a 2 1\n", 1, "non-integer"),
        ("HCC 3 1 1\n", 1, "out of domain"),
        ("HCC 3 2 5\n", 1, "out of domain"),
        ("HCC 3 2 0\n", 1, "out of domain"),
        ("HCC 3 2 1\n0x1\n", 2, "unparseable word"),
        ("# c\nHCC 3 2 1\n0011\n", 3, "word length"),
        # lengths n-1 and n+1 add up to 2n: only a per-line check sees them
        ("HCC 3 2 1\n01\n0110\n", 2, "word length 2 != n=3"),
        ("HCC 3 2 1\n0110\n01\n", 2, "word length 4 != n=3"),
        ("HCC 3 12 1\n1,2\n1,2,3,4\n", 2, "word length 2 != n=3"),
        # 256 would wrap to 0 in a uint8 cast
        ("HCC 2 257 1\n0,1\n0,256\n", 3, "symbol 256 exceeds 255"),
        ("HCC 2 300 1\n0,299\n", 2, "symbol 299 exceeds 255"),
        ("HCC 2 200 1\n0,200\n", 2, "unparseable word '0,200'"),
        ("HCC 3 12 1\n0,-1,2\n", 2, "unparseable word '0,-1,2'"),
        # the first malformed line wins: line 3 fails on range, line 4 on length
        ("HCC 3 2 1\n010\n012\n01\n", 3, "unparseable word '012'"),
        # a byte that is not UTF-8, after a valid two-byte character and CRLFs
        (b"# \xc3\xa9\r\nHCC 2 2 1\r\n01\r\n1\xff\r\n", 4, "not UTF-8 text"),
    ]
    for i, (content, lineno, fragment) in enumerate(cases):
        path = tmp_path / f"bad{i}.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(CodeFileFormatError) as err:
            read_code_file(path)
        assert err.value.line_number == lineno
        assert fragment in str(err.value)
        assert f"line {lineno}:" in str(err.value)


def test_file_missing_header(tmp_path):
    path = tmp_path / "none.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(CodeFileFormatError) as err:
        read_code_file(path)
    assert err.value.line_number is None


# ---------------------------------------------------------------------------
# end to end


def test_full_pipeline_all_artifact_kinds(tmp_path):
    g = build_graph(8, 2, 3)
    art = assemble(g, exact_mis(g))
    assert verify_hcc(art, 8, 2, 3).passed
    fhs, report = derive_fhs(art)
    assert report.within_claim
    assert verify_fhs(fhs, 8, 2, fhs.lam)[0].passed
    wm = derive_wmuc(art, 8 - 3 + 1)
    assert verify_wmuc(wm, 8, 2, 6).passed
    for name, a in [("hcc", art), ("fhs", fhs), ("wmuc", wm)]:
        path = tmp_path / f"{name}.txt"
        write_code_file(path, a)
        back = read_code_file(path)
        assert np.array_equal(back.words_digits, a.words_digits)
        assert (back.kind, back.n, back.q, back.d) == (a.kind, a.n, a.q, a.d)
