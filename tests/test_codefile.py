"""The code-file codec against the plain line-by-line reference.

read_code_file parses the word body as one array and hands only the lines
that fail its shape or range test to words.word_from_text.  These tests
check, as properties, that writing and reading round-trip and that the
reader agrees with a per-line word_from_text loop kept here as the oracle.
The traps of a whole-array parse (lengths that cancel out in a total,
symbols that wrap in uint8) are pinned in test_codes.py.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclocode import CodeFileFormatError
from cyclocode.codes import CodeArtifact, read_code_file, write_code_file
from cyclocode.words import word_from_text


def _read_text(tmp_path, text):
    path = tmp_path / "code.txt"
    path.write_bytes(text.encode())
    return read_code_file(path)


def oracle_body(text: str, n: int, q: int):
    """Per-line reference: the digit matrix, or (line number, message) of
    the first malformed line.  The header is known to be the first
    non-comment line."""
    rows = []
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            seen_header = True
            continue
        try:
            w = word_from_text(line, q)
        except ValueError:
            return lineno, f"unparseable word {line!r}"
        if w.n != n:
            return lineno, f"word length {w.n} != n={n}"
        if max(w.symbols) > 255:
            return lineno, f"symbol {max(w.symbols)} exceeds 255, the largest a code file can hold"
        rows.append(w.symbols)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), n)


# ---------------------------------------------------------------------------
# the slow path


def test_reader_keeps_int_semantics_on_the_slow_path(tmp_path):
    # int() accepts non-ASCII decimal digits, padding and underscores; the
    # array path sends such lines to word_from_text, which still parses them.
    art = _read_text(tmp_path, "HCC 3 10 1\n0٣５\n012\n")
    assert art.words_digits.tolist() == [[0, 3, 5], [0, 1, 2]]
    art = _read_text(tmp_path, "HCC 3 12 1\n007, 1_1 ,+3\n1,2,3\n")
    assert art.words_digits.tolist() == [[7, 11, 3], [1, 2, 3]]


# ---------------------------------------------------------------------------
# properties


_KINDS = {"HCC": None, "OOC": "weight", "WMUC": "kappa", "FHS": "lam"}


@st.composite
def artifacts(draw, q_range):
    q = draw(st.integers(*q_range))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, 25))
    digits = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    kind = draw(st.sampled_from(sorted(_KINDS)))
    art = CodeArtifact(
        kind=kind,
        n=n,
        q=q,
        d=draw(st.integers(1, n)),
        words_digits=np.array(digits, dtype=np.uint8).reshape(m, n),
        provenance=draw(st.sampled_from([{}, {"seed": 3, "strategy": "gv-greedy"}])),
    )
    if _KINDS[kind] is not None:
        setattr(art, _KINDS[kind], draw(st.integers(1, n)))
    return art


# Each example writes to the test's tmp_path, which is fine to reuse.
_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("q_range", [(2, 10), (11, 256)], ids=["digits", "commas"])
def test_write_read_roundtrip(tmp_path, q_range):
    @_SETTINGS
    @given(artifacts(q_range))
    def check(art):
        path = tmp_path / "a.txt"
        write_code_file(path, art)
        back = read_code_file(path)
        assert (back.kind, back.n, back.q, back.d) == (art.kind, art.n, art.q, art.d)
        assert (back.weight, back.kappa, back.lam) == (art.weight, art.kappa, art.lam)
        assert back.words_digits.dtype == np.uint8
        assert np.array_equal(back.words_digits, art.words_digits)
        # the written body is exactly word_to_text per row
        body = path.read_text().splitlines()[1 if art.provenance else 0 :]
        sep = "" if art.q <= 10 else ","
        assert body[1:] == [sep.join(map(str, row)) for row in art.words_digits.tolist()]
        # a read-back artifact (no provenance) rewrites to the same bytes
        back.provenance = art.provenance
        again = tmp_path / "b.txt"
        write_code_file(again, back)
        assert again.read_bytes() == path.read_bytes()

    check()


# Replacements for one symbol of one line: the last few are accepted by
# int(); the rest must be rejected with the reference message.
_DIGIT_SUBS = ["x", " ", "-", "/", ":", "?", "²", "٣", "５", "9"]
_TOKEN_SUBS = ["", "x", "-1", "256", "299", "1.0", "9" * 4400, "٣", " 7", "007", "+3", "1_1"]


@st.composite
def decorated_bodies(draw, q_range):
    """A header and random rows, laid out with CRLF endings, surrounding
    whitespace, comments and blank lines, and at most one mutated line."""
    q = draw(st.integers(*q_range))
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 12))
    rows = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    sep = "" if q <= 10 else ","
    lines = [sep.join(map(str, row)) for row in rows]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        cells = list(lines[i]) if q <= 10 else lines[i].split(",")
        how = draw(st.sampled_from(["drop", "add", "sub", "out-of-range"]))
        j = draw(st.integers(0, len(cells) - 1))
        if how == "drop":
            del cells[j]
        elif how == "add":
            cells.insert(j, str(draw(st.integers(0, min(q, 10) - 1))))
        elif how == "out-of-range":
            cells[j] = str(q)
        else:
            cells[j] = draw(st.sampled_from(_DIGIT_SUBS if q <= 10 else _TOKEN_SUBS))
        lines[i] = sep.join(cells)
    out = []
    for line in [f"HCC {n} {q} 1"] + lines:
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.sampled_from(["", "   ", "# comment", "  # 0101", "\t"])))
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        out.append(pad + line + draw(st.sampled_from(["", " ", "\t"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(out), max_size=len(out)))
    return n, q, "".join(line + end for line, end in zip(out, ends))


@pytest.mark.parametrize("q_range", [(2, 10), (11, 300)], ids=["digits", "commas"])
def test_reader_agrees_with_line_by_line_oracle(tmp_path, q_range):
    @_SETTINGS
    @given(decorated_bodies(q_range))
    def check(case):
        n, q, text = case
        want = oracle_body(text, n, q)
        if isinstance(want, tuple):
            lineno, message = want
            with pytest.raises(CodeFileFormatError) as err:
                _read_text(tmp_path, text)
            assert err.value.line_number == lineno
            assert str(err.value) == f"line {lineno}: {message}"
        else:
            got = _read_text(tmp_path, text).words_digits
            assert got.dtype == np.uint8
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    check()
