import csv
import hashlib
import json
import os
import re
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftset import DataError, DgpSpec, ObservedSample, RngStream, cli, dgp_draw
from shiftset.cli import CsvSchemaWarning, emit_csv, ingest_csv, main


def write(path, text):
    path.write_text(text)
    return str(path)


class TestIngestCsv:
    def test_minimal_two_rows(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,0.7,0.1\n0,,-0.2\n")
        s = ingest_csv(p)
        assert (s.n_source, s.n_target, s.p) == (1, 1, 1)
        assert s.score[0] == 0.7 and np.isnan(s.score[1])

    def test_single_population_rejected(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,0.7,0.1\n1,0.5,0.3\n")
        with pytest.raises(DataError, match="target"):
            ingest_csv(p)

    def test_decimal_and_scientific_parse_identically(self, tmp_path):
        p1 = write(tmp_path / "a.csv", "a,score,x1\n1,0.30,0\n0,,1\n")
        p2 = write(tmp_path / "b.csv", "a,score,x1\n1,3e-1,0\n0,,1\n")
        assert ingest_csv(p1).score[0] == ingest_csv(p2).score[0]

    def test_missing_score_on_source_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,,0.1\n0,,-0.2\n")
        with pytest.raises(DataError, match=":2"):
            ingest_csv(p)

    def test_score_on_target_row_warns_and_ignores(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,0.7,0.1\n0,0.4,-0.2\n")
        with pytest.warns(CsvSchemaWarning):
            s = ingest_csv(p)
        assert np.isnan(s.score[1])

    def test_target_row_scores_warn_once_per_file(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,0.7,0.1\n0,,1\n"
                  + "0,0.4,-0.2\n" * 500)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = ingest_csv(p)
        assert np.isnan(s.score[s.a == 0]).all()
        assert len(caught) == 1
        w = caught[0]
        assert issubclass(w.category, CsvSchemaWarning)
        assert "500 target row(s)" in str(w.message) and "line 4" in str(w.message)
        assert w.filename == __file__  # attributed to the caller

    def test_utf8_bom_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfa,score,x1\r\n1,0.7,0.1\r\n0,,-0.2\r\n")
        s = ingest_csv(str(p))
        assert (s.n_source, s.n_target, s.p) == (1, 1, 1)

    def test_utf8_bom_header_exact_path(self, tmp_path):
        # the exact reader rereads from the start of the file, past the BOM again
        p = tmp_path / "d.csv"
        p.write_bytes(b'\xef\xbb\xbfa,score,x1\r\n1,0.7,0.1\r\n0,,"-0.2"\r\n')
        s = ingest_csv(str(p))
        np.testing.assert_array_equal(s.x, [[0.1], [-0.2]])

    @pytest.mark.parametrize("header", ["a,a,score,x1", "a,score,x1,x1",
                                        "a,score,score,x1", "a, a ,score,x1"])
    def test_duplicate_header_rejected(self, tmp_path, header):
        p = write(tmp_path / "d.csv", header + "\n" + "1,1,0.7,0.1\n0,0,,0.2\n")
        with pytest.raises(DataError, match="csv: duplicate header names"):
            ingest_csv(p)

    def test_malformed_number_carries_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,x1\n1,0.7,0.1\n0,,oops\n")
        with pytest.raises(DataError, match=":3"):
            ingest_csv(p)

    def test_bad_columns(self, tmp_path):
        p = write(tmp_path / "d.csv", "a,score,z1\n1,0.7,0.1\n")
        with pytest.raises(DataError, match="x1"):
            ingest_csv(p)

    def test_round_trip_exact(self, tmp_path):
        sample = dgp_draw(DgpSpec("lowdim"), 50, RngStream(3).child("d"))
        path = str(tmp_path / "rt.csv")
        emit_csv(sample, path)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.a, sample.a)
        np.testing.assert_array_equal(back.x, sample.x)
        np.testing.assert_array_equal(back.score[back.is_source],
                                      sample.score[sample.is_source])


# ---------------------------------------------------------------------------
# The ingest contract, pinned against a row-by-row reference reader
# ---------------------------------------------------------------------------

def reference_ingest_csv(path):
    """Row-by-row reader: one float(), strip() and isfinite per cell.

    ``ingest_csv``, by either of its paths, must accept exactly the files this
    accepts, with byte-identical arrays and the same target-row score warning,
    and reject the others with the same message.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        cols = {name: i for i, name in enumerate(header)}
        if "a" not in cols or "score" not in cols:
            raise DataError(f"{path}: header must contain 'a' and 'score'")
        x_names = [h for h in header if h not in ("a", "score")]
        p = len(x_names)
        expected = [f"x{j}" for j in range(1, p + 1)]
        if p == 0 or sorted(x_names) != sorted(expected):
            raise DataError(
                f"{path}: covariate columns must be exactly x1..xp, got {x_names}")
        x_cols = [cols[name] for name in expected]

        a_vals, scores, xs = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} fields")
            a_raw = row[cols["a"]].strip()
            if a_raw not in ("0", "1"):
                raise DataError(f"{path}:{line_no}: 'a' must be 0 or 1, got {a_raw!r}")
            a = int(a_raw)
            s_raw = row[cols["score"]].strip()
            if a == 1:
                if s_raw == "":
                    raise DataError(f"{path}:{line_no}: source row is missing its score")
                score = _reference_float(s_raw, path, line_no, "score")
            else:
                if s_raw != "":
                    warnings.warn(
                        f"{path}:{line_no}: score on a target row is ignored",
                        CsvSchemaWarning, stacklevel=2)
                score = np.nan
            x_row = [_reference_float(row[c].strip(), path, line_no, header[c])
                     for c in x_cols]
            a_vals.append(a)
            scores.append(score)
            xs.append(x_row)

    if not a_vals:
        raise DataError(f"{path}: no data rows")
    a_arr = np.array(a_vals, dtype=np.int8)
    if (a_arr == 1).sum() == 0 or (a_arr == 0).sum() == 0:
        raise DataError(f"{path}: need at least one source (a=1) and one "
                        "target (a=0) row")
    return ObservedSample(a=a_arr, x=np.array(xs, dtype=float),
                          score=np.array(scores, dtype=float))


def _reference_float(text, path, line_no, col):
    try:
        val = float(text)
    except ValueError:
        raise DataError(f"{path}:{line_no}: column {col!r} has a malformed "
                        f"number {text!r}") from None
    if not np.isfinite(val):
        raise DataError(f"{path}:{line_no}: column {col!r} must be finite")
    return val


def outcome(reader, path):
    """What a reader makes of a file: its exact arrays and its target-row
    score warnings, or its exception.  No other warning may escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = reader(path)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        finally:
            assert all(issubclass(w.category, CsvSchemaWarning) for w in caught)
    return ("ok", s.a.dtype.str, s.a.tobytes(), s.x.dtype.str, s.x.shape,
            s.x.flags.c_contiguous, s.x.tobytes(), s.score.tobytes(),
            stray_scores(caught))


def stray_scores(caught):
    """(count, first line, attributed file and line) of the target-row score
    warnings: ``ingest_csv`` warns once per file, the reference once per row."""
    if not caught:
        return None
    message = str(caught[0].message)
    per_file = re.search(r"score ignored on (\d+) target row\(s\) \(first at line (\d+)\)",
                         message)
    if per_file:
        assert len(caught) == 1
        count, first = map(int, per_file.groups())
    else:
        count, first = len(caught), int(re.search(r":(\d+): score on a target", message)[1])
    return count, first, caught[0].filename, caught[0].lineno


def assert_matches_reference(path):
    got = outcome(ingest_csv, path)
    assert got == outcome(reference_ingest_csv, path)
    return got


H = "a,score,x1,x2\n"

DIALECT_CASES = {
    # name: (file text, None if accepted else a substring of the error)
    "quoted": (H + '"1","0.5","0.25","-1"\n"0","","3","4"\n', None),
    "spaces": (H + " 1 , 0.5 ,\t0.25,-1 \n0, , 3 ,4\n", None),
    "crlf": ("a,score,x1,x2\r\n1,0.5,1,2\r\n0,,3,4\r\n", None),
    "blank_lines": (H + "1,0.5,1,2\n\n\n0,,3,4\n", None),
    "blank_lines_then_error": (H + "1,0.5,1,2\n\n\n0,,3,4\n1,0.2,oops,4\n",
                               ":6: column 'x1' has a malformed number 'oops'"),
    "whitespace_only_line": (H + "1,0.5,1,2\n  \n0,,3,4\n", ":3: expected 4 fields"),
    "x_out_of_order": ("a,score,x2,x1\n1,0.5,1,2\n0,,3,4\n", None),
    "header_spaces": (" a , score ,x1 , x2\n1,0.5,1,2\n0,,3,4\n", None),
    "a_float": (H + "1,0.5,1,2\n1.0,0.5,1,2\n0,,3,4\n", ":3: 'a' must be 0 or 1, got '1.0'"),
    "a_two": (H + "1,0.5,1,2\n0,,3,4\n2,0.5,1,2\n", ":4: 'a' must be 0 or 1, got '2'"),
    "a_padded": (H + " 1,0.5,1,2\n0 ,,3,4\n", None),
    "score_nan": (H + "1,nan,1,2\n0,,3,4\n", ":2: column 'score' must be finite"),
    "score_inf": (H + "0,,3,4\n1,inf,1,2\n", ":3: column 'score' must be finite"),
    "score_overflow": (H + "0,,3,4\n1,1e999,1,2\n", ":3: column 'score' must be finite"),
    "x_nan": (H + "1,0.5,1,nan\n0,,3,4\n", ":2: column 'x2' must be finite"),
    "x_inf": (H + "1,0.5,1,2\n0,,-inf,4\n", ":3: column 'x1' must be finite"),
    "x_overflow": (H + "1,0.5,1,2\n0,,3,1e999\n", ":3: column 'x2' must be finite"),
    "score_missing": (H + "0,,3,4\n1, ,1,2\n", ":3: source row is missing its score"),
    "score_malformed": (H + "1,0.5x,1,2\n0,,3,4\n",
                        ":2: column 'score' has a malformed number '0.5x'"),
    "x_blank": (H + "1,0.5,1,\n0,,3,4\n", ":2: column 'x2' has a malformed number ''"),
    "target_score_ignored": (H + "1,0.5,1,2\n0,nan,3,4\n0,oops,3,4\n", None),
    "short_row": (H + "1,0.5,1,2\n0,,3\n", ":3: expected 4 fields"),
    "long_row": (H + "1,0.5,1,2,9\n0,,3,4\n", ":2: expected 4 fields"),
    "first_error_wins": (H + "1,0.5,1,nan\n2,0.5,1,2\n", ":2: column 'x2' must be finite"),
    "a_before_x": (H + "7,0.5,oops,2\n0,,3,4\n", ":2: 'a' must be 0 or 1"),
    "underscore_digits": (H + "1,0.5,1_000,2\n0,,3,4\n", None),
    "exponent_and_sign": (H + "1,+5E-1,-1e+2,.5\n0,,3.,-0\n", None),
    "ascii_separator_padding": (H + "1,0.5,\x1c1,2\x1f\n0,,3,4\n", None),
    "quoted_newline_counts_one_line": (H + '1,0.5,"1\n",2\n0,,3,x\n',
                                       ":3: column 'x2' has a malformed number 'x'"),
    "empty_file": ("", "empty file"),
    "header_only": (H, "no data rows"),
    "header_then_blank_lines": (H + "\n\n", "no data rows"),
    "no_target": (H + "1,0.5,1,2\n", "need at least one source"),
    "no_covariates": ("a,score\n1,0.5\n0,\n", "x1..xp"),
    "covariate_gap": ("a,score,x1,x3\n1,0.5,1,2\n0,,3,4\n", "x1..xp"),
    # Traps for the one-pass reader: each must give the exact reader's outcome.
    "score_longer_than_field": (H + "1,0." + "1234567890" * 4 + ",1,2\n0,,3,4\n", None),
    "score_digits_longer_than_field": (H + "1," + "3" * 45 + "e-45,1,2\n0,,3,4\n", None),
    "a_padded_past_field": (H + "  1  ,0.5,1,2\n0\t\t,,3,4\n", None),
    "a_padded_bad": (H + "1,0.5,1,2\n0,,3,4\n  12 ,0.5,1,2\n",
                     ":4: 'a' must be 0 or 1, got '12'"),
    "target_score_quoted_empty": (H + '1,0.5,1,2\n0,"",3,4\n', None),
    "x_longer_than_field_limit": (H + "1,0.5,1," + "0" * 200_001 + "\n0,,3,4\n",
                                  ("Error", "field larger than field limit")),
    "stray_after_blank_lines": (H + "1,0.5,1,2\n\n\r\n0,,3,4\n\n0, 0.4 ,3,4\n0,x,3,4\n",
                                None),
    "stray_blank_score_padding": (H + "1,0.5,1,2\n0, \t,3,4\n0,\xa0,3,4\n", None),
    "lone_cr": ("a,score,x1,x2\r1,0.5,1,2\r\r0,0.1,3,4\r0,,5,6", None),
    "lone_cr_then_error": ("a,score,x1,x2\r1,0.5,1,2\r\r0,,3,4\r1,0.2,oops,4\r",
                           ":5: column 'x1' has a malformed number 'oops'"),
    "nul_in_a": (H + "1,0.5,1,2\n0\x00,,3,4\n", ":3: 'a' must be 0 or 1, got '0\\x00'"),
    "nul_in_score": (H + "1,0.5\x00,1,2\n0,,3,4\n",
                     ":2: column 'score' has a malformed number '0.5\\x00'"),
    "nul_in_target_score": (H + "1,0.5,1,2\n0,\x00,3,4\n", None),
    "nul_in_x": (H + "1,0.5,1,\x002\n0,,3,4\n",
                 ":2: column 'x2' has a malformed number '\\x002'"),
    "unicode_space_padding": (H + "1,\xa00.5\u3000,\x851,2\xa0\n0,\u3000,\u30003\x85,4\n",
                              None),
    "unicode_space_padding_on_a": (H + "\xa01,0.5,1,2\n0\u3000,,3,4\n", None),
    "latin1_padding": (H + "1,0.5,\u30001\x85,2\xa0\n0,\xa0,\x853,4\n0,\x85,5,6\n"
                       + "0,\xe9,7,8\n", None),
    "fullwidth_digits": (H + "1,\uff10.\uff15,\uff11,2\n0,,3,\uff14\n", None),
    "fullwidth_digit_in_a": (H + "1,0.5,1,2\n\uff10,,3,4\n",
                             ":3: 'a' must be 0 or 1, got '\uff10'"),
    "header_then_crlf_blank_lines": (H + "\r\n\r\n\r", "no data rows"),
    "trailing_delimiter": (H + "1,0.5,1,2,\n0,,3,4\n", ":2: expected 4 fields"),
}

# Dialect cases the one-pass reader must read without the exact reader.
PLAIN_CASES = ["crlf", "blank_lines", "x_out_of_order", "header_spaces",
               "exponent_and_sign", "ascii_separator_padding", "target_score_ignored",
               "stray_after_blank_lines", "stray_blank_score_padding", "lone_cr",
               "latin1_padding"]


def refuse_exact(fh, layout):
    raise AssertionError("the exact reader ran")


@pytest.fixture
def one_pass_only(monkeypatch):
    """Fail the test if the exact reader runs."""
    monkeypatch.setattr(cli, "_read_exact", refuse_exact)


def quote_one_field(text, line_no):
    """The file with the first field of line ``line_no`` quoted: the same
    data, which only the exact reader reads."""
    lines = text.split("\n")
    first, sep, rest = lines[line_no - 1].partition(",")
    lines[line_no - 1] = f'"{first}"{sep}{rest}'
    return "\n".join(lines)


class TestIngestContract:
    # ``_BLOCK_ROWS`` is patched with raising=False so that these tests also
    # run against a row-at-a-time reader that has no blocks.
    @pytest.mark.parametrize("case", sorted(DIALECT_CASES))
    def test_dialect_matches_reference(self, tmp_path, case):
        text, error = DIALECT_CASES[case]
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        got = assert_matches_reference(str(p))
        if error is None:
            assert got[0] == "ok"
        else:
            kind, error = error if isinstance(error, tuple) else ("DataError", error)
            assert got[0] == kind and error in got[1]

    @pytest.mark.parametrize("case", PLAIN_CASES)
    def test_plain_dialect_takes_one_pass(self, tmp_path, one_pass_only, case):
        p = tmp_path / "d.csv"
        p.write_bytes(DIALECT_CASES[case][0].encode())
        assert assert_matches_reference(str(p))[0] == "ok"

    @pytest.mark.parametrize("bad_row", [b"", b"1,0.5,1,oops\n"])
    def test_undecodable_bytes_match_reference(self, tmp_path, bad_row):
        p = tmp_path / "d.csv"
        p.write_bytes(H.encode() + bad_row + b"0,,3,4\n" * 5000 + b"0,,3,\xff\n")
        assert assert_matches_reference(str(p))[0] == (
            "DataError" if bad_row else "UnicodeDecodeError")

    def test_emit_csv_file_takes_one_pass(self, tmp_path, one_pass_only):
        sample = dgp_draw(DgpSpec("highdim-sparse"), 2000, RngStream(11).child("d"))
        path = str(tmp_path / "d.csv")
        emit_csv(sample, path)
        assert assert_matches_reference(path)[0] == "ok"

    def test_column_order_and_values(self, tmp_path):
        p = write(tmp_path / "d.csv",
                  'a,score,x2,x1\n" 1",0.5,"1_000",2\n0,,3,-4\n')
        s = ingest_csv(p)
        np.testing.assert_array_equal(s.x, [[2.0, 1000.0], [-4.0, 3.0]])
        np.testing.assert_array_equal(s.a, [1, 0])

    @pytest.mark.parametrize("block_rows", [1, 7, 64, 100_000])
    @pytest.mark.parametrize("bad", ["first", "last"])
    def test_many_blocks_bad_cell(self, tmp_path, monkeypatch, block_rows, bad):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows, raising=False)
        rows = [f"{i % 2},{'0.5' if i % 2 else ''},{i},{-i}" for i in range(200)]
        rows[0 if bad == "first" else -1] = "1,0.5,7,inf"
        p = tmp_path / "d.csv"
        text = H + "\n".join(rows[:100]) + "\n\n" + "\n".join(rows[100:]) + "\n"
        p.write_text(quote_one_field(text, 150))
        got = assert_matches_reference(str(p))
        line = 2 if bad == "first" else 202
        assert got[1].endswith(f":{line}: column 'x2' must be finite")

    def test_many_blocks_valid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7, raising=False)
        sample = dgp_draw(DgpSpec("highdim-sparse"), 100, RngStream(5).child("d"))
        path = tmp_path / "d.csv"
        emit_csv(sample, str(path))
        path.write_text(quote_one_field(path.read_text(), 101))
        assert assert_matches_reference(str(path))[0] == "ok"

    def test_bad_row_reported_before_unreadable_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 100, raising=False)
        p = write(tmp_path / "d.csv", quote_one_field(
            H + "1,0.5,1,oops\n0,,3,4\n0,," + "9" * 80 + ",1\n", 3))
        old_limit = csv.field_size_limit(40)
        try:
            assert assert_matches_reference(p)[0] == "DataError"
        finally:
            csv.field_size_limit(old_limit)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def observed_samples(draw):
    n = draw(st.integers(2, 25))
    p = draw(st.integers(1, 4))
    a = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)
             .filter(lambda v: 0 < sum(v) < len(v)))
    x = draw(st.lists(finite_floats, min_size=n * p, max_size=n * p))
    score = [draw(finite_floats) if ai else np.nan for ai in a]
    return ObservedSample(a=np.array(a, dtype=np.int8),
                          x=np.array(x, dtype=float).reshape(n, p),
                          score=np.array(score, dtype=float))


BAD_TOKENS = ["", " ", "nan", "-inf", "1e999", "oops", "1.0", "2", "0x1",
              "1_000", " 1 ", "\x1c1", "--1", "1e", "١٢", '"', "\n"]


def write_rows(path, rows, quote_last):
    """Write CSV rows; with ``quote_last`` every field of the last row is
    quoted, so that only the exact reader reads the file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows[:-1] if quote_last else rows)
        if quote_last:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerow(rows[-1])


class TestIngestProperties:
    @given(observed_samples(), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_byte_identical(self, sample, block_rows):
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_ROWS", block_rows, raising=False)
            path = os.path.join(d, "s.csv")
            emit_csv(sample, path)
            with open(path, newline="", encoding="utf-8") as fh:
                quoted = os.path.join(d, "q.csv")
                write_rows(quoted, list(csv.reader(fh)), quote_last=True)
            exact = ingest_csv(quoted)
            mp.setattr(cli, "_read_exact", refuse_exact)
            back = ingest_csv(path)
        for got in (back, exact):
            assert got.a.dtype == sample.a.dtype and got.x.shape == sample.x.shape
            assert got.a.tobytes() == sample.a.tobytes()
            assert got.x.tobytes() == sample.x.tobytes()
            assert got.score.tobytes() == sample.score.tobytes()

    @given(observed_samples(), st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_corrupt_cell_matches_reference(self, sample, block_rows, data):
        i = data.draw(st.integers(0, sample.n - 1))
        col = data.draw(st.integers(-1, sample.p + 1))
        token = data.draw(st.sampled_from(BAD_TOKENS) | st.text(max_size=4))
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_ROWS", block_rows, raising=False)
            path = os.path.join(d, "s.csv")
            emit_csv(sample, path)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if col < 0:
                rows[i + 1].pop()
            else:
                rows[i + 1][col] = token
            for quote_last in (False, True):
                write_rows(path, rows, quote_last)
                assert_matches_reference(path)


@pytest.fixture
def sample_csv(tmp_path):
    sample = dgp_draw(DgpSpec("lowdim"), 400, RngStream(17).child("d"))
    path = str(tmp_path / "sample.csv")
    emit_csv(sample, path)
    return path


class TestCmdFit:
    def run_fit(self, tmp_path, sample_csv, method, extra=()):
        out = str(tmp_path / f"{method}.csv")
        code = main(["fit", "--input", sample_csv, "--method", method,
                     "--output", out, "--seed", "1", *extra])
        return code, out

    def read_table(self, out):
        lines = open(out).read().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        return rows

    def test_onestep_table_shape(self, tmp_path, sample_csv):
        code, out = self.run_fit(tmp_path, sample_csv, "onestep")
        assert code == 0
        rows = self.read_table(out)
        assert len(rows) == 7  # default grid 0:0.3:0.05
        selected = [r for r in rows if r["selected"] == "1"]
        meta = json.load(open(out + ".meta.json"))
        if meta["sentinel"]:
            assert not selected
        else:
            assert len(selected) == 1
            assert float(selected[0]["tau"]) == meta["selected_tau"]
        # prefix rule audit: every threshold up to the selected one is below
        # the miscoverage level
        for r in rows:
            if float(r["tau"]) <= meta["selected_tau"] and not meta["sentinel"]:
                assert float(r["cub"]) < 0.05

    def test_tmle_estimates_in_unit_interval(self, tmp_path, sample_csv):
        code, out = self.run_fit(tmp_path, sample_csv, "tmle")
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        rows = self.read_table(out)
        if meta["tmle_fallback_count"] == 0:
            assert all(0.0 <= float(r["psi_hat"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("method", ["plugin", "wplugin", "rs", "icp"])
    def test_other_methods_run(self, tmp_path, sample_csv, method):
        code, out = self.run_fit(tmp_path, sample_csv, method)
        assert code == 0
        rows = self.read_table(out)
        assert len(rows) == (1 if method == "icp" else 7)
        for r in rows:
            for col in ("tau", "psi_hat", "se", "cub"):
                assert np.isfinite(float(r[col]))

    @pytest.mark.parametrize("method", ["onestep", "rs", "icp"])
    def test_csv_warning_reaches_meta(self, tmp_path, method, capsys):
        sample = dgp_draw(DgpSpec("lowdim"), 400, RngStream(17).child("d"))
        path = str(tmp_path / "stray.csv")
        emit_csv(sample, path)
        lines = open(path).read().splitlines()
        target = next(i for i, ln in enumerate(lines) if ln.startswith("0,"))
        lines[target] = lines[target].replace("0,,", "0,0.5,", 1)
        open(path, "w").write("\n".join(lines) + "\n")
        code, out = self.run_fit(tmp_path, path, method)
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        stray = [w for w in meta["warnings"] if "target row" in w]
        assert stray == [f"{path}: score ignored on 1 target row(s) "
                         f"(first at line {target + 1})"]
        assert stray[0] in capsys.readouterr().err

    def test_wcp_rejected_for_fit(self, tmp_path, sample_csv):
        with pytest.raises(SystemExit):
            main(["fit", "--input", sample_csv, "--method", "wcp",
                  "--output", str(tmp_path / "o.csv")])

    def test_desk_scale_runtime(self, tmp_path):
        # split-sized dataset (1418 + 1418) must finish well under a minute
        gen = RngStream(23).child("big")
        sample = dgp_draw(DgpSpec("lowdim"), 2836, gen)
        path = str(tmp_path / "big.csv")
        emit_csv(sample, path)
        t0 = time.time()
        code, _ = self.run_fit(tmp_path, path, "onestep")
        assert code == 0
        assert time.time() - t0 < 60

    def test_nan_ridge_rejected(self, tmp_path, sample_csv, capsys):
        code, _ = self.run_fit(tmp_path, sample_csv, "onestep", ("--ridge", "nan"))
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    def test_estimation_error_maps_to_nonzero_exit(self, tmp_path, sample_csv, capsys):
        code = main(["fit", "--input", sample_csv, "--method", "rs",
                     "--output", str(tmp_path / "o.csv"),
                     "--bhat-fixed", "1.0"])
        assert code == 1
        assert "BoundViolationError" in capsys.readouterr().err

    def test_non_finite_bound_rejected(self, tmp_path, sample_csv, capsys):
        # max(1.0, nan) is 1.0, so a NaN multiplier would pass as bound 1
        code = main(["fit", "--input", sample_csv, "--method", "rs",
                     "--output", str(tmp_path / "o.csv"), "--bhat-mult", "nan"])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err


class TestCmdSimulate:
    def test_rows_and_determinism(self, tmp_path):
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        args = ["simulate", "--dgp", "lowdim", "--n", "300", "--reps", "2",
                "--method", "onestep,tmle", "--oracle-m", "20000"]
        assert main(args + ["--output", out1, "--seed", "5"]) == 0
        assert main(args + ["--output", out2, "--seed", "5"]) == 0
        rows = open(out1 + ".jsonl").read().strip().splitlines()
        assert len(rows) == 4
        # byte-identical reruns
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert open(out1 + ".jsonl", "rb").read() == open(out2 + ".jsonl", "rb").read()
        assert open(out1 + ".meta.json", "rb").read() == open(out2 + ".meta.json", "rb").read()

    # SHA-256 of each output as first recorded; identical with
    # OPENBLAS_NUM_THREADS=1.  A refactor must not change them.
    PINNED = {
        "simulate-lowdim-stumps": {
            "": "88e908013a03960167d0247ab0a5d1cbe02f28b7eabceabb03eb21ee81ba67d6",
            ".jsonl": "b181dd51f8de1bb6b7372b60220e222b674cd2ce36139eaa5afaa957c9e73e98",
            ".meta.json": "f690727195fa64a7e38b5e51c9a54aa8005155ccc65c0e44a7150845f33dd38c",
        },
        "simulate-highdim-logistic": {
            "": "292d28574a5b6c6b201c88ea5c6f35f2b675a9b87c23efa66bba2f7b5c5edbe6",
            ".jsonl": "162525491d7d4b1f9e68cff7eb1ac3e2c537e2ce8d735d27acc03f4359870e18",
            ".meta.json": "6f3bd5efe5df382cc4cdff01d223eec61b0e9381ae6263b518c3fe1a0011e392",
        },
        "fit-onestep": {
            "": "7441495d0b49b607bcc0fece58d7077808b0aa1ff0c3e2dc4bf117c24f7e1386",
            ".meta.json": "b91ebff4c4627062e61d6b436cfab8c58004cf3d843dbc3a3351bfc0338a0073",
        },
        "fit-tmle": {
            "": "c0b7a888fb57ebbc859354098672f09223cc7e87953082be39112c57e59de975",
            ".meta.json": "ca34d4fe9d1fb18ce28379e209376d7f3a02acfb53c8c8aaf9ab787df007f893",
        },
        "fit-rs": {
            "": "5dc7c4c53aa7eb9a856af33e969b21b271bcc35da65262b3f1d287b47c3e51e3",
            ".meta.json": "c0767540275a3d1398310754b339e1dc139528b6be09c7f42bfcbf054de7bad3",
        },
        "fit-rs-fine-grid": {
            "": "9e16b7b07931495be17a1203e58d6b3c5ce6dc2dfd38ce60875350c983bc4981",
            ".meta.json": "f5bc8657cbdcc0640c6231b0ff4a83271c266df17d65c671478c599483521e57",
        },
        "fit-plugin": {
            "": "3b804fca0e41f35a0fa6b2c48043294c5070856a3a19f37ee2ef902c96339558",
            ".meta.json": "6059b1ef98c5075dfda0a227e9d484d1c5c2eabc40ad25cd0ffc0fe820045a7c",
        },
        "fit-wplugin": {
            "": "b1260b841945b12ef56827bf58daa32a0f663f3407f152053fa7d7e02efa0711",
            ".meta.json": "289c0b6e6ba7eafd9d6a58f9605afa5bd7bc698f831bfda030866a2375602b50",
        },
        "fit-icp": {
            "": "ab6e0839519164d540f197fe829b69e95ca300c031a429975d21d9dc91b85eb1",
            ".meta.json": "fa656f4b6481d7c0f3b1b2a6497b67fbedca9af10cf8ff6e1b5dea53b403753a",
        },
        "simulate-lowdim-noshift-logistic": {
            "": "05dbc64fd684d837a10165482f3d30c0bca32a75130ab3123783b91ca9810333",
            ".jsonl": "7b967b2c3c6523cd77a90d331d7165d84cc03c90c968aa9c45f51ae5b5df3f41",
            ".meta.json": "000c53d994e35c6d2db2590fcfe07b96443045848b6d2b5d31abc4a0cc4d98be",
        },
        "fit-highdim-stumps-onestep": {
            "": "be21db1aa851634ab861acd317c30f536c43803e2858655d5d64e381cabb6632",
            ".meta.json": "4d738b3d614aa44ec8d4a69783fbba36f6bd9a7778ee5aa3f836ba914647da9f",
        },
        "fit-highdim-stumps-tmle": {
            "": "afd0c876bb28e6ccd13a65068527dcc628d546c5080f8b053cdd4e434fcbb91e",
            ".meta.json": "840c40de4f9db6d9eea1a8d4069ae2522296f6dab204f71568db5d3fa7b71e17",
        },
        "fit-highdim-stumps-rs": {
            "": "d097370b9f5b15e4cdd9c20c90690023c94a2166cdc5769e998642b99b092631",
            ".meta.json": "cacb369d210bacb4fce7ec25743cdae621b3dac2b882dadd2a999caa2a483c20",
        },
        "fit-highdim-stumps-plugin": {
            "": "0b012f713d8c88e1095f19251b60d7e938127e143ed46146543b72ffdbd50c7d",
            ".meta.json": "2061ae51c323369acda5f294018fd10cdbbcb9f2a3d5bdddb469f54efa1533f5",
        },
        "fit-highdim-stumps-wplugin": {
            "": "9739df7e9078662a52fffa1b035ffeb7a675ced39665358e529fe2609507869f",
            ".meta.json": "65a9b1073dd51f88cae0910fa94e3f177b478d7f51682d2dfd3f18df9ac6c395",
        },
        "fit-highdim-stumps-icp": {
            "": "80fb90490cef516299e3d27a987302a408a70ad70fdc57e1d57fe80dd2291b42",
            ".meta.json": "505d2e11e0c62318eefed41733a78555e184450a1984fdb88685c941e0dfc458",
        },
    }

    def test_output_digests_pinned(self, tmp_path):
        every = "onestep,tmle,rs,plugin,wplugin,icp,wcp"
        runs = {
            "simulate-lowdim-stumps": [
                "simulate", "--dgp", "lowdim", "--n", "400", "--reps", "2",
                "--method", every, "--g-learner", "boosted-stumps",
                "--e-learner", "boosted-stumps", "--seed", "7"],
            "simulate-highdim-logistic": [
                "simulate", "--dgp", "highdim", "--n", "400", "--reps", "2",
                "--method", every, "--seed", "7"],
        }
        data = str(tmp_path / "pinned-input.csv")
        emit_csv(dgp_draw(DgpSpec("lowdim"), 400, RngStream(7).child("pinned")), data)
        for method in ("onestep", "tmle", "rs", "plugin", "wplugin", "icp"):
            runs[f"fit-{method}"] = ["fit", "--input", data, "--method", method,
                                     "--seed", "7"]
        runs["fit-rs-fine-grid"] = ["fit", "--input", data, "--method", "rs",
                                    "--grid", "0:0.3:0.005", "--seed", "7"]
        runs["simulate-lowdim-noshift-logistic"] = [
            "simulate", "--dgp", "lowdim-noshift", "--n", "400", "--reps", "2",
            "--method", every, "--seed", "7"]
        highdim = str(tmp_path / "pinned-highdim.csv")
        emit_csv(dgp_draw(DgpSpec("highdim-sparse"), 400,
                          RngStream(7).child("pinned-highdim")), highdim)
        for method in ("onestep", "tmle", "rs", "plugin", "wplugin", "icp"):
            runs[f"fit-highdim-stumps-{method}"] = [
                "fit", "--input", highdim, "--method", method, "--g-learner",
                "boosted-stumps", "--e-learner", "boosted-stumps", "--seed", "7"]
        digests = {}
        for name, argv in runs.items():
            out = str(tmp_path / f"{name}.csv")
            assert main(argv + ["--output", out]) == 0
            digests[name] = {
                suffix: hashlib.sha256(open(out + suffix, "rb").read()).hexdigest()
                for suffix in ("", ".jsonl", ".meta.json")
                if os.path.exists(out + suffix)}
        assert digests == self.PINNED

    @pytest.mark.parametrize("m", ["0", "-5"])
    def test_empty_oracle_rejected(self, tmp_path, capsys, m):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep", "--oracle-m", m,
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:nan:0.05", "0:inf:0.05", "nan:0.3:0.05",
                                      "0:0.3:inf", "0:0.3:x", "0:1e300:1e-300"])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, grid):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep", "--grid", grid,
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep,magic",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1


class TestCmdOracle:
    def test_curve_and_tau0(self, tmp_path):
        out = str(tmp_path / "oracle.csv")
        code = main(["oracle", "--dgp", "lowdim", "--oracle-m", "50000",
                     "--output", out, "--seed", "2"])
        assert code == 0
        lines = open(out).read().strip().splitlines()[1:]
        psis = [float(ln.split(",")[1]) for ln in lines]
        assert len(psis) == 7
        assert all(b >= a for a, b in zip(psis, psis[1:]))
        meta = json.load(open(out + ".meta.json"))
        # the optimal threshold sits where the curve crosses alpha_error
        taus = [float(ln.split(",")[0]) for ln in lines]
        below = [t for t, p in zip(taus, psis) if p <= 0.051]
        assert max(below) <= meta["tau0"] <= 0.3

    def test_two_seeds_agree(self, tmp_path):
        vals = []
        for seed in ("2", "3"):
            out = str(tmp_path / f"o{seed}.csv")
            main(["oracle", "--dgp", "lowdim", "--oracle-m", "100000",
                  "--output", out, "--seed", seed])
            vals.append(json.load(open(out + ".meta.json"))["tau0"])
        # order-statistic SE at M=1e5 is about 4e-4 here
        assert abs(vals[0] - vals[1]) < 3e-3

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, tmp_path, capsys, alpha):
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--dgp", "lowdim", "--oracle-m", "1000",
                     "--alpha-error", alpha, "--output", str(out)])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_value_used_and_flag_overrides(self, tmp_path, sample_csv):
        cfg = write(tmp_path / "run.cfg", "alpha_error=0.10\nseed=9\n")
        out = str(tmp_path / "o.csv")
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", out, "--config", cfg, "--seed", "4"])
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["alpha_error"] == 0.10  # from file
        assert meta["seed"] == 4            # flag wins

    def test_unknown_key_rejected(self, tmp_path, sample_csv, capsys):
        cfg = write(tmp_path / "run.cfg", "alpha_errror=0.10\n")
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", str(tmp_path / "o.csv"), "--config", cfg])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed=abc", "folds=2.5", "alpha-error=x"])
    def test_badly_typed_value_rejected(self, tmp_path, sample_csv, capsys, line):
        cfg = write(tmp_path / "run.cfg", "# comment\n\n" + line + "\n")
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", str(tmp_path / "o.csv"), "--config", cfg])
        assert code == 1
        key, value = line.split("=")
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert f"{cfg}:3: {key} = {value!r}" in err

    def test_byte_order_mark_skipped(self, tmp_path, sample_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("\ufeffseed=3\n".encode("utf-8"))
        out = str(tmp_path / "o.csv")
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", out, "--config", str(cfg)])
        assert code == 0
        assert json.load(open(out + ".meta.json"))["seed"] == 3

    def test_non_utf8_file_rejected(self, tmp_path, sample_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=\xff\xfe\n")
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", str(tmp_path / "o.csv"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and str(cfg) in err
