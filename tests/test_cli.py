import codecs
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftset import (BinaryLearnerSpec, DataError, DgpSpec, ObservedSample, RiskTargets,
                      RngStream, StudyConfig, ThresholdGrid, cli, csvio, dgp_draw,
                      parallel, simbench)
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
        # the exact reader reads on from the header, past which the BOM lies
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
    monkeypatch.setattr(csvio, "_read_exact", refuse_exact)


# Chunk sizes for the one-pass reader: the default reads these small files in
# one chunk in this process; 1 cuts after every line, and 24 after a line or
# two, into chunks that forked workers read.
CHUNK_BYTES = [None, 1, 24]


@pytest.fixture(params=CHUNK_BYTES, ids=lambda b: f"chunk{b or ''}")
def chunk_bytes(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", request.param)
    return request.param


def quote_one_field(text, line_no):
    """The file with the first field of line ``line_no`` quoted: the same
    data, which only the exact reader reads."""
    lines = text.split("\n")
    first, sep, rest = lines[line_no - 1].partition(",")
    lines[line_no - 1] = f'"{first}"{sep}{rest}'
    return "\n".join(lines)


class TestIngestContract:
    @pytest.mark.parametrize("case", sorted(DIALECT_CASES))
    def test_dialect_matches_reference(self, tmp_path, chunk_bytes, case):
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
    def test_plain_dialect_takes_one_pass(self, tmp_path, one_pass_only, chunk_bytes,
                                          case):
        p = tmp_path / "d.csv"
        p.write_bytes(DIALECT_CASES[case][0].encode())
        assert assert_matches_reference(str(p))[0] == "ok"

    @pytest.mark.parametrize("bad_row", [b"", b"1,0.5,1,oops\n"])
    def test_undecodable_bytes_match_reference(self, tmp_path, bad_row):
        p = tmp_path / "d.csv"
        p.write_bytes(H.encode() + bad_row + b"0,,3,4\n" * 5000 + b"0,,3,\xff\n")
        assert assert_matches_reference(str(p))[0] == (
            "DataError" if bad_row else "UnicodeDecodeError")

    @pytest.mark.parametrize("end", [b"\n0,,3,4\n", b"\r0,,3,4\n", b""])
    def test_sequence_cut_by_a_line_end_matches_reference(self, tmp_path, end):
        # Decoded alone, the line's sequence ends early; a text read of the
        # file sees it broken by the line end.
        p = tmp_path / "d.csv"
        p.write_bytes(H.encode() + b"0,,3,4\n" * 5000 + b"0,,3,\xe2\x82" + end)
        assert assert_matches_reference(str(p))[0] == "UnicodeDecodeError"
        with pytest.raises(UnicodeDecodeError) as info:
            ingest_csv(str(p))
        assert info.value.line_no == 5002

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

    @pytest.mark.parametrize("bad", ["first", "last"])
    def test_many_blocks_bad_cell(self, tmp_path, bad):
        rows = [f"{i % 2},{'0.5' if i % 2 else ''},{i},{-i}" for i in range(200)]
        rows[0 if bad == "first" else -1] = "1,0.5,7,inf"
        p = tmp_path / "d.csv"
        text = H + "\n".join(rows[:100]) + "\n\n" + "\n".join(rows[100:]) + "\n"
        p.write_text(quote_one_field(text, 150))
        got = assert_matches_reference(str(p))
        line = 2 if bad == "first" else 202
        assert got[1].endswith(f":{line}: column 'x2' must be finite")

    def test_many_blocks_valid(self, tmp_path):
        sample = dgp_draw(DgpSpec("highdim-sparse"), 100, RngStream(5).child("d"))
        path = tmp_path / "d.csv"
        emit_csv(sample, str(path))
        path.write_text(quote_one_field(path.read_text(), 101))
        assert assert_matches_reference(str(path))[0] == "ok"

    def test_bad_row_reported_before_unreadable_row(self, tmp_path):
        p = write(tmp_path / "d.csv", quote_one_field(
            H + "1,0.5,1,oops\n0,,3,4\n0,," + "9" * 80 + ",1\n", 3))
        old_limit = csv.field_size_limit(40)
        try:
            assert assert_matches_reference(p)[0] == "DataError"
        finally:
            csv.field_size_limit(old_limit)


@pytest.fixture
def chunk_readers(tmp_path, monkeypatch):
    """The ids of the processes that read the one-pass reader's chunks, in
    the order they read them, as a function."""
    log = tmp_path / "readers.txt"
    read = csvio._read_chunk

    def noted(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return read(*args)

    monkeypatch.setattr(csvio, "_read_chunk", noted)
    return lambda: [int(pid) for pid in log.read_text().split()]


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


def plain_rows(n):
    return [f"{i % 2},{'0.5' if i % 2 else ''},{i},{-i}" for i in range(n)]


class TestChunkedIngest:
    """Large plain files are read in chunks of whole lines, by forked
    workers, with what one pass over the file gives."""

    def test_small_file_is_one_chunk_read_here(self, tmp_path, monkeypatch, one_pass_only,
                                               chunk_readers):
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        sample = dgp_draw(DgpSpec("highdim-sparse"), 400, RngStream(7).child("d"))
        path = str(tmp_path / "d.csv")
        emit_csv(sample, path)
        assert ingest_csv(path).x.tobytes() == sample.x.tobytes()
        assert chunk_readers() == [os.getpid()]

    def test_large_file_is_read_by_workers(self, tmp_path, monkeypatch, one_pass_only,
                                           chunk_readers, two_cpus):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 4096)
        sample = dgp_draw(DgpSpec("highdim-sparse"), 400, RngStream(7).child("d"))
        path = str(tmp_path / "d.csv")
        emit_csv(sample, path)
        got = ingest_csv(path)
        assert (got.a.tobytes(), got.x.tobytes(), got.score.tobytes()) == (
            sample.a.tobytes(), sample.x.tobytes(), sample.score.tobytes())
        readers = chunk_readers()
        assert len(readers) > os.path.getsize(path) // 8192
        assert os.getpid() not in readers and len(set(readers)) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunk", [1, 30, 200])
    def test_stray_score_in_a_later_chunk(self, tmp_path, monkeypatch, one_pass_only,
                                          chunk):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk)
        rows = plain_rows(60)
        rows[40], rows[50] = "0,0.25,40,-40", "0, 7 ,50,-50"
        p = tmp_path / "d.csv"
        p.write_text(H + "\n".join(rows) + "\n")
        got = assert_matches_reference(str(p))
        assert got[-1][:2] == (2, 42)

    @pytest.mark.parametrize("chunk", [1, 5, 9, 17, 33])
    def test_blank_and_crlf_lines_on_chunk_boundaries(self, tmp_path, monkeypatch,
                                                      one_pass_only, chunk):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk)
        rows = plain_rows(30)
        rows[21] = "0,0.4,21,-21"
        ends = ["\r\n", "\n", "\r\n\r\n", "\n\n\n", "\r\n\n"]
        text = "a,score,x1,x2\r\n\r\n" + "".join(
            row + ends[i % len(ends)] for i, row in enumerate(rows))
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode())
        got = assert_matches_reference(str(p))
        # Before row 21: the header, a blank line, 21 rows and 16 blank lines.
        assert got[0] == "ok" and got[-1][:2] == (1, 40)

    def test_lone_cr_file_is_one_chunk(self, tmp_path, monkeypatch, one_pass_only,
                                       chunk_readers):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 1)
        p = tmp_path / "d.csv"
        p.write_bytes(("a,score,x1,x2\r" + "\r\r".join(plain_rows(20)) + "\r").encode())
        assert assert_matches_reference(str(p))[0] == "ok"
        assert chunk_readers() == [os.getpid()]

    def test_byte_order_mark(self, tmp_path, monkeypatch, one_pass_only):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 16)
        rows = plain_rows(40)
        rows[30] = "0,9,30,-30"
        text = (H + "\n".join(rows) + "\n").encode()
        bare, marked = tmp_path / "bare.csv", tmp_path / "marked.csv"
        bare.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        got = outcome(ingest_csv, str(marked))
        assert got == outcome(reference_ingest_csv, str(bare))
        assert got[-1][:2] == (1, 32)

    @pytest.mark.parametrize("chunk", [1, 50])
    def test_bad_cell_in_a_later_chunk(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk)
        rows = plain_rows(60)
        rows[45] = "1,0.5,4x5,-45"
        p = tmp_path / "d.csv"
        p.write_text(H + "\n".join(rows[:20]) + "\n\n" + "\n".join(rows[20:]) + "\n")
        got = assert_matches_reference(str(p))
        assert got == ("DataError", f"{p}:48: column 'x1' has a malformed number '4x5'")


def piped(reader, path, data):
    """What ``reader`` makes of ``data`` written to the FIFO ``path`` by
    another thread."""
    writer = threading.Thread(target=lambda: path.write_bytes(data), daemon=True)
    writer.start()
    try:
        return outcome(reader, str(path))
    finally:
        writer.join(10)


@pytest.fixture
def fifo(tmp_path):
    path = tmp_path / "in.fifo"
    os.mkfifo(path)
    return path


class TestPipedIngest:
    """A stream that is not a regular file is copied to a temporary file and
    read as that file is."""

    @pytest.mark.parametrize("case", PLAIN_CASES)
    def test_plain_pipe_takes_one_pass(self, fifo, one_pass_only, case):
        data = DIALECT_CASES[case][0].encode()
        got = piped(ingest_csv, fifo, data)
        assert got[0] == "ok" and got == piped(reference_ingest_csv, fifo, data)

    @pytest.mark.parametrize("case", sorted(set(DIALECT_CASES) - set(PLAIN_CASES)))
    def test_other_pipe_matches_reference(self, fifo, case):
        data = DIALECT_CASES[case][0].encode()
        assert piped(ingest_csv, fifo, data) == piped(reference_ingest_csv, fifo, data)

    def test_large_pipe_is_read_by_workers(self, tmp_path, fifo, monkeypatch, one_pass_only,
                                           chunk_readers, two_cpus):
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 4096)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        os.mkdir(tmp_path / "tmp")
        rows = plain_rows(3000)
        rows[2500] = "0,0.5,2500,-2500"
        data = (H + "\n".join(rows) + "\n").encode()
        got = piped(ingest_csv, fifo, data)
        assert got == piped(reference_ingest_csv, fifo, data)
        assert got[-1][:2] == (1, 2502)
        assert os.getpid() not in chunk_readers() and len(set(chunk_readers())) == 2
        assert os.listdir(tmp_path / "tmp") == []

    @pytest.mark.parametrize("bad_row", [b"", b"1,0.5,1,oops\n"])
    def test_undecodable_pipe_reads_as_a_file(self, tmp_path, fifo, bad_row):
        data = H.encode() + bad_row + b"0,,3,4\n" * 5000 + b"0,,3,\xff\n"
        got = piped(ingest_csv, fifo, data)
        if bad_row:
            assert got == piped(reference_ingest_csv, fifo, data)
        else:
            # Where a pipe's reads end moves the position that the error names.
            (tmp_path / "d.csv").write_bytes(data)
            assert got == outcome(ingest_csv, str(tmp_path / "d.csv"))
        assert got[0] == ("DataError" if bad_row else "UnicodeDecodeError")

    def test_undecodable_pipe_names_the_line_a_file_does(self, tmp_path, fifo):
        data = H.encode() + b"0,,3,4\n" * 5000 + b"0,,3,\xff\n"
        (tmp_path / "d.csv").write_bytes(data)
        writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
        writer.start()
        try:
            for path in (fifo, tmp_path / "d.csv"):
                with pytest.raises(UnicodeDecodeError) as info:
                    ingest_csv(str(path))
                assert info.value.line_no == 5002
        finally:
            writer.join(10)


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
    @given(observed_samples(), st.sampled_from(CHUNK_BYTES))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_byte_identical(self, sample, chunk_bytes):
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(csvio, "_CHUNK_BYTES", chunk_bytes)
            path = os.path.join(d, "s.csv")
            emit_csv(sample, path)
            with open(path, newline="", encoding="utf-8") as fh:
                quoted = os.path.join(d, "q.csv")
                write_rows(quoted, list(csv.reader(fh)), quote_last=True)
            exact = ingest_csv(quoted)
            mp.setattr(csvio, "_read_exact", refuse_exact)
            back = ingest_csv(path)
        for got in (back, exact):
            assert got.a.dtype == sample.a.dtype and got.x.shape == sample.x.shape
            assert got.a.tobytes() == sample.a.tobytes()
            assert got.x.tobytes() == sample.x.tobytes()
            assert got.score.tobytes() == sample.score.tobytes()

    @given(observed_samples(), st.sampled_from(CHUNK_BYTES), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_corrupt_cell_matches_reference(self, sample, chunk_bytes, data):
        i = data.draw(st.integers(0, sample.n - 1))
        col = data.draw(st.integers(-1, sample.p + 1))
        token = data.draw(st.sampled_from(BAD_TOKENS) | st.text(max_size=4))
        with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(csvio, "_CHUNK_BYTES", chunk_bytes)
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


NEGATIVE_SEED_ERROR = (
    "error: ConfigurationError: seed must be a nonnegative integer, got -1\n")
ALPHA_CONF_ERROR = "alpha_conf must exceed 2**-54 (about 5.55e-17), got 1e-17"


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

    def test_default_settings_are_the_library_defaults(self, tmp_path, sample_csv):
        # With no estimator flag, the metadata records the defaults of the
        # config types that hold them, JSON types included.
        code, out = self.run_fit(tmp_path, sample_csv, "onestep")
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        cfg = StudyConfig(ThresholdGrid((0.1,)), RiskTargets(0.05, 0.05))
        spec = BinaryLearnerSpec()
        want = {"folds": cfg.V, "delta": cfg.delta, "g_learner": cfg.g_spec.kind,
                "e_learner": cfg.e_spec.kind, "ridge": spec.ridge,
                "bhat_fixed": cfg.bhat_fixed}
        assert cfg.g_spec == cfg.e_spec == spec
        got = {k: meta[k] for k in want}
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    def test_tmle_estimates_in_unit_interval(self, tmp_path, sample_csv):
        code, out = self.run_fit(tmp_path, sample_csv, "tmle")
        assert code == 0
        meta = json.load(open(out + ".meta.json"))
        rows = self.read_table(out)
        if meta["fallback_count"] == 0:
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

    @pytest.mark.parametrize("alpha_conf", ["0.05", "0.2", "0.3", "0.45"])
    @pytest.mark.parametrize("method, folds", [
        *(pytest.param(m, "2", id=m)
          for m in ("onestep", "tmle", "rs", "plugin", "wplugin", "icp")),
        *(pytest.param(m, "3", id=f"{m}-3-folds")
          for m in ("onestep", "tmle", "plugin", "wplugin"))])
    def test_table_invariants(self, tmp_path, sample_csv, method, folds, alpha_conf):
        # The rules that perfbench's check_fit applies to every fit table.
        code, out = self.run_fit(tmp_path, sample_csv, method,
                                 ["--alpha-conf", alpha_conf, "--folds", folds])
        assert code == 0
        rows = self.read_table(out)
        meta = json.load(open(out + ".meta.json"))
        tau, psi, cub = ([float(r[col]) for r in rows] for col in ("tau", "psi_hat", "cub"))
        assert all(c >= p for c, p in zip(cub, psi))
        selected = [i for i, r in enumerate(rows) if r["selected"] == "1"]
        assert len(selected) <= 1
        assert meta["sentinel"] == (not selected)
        if selected:
            i = selected[0]
            assert all(c < 0.05 for c in cub[:i + 1])
            assert i + 1 == len(rows) or cub[i + 1] >= 0.05
            assert meta["selected_tau"] == tau[i]

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

    @pytest.mark.parametrize("method", ["onestep", "tmle", "rs", "plugin", "wplugin", "icp"])
    def test_zero_standard_error_is_flagged(self, tmp_path, method, capsys):
        # 400 rows, 3 of them source units, each scored above every
        # threshold of the default grid: no source unit informs psi, whose
        # estimate and standard error are 0 everywhere.  The fold methods
        # and rs select the top threshold on no evidence and say so; icp
        # records its sentinel and does not.
        gen = np.random.default_rng(3)
        scores = {10: "0.33", 150: "0.6", 300: "0.92"}
        lines = ["a,score,x1,x2,x3"]
        for i, x in enumerate(gen.normal(size=(400, 3))):
            a_score = ["1", scores[i]] if i in scores else ["0", ""]
            lines.append(",".join(a_score + [repr(v) for v in x.tolist()]))
        path = write(tmp_path / "three-sources.csv", "\n".join(lines) + "\n")
        out = str(tmp_path / "out.csv")
        assert main(["fit", "--input", path, "--method", method, "--seed", "4",
                     "--output", out]) == 0
        meta = json.load(open(out + ".meta.json"))
        rows = self.read_table(out)
        assert all(float(r["se"]) == 0.0 for r in rows)
        if method == "icp":
            assert meta["sentinel"] and meta["warnings"] == []
            return
        message = (f"{method}: the standard error is 0 at every threshold, "
                   "so no source unit informs the bound")
        assert meta["warnings"] == [message]
        assert (meta["sentinel"], meta["selected_tau"]) == (False, 0.3)
        assert f"warning: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["onestep", "tmle", "rs", "icp"])
    def test_chunked_read_changes_no_output_byte(self, tmp_path, monkeypatch, capsys,
                                                 two_cpus, method):
        sample = dgp_draw(DgpSpec("lowdim"), 400, RngStream(17).child("d"))
        path = str(tmp_path / "stray.csv")
        emit_csv(sample, path)
        lines = open(path).read().splitlines()
        lines[300] = "0,0.5," + lines[300].split(",", 2)[2]
        open(path, "w").write("\n".join(lines) + "\n")
        runs = []
        for chunk in (None, 2048):
            if chunk:
                monkeypatch.setattr(csvio, "_CHUNK_BYTES", chunk)
            code, out = self.run_fit(tmp_path, path, method)
            assert multiprocessing.active_children() == []
            runs.append((code, *capsys.readouterr(),
                         *(open(out + suffix, "rb").read() for suffix in ("", ".meta.json"))))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "(first at line 301)" in runs[0][2]

    def test_chunked_read_reports_a_killed_worker(self, tmp_path, sample_csv, monkeypatch,
                                                  capsys, two_cpus, deadline):
        parent, read = os.getpid(), csvio._read_chunk

        def killing(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read(*args)

        monkeypatch.setattr(csvio, "_read_chunk", killing)
        monkeypatch.setattr(csvio, "_CHUNK_BYTES", 2048)
        code, _ = self.run_fit(tmp_path, sample_csv, "icp")
        assert code == 1
        assert "error: WorkerError: a worker process died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_sentinel_summary_line(self, tmp_path, sample_csv, capsys):
        # No order statistic of icp's calibration scores is certifiable at
        # this level: the table selects no row.
        code, out = self.run_fit(tmp_path, sample_csv, "icp", ["--alpha-error", "0.01"])
        assert code == 0
        assert capsys.readouterr().out == (
            "icp: no certifiable threshold (alpha_error=0.01); sentinel 0 recorded\n")
        assert [r["selected"] for r in self.read_table(out)] == ["0"]
        meta = json.load(open(out + ".meta.json"))
        assert (meta["sentinel"], meta["selected_tau"]) == (True, 0.0)

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
        code = main(["fit", "--input", sample_csv, "--method", "rs",
                     "--output", str(tmp_path / "o.csv"), "--bhat-fixed", "nan"])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", [
        b"1,0.5,\xff,1,1\n",
        b"1,0.5," + b"1" * (csv.field_size_limit() + 1) + b",1,1\n",
    ], ids=["not-utf8", "over-field-limit"])
    def test_unreadable_row_is_one_error_line(self, tmp_path, sample_csv, capsys,
                                              bad_row):
        path = tmp_path / "bad.csv"
        path.write_bytes(open(sample_csv, "rb").read() + bad_row)
        out = tmp_path / "o.csv"
        code = main(["fit", "--input", str(path), "--method", "onestep",
                     "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: DataError: {path}: ")
        assert err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "o.csv.meta.json").exists()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("line", [1, 2, 4002])
    def test_undecodable_byte_names_its_file_line(self, tmp_path, capsys, newline, line):
        # Line 4002 starts past byte 40,000, beyond the decoder's first reads.
        rows = [b"a,score,x1,x2"] + [f"{i % 2},{'0.5' if i % 2 else ''},{i},{-i}".encode()
                                     for i in range(5000)]
        rows[line - 1] += b"\xff"
        path = tmp_path / "bad.csv"
        path.write_bytes(newline.encode().join(rows) + newline.encode())
        code = main(["fit", "--input", str(path), "--method", "onestep",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: DataError: {path}: line {line} is not UTF-8 text (invalid start byte)\n")

    @pytest.mark.parametrize("bad_line, byte_line, error", [
        (396, 402, "'a' must be 0 or 1, got '2'"),
        (352, 402, "'a' must be 0 or 1, got '2'"),
        (1, 5, "header must contain 'a' and 'score'"),
    ])
    def test_an_error_before_an_undecodable_byte_comes_first(self, tmp_path, capsys,
                                                              bad_line, byte_line, error):
        # Line 396 is in the decoder's read of line 402, and the header in its
        # read of line 5: it decodes each read before the csv reader reaches
        # the invalid line.
        path = tmp_path / "bad.csv"
        emit_csv(dgp_draw(DgpSpec("highdim-sparse"), 5000, RngStream(3).child("d")),
                 str(path))
        rows = path.read_bytes().split(b"\r\n")
        rows[bad_line - 1] = b"2" + rows[bad_line - 1][1:]
        rows[byte_line - 1] += b"\xff"
        path.write_bytes(b"\r\n".join(rows))
        code = main(["fit", "--input", str(path), "--method", "onestep",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        where = f"{path}:{bad_line}" if bad_line > 1 else f"{path}"
        assert capsys.readouterr().err == f"error: DataError: {where}: {error}\n"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_rejected_before_the_input_is_read(self, tmp_path, capsys, where):
        # The input does not exist, so reading it first would fail otherwise.
        seed = (["--seed", "-1"] if where == "flag"
                else ["--config", write(tmp_path / "run.cfg", "seed = -1\n")])
        out = tmp_path / "o.csv"
        code = main(["fit", "--input", str(tmp_path / "missing.csv"), "--method",
                     "onestep", "--output", str(out), *seed])
        assert code == 1
        assert capsys.readouterr().err == NEGATIVE_SEED_ERROR
        assert not out.exists() and not (tmp_path / "o.csv.meta.json").exists()

    @pytest.mark.parametrize("flags, error", [
        (("--alpha-error", "2"), "alpha_error must lie strictly inside (0, 1)"),
        (("--folds", "1"), "fold count must be an integer of at least 2, got 1"),
        # Below 1e-12 the odds weight of a propensity truncated at delta can
        # overflow.
        (("--delta", "1e-320"), "delta must be at least 1e-12, got 1e-320"),
        # At or below 2**-54 the Wald quantile of 1 - alpha_conf is inf.
        (("--alpha-conf", "1e-17"), ALPHA_CONF_ERROR),
        (("--bhat-fixed", "0.5"), "fixed bound must be finite and at least 1"),
    ])
    @pytest.mark.parametrize("present", [True, False], ids=["input", "missing-input"])
    def test_configuration_checked_before_the_input_is_read(
            self, tmp_path, sample_csv, capsys, monkeypatch, flags, error, present):
        def refuse(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "ingest_csv", refuse)
        path = sample_csv if present else str(tmp_path / "missing.csv")
        out = tmp_path / "o.csv"
        code = main(["fit", "--input", path, "--method", "onestep",
                     "--output", str(out), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: ConfigurationError: {error}\n"
        assert not out.exists() and not (tmp_path / "o.csv.meta.json").exists()

    def test_a_missing_input_exits_with_its_os_error(self, tmp_path, capsys):
        path, out = tmp_path / "missing.csv", tmp_path / "o.csv"
        code = main(["fit", "--input", str(path), "--method", "onestep",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_an_output_in_a_missing_directory_exits_with_its_os_error(
            self, tmp_path, sample_csv, capsys):
        out = tmp_path / "absent" / "o.csv"
        code = main(["fit", "--input", sample_csv, "--method", "onestep",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("method, flags", [("icp", ("--delta", "0.9")),
                                               ("rs", ("--folds", "1"))])
    def test_settings_a_method_does_not_use_are_still_checked(
            self, tmp_path, sample_csv, capsys, method, flags):
        code, out = self.run_fit(tmp_path, sample_csv, method, flags)
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_a_marked_file_names_its_undecodable_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"a,score,x1\n1,0.5,1\n0,,2\n0,,3\xff\n0,,4\n")
        code = main(["fit", "--input", str(path), "--method", "onestep",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: DataError: {path}: line 4 is not UTF-8 text (invalid start byte)\n")


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

    def test_jsonl_rows_hold_the_row_fields(self, tmp_path):
        # A line holds every ReplicationRow field but the table, and the
        # derived `failed`; `failure` only on a failed row and `info` only
        # when it is not empty.  Draws of 6 units give failed rows, icp rows
        # with run facts and onestep rows without.
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--dgp", "lowdim", "--method", "icp,onestep",
                     "--n", "6", "--reps", "12", "--oracle-m", "1000",
                     "--workers", "1", "--output", out]) == 0
        rows = [json.loads(line) for line in open(out + ".jsonl")]
        fields = {f.name for f in dataclasses.fields(simbench.ReplicationRow)}
        always = fields - {"table", "failure", "info"} | {"failed"}
        kinds = set()
        for row in rows:
            kind = ("failure" if row["failed"] else
                    "info" if row["method"] == "icp" else None)
            kinds.add(kind)
            assert set(row) == always | ({kind} - {None})
            assert type(row["n"]) is int and type(row["rep"]) is int
            if row["failed"]:
                assert row["failure"] and row["true_error"] is None
                assert not row["covered"]
            elif kind == "info":
                assert type(row["info"]["calibration_size"]) is int
                assert row["info"]["k"] is None or type(row["info"]["k"]) is int
        assert kinds == {"failure", "info", None}

    def test_meta_records_the_study_settings(self, tmp_path):
        # Exactly these 16 keys, each value from its flag; --workers changes
        # no output, so it is none of them.
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--dgp", "highdim", "--n", "90", "--reps", "2",
                     "--method", "icp, onestep", "--alpha-error", "0.1",
                     "--alpha-conf", "0.2", "--folds", "3", "--delta", "0.02",
                     "--grid", "0:0.2:0.1", "--oracle-m", "1000", "--seed", "8",
                     "--e-learner", "boosted-stumps", "--ridge", "0.5",
                     "--bhat-fixed", "40", "--workers", "1", "--output", out]) == 0
        assert json.load(open(out + ".meta.json")) == {
            "command": "simulate", "dgp": "highdim-sparse", "ns": [90],
            "methods": ["icp", "onestep"], "replications": 2, "alpha_error": 0.1,
            "alpha_conf": 0.2, "folds": 3, "delta": 0.02, "grid": [0.0, 0.1, 0.2],
            "g_learner": "logistic-ridge", "e_learner": "boosted-stumps",
            "ridge": 0.5, "bhat_fixed": 40.0, "oracle_m": 1000, "seed": 8}

    def test_fit_and_simulate_record_each_fact_alike(self, tmp_path, sample_csv):
        # The same flags give both commands' metadata the same settings, and
        # each method's run facts the same keys and JSON types in a fit's
        # metadata as in a simulate row, at one worker or two.
        flags = ["--alpha-conf", "0.2", "--folds", "3", "--ridge", "0.001", "--seed", "3"]
        facts = {"tmle": ["fallback_count"], "rs": ["bhat", "n_accepted", "pi_hat"],
                 "icp": ["calibration_size", "k"]}
        fit_meta = {}
        for method in facts:
            out = str(tmp_path / f"fit-{method}.csv")
            assert main(["fit", "--input", sample_csv, "--method", method,
                         "--output", out, *flags]) == 0
            fit_meta[method] = json.load(open(out + ".meta.json"))
        outputs = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}.csv")
            assert main(["simulate", "--dgp", "lowdim", "--n", "400", "--reps", "2",
                         "--method", ",".join(facts), "--oracle-m", "2000",
                         "--workers", workers, "--output", out, *flags]) == 0
            outputs.append([open(out + suffix, "rb").read()
                            for suffix in ("", ".jsonl", ".meta.json")])
        assert outputs[0] == outputs[1]
        sim_meta = json.loads(outputs[0][2])
        settings = ["alpha_error", "alpha_conf", "folds", "delta", "grid",
                    "g_learner", "e_learner", "ridge", "bhat_fixed", "seed"]
        rows = [json.loads(line) for line in outputs[0][1].splitlines()]
        assert len(rows) == 6
        for row in rows:
            meta = fit_meta[row["method"]]
            assert {k: meta[k] for k in settings} == {k: sim_meta[k] for k in settings}
            assert sorted(row["info"]) == facts[row["method"]]
            assert [type(meta[k]) for k in facts[row["method"]]] == [
                type(row["info"][k]) for k in facts[row["method"]]]

    @pytest.mark.parametrize("learner", ["logistic-ridge", "boosted-stumps"])
    def test_rs_rows_do_not_depend_on_the_methods_before_them(self, tmp_path, learner):
        # Rejection sampling reuses the cross-fit's fold 0 when an earlier
        # method built it, and fits fold 0 alone when none did: the same
        # predictors, so the same rows, at one worker or the default count.
        common = ["simulate", "--dgp", "lowdim", "--n", "300", "--reps", "3",
                  "--oracle-m", "2000", "--seed", "12", "--g-learner", learner,
                  "--e-learner", learner]
        outputs = []
        for methods in ("onestep,tmle,rs,plugin,wplugin,icp,wcp", "rs"):
            for workers in (["--workers", "1"], []):
                out = str(tmp_path / f"{methods.count(',')}-{len(workers)}.csv")
                assert main([*common, "--method", methods, "--output", out, *workers]) == 0
                with open(out + ".jsonl") as fh:
                    outputs.append([line for line in fh if json.loads(line)["method"] == "rs"])
        assert len(outputs[0]) == 3
        assert not any(json.loads(line)["failed"] for line in outputs[0])
        assert outputs == [outputs[0]] * 4

    def test_rs_rows_fail_by_name_on_tiny_draws(self, tmp_path):
        # At four units a fold-0 half often lacks a population: each such
        # rs row names its error, whether fold 0 is fitted alone or taken
        # from the cross-fit, and the study runs on.
        rs_rows = []
        for methods in ("rs", "onestep,rs"):
            out = str(tmp_path / f"{len(methods)}.csv")
            assert main(["simulate", "--dgp", "lowdim", "--n", "4", "--reps", "30",
                         "--method", methods, "--oracle-m", "1000", "--workers", "1",
                         "--output", out]) == 0
            with open(out + ".jsonl") as fh:
                rs_rows.append([line for line in fh if json.loads(line)["method"] == "rs"])
        assert rs_rows[0] == rs_rows[1]
        rows = [json.loads(line) for line in rs_rows[0]]
        failures = {r["failure"] for r in rows if r["failed"]}
        assert failures == {"DegenerateFoldError", "EmptyAcceptanceError"}
        assert any(not r["failed"] for r in rows)

    # SHA-256 of each output as first recorded, the two icp tables as
    # re-recorded when icp's psi_hat became the Beta median, the metadata
    # and JSONL rows as re-recorded when each run fact and setting got one
    # key, and every output that carries rejection sampling (the three
    # all-method studies' tables and rows, the three rs fits' tables and
    # metadata) as re-recorded when rs's halves became the cross-fit's
    # fold 0 and its complement; identical with OPENBLAS_NUM_THREADS=1.  A
    # refactor must not change them.
    PINNED = {
        "simulate-lowdim-stumps": {
            "": "f4c4ea75cbb8799dc9fb4d19e5765e128c79bdf316810ff33089707e7843809c",
            ".jsonl": "a6dc8917407378e4b4ce24bec52d50d7411314e45f747561a70b313d58b95439",
            ".meta.json": "65aec22d1b49078ab485cb60fb310fcb214ef8ec13fbce6d4e3378f3a45ed407",
        },
        "simulate-highdim-logistic": {
            "": "87f283a889ba6499a7422425b26bcc24d4f7aec21db645792b191e8c56d9b2ac",
            ".jsonl": "857b73872e26ea6e6c853153a0ff4599db46e7ce3ada107b08150c8d083cf9ff",
            ".meta.json": "36c3d8aecd8af97761e5414c4db71c9e1d2bf4140e0f57185797312aef0ca3c4",
        },
        "fit-onestep": {
            "": "7441495d0b49b607bcc0fece58d7077808b0aa1ff0c3e2dc4bf117c24f7e1386",
            ".meta.json": "e1bcf9875f5f9bfc906b64e5a0eb8cb77fdebfb2b4feb02f0f6ce9966235820c",
        },
        "fit-tmle": {
            "": "c0b7a888fb57ebbc859354098672f09223cc7e87953082be39112c57e59de975",
            ".meta.json": "3fa2954b3269bb00b27b020c3725746efd6359eae8e5f2d94648389b508714a3",
        },
        "fit-rs": {
            "": "8a081a9c6ba8b280875bd9bb86a5ee7caea015ff67c105d00fdb40896c585a5a",
            ".meta.json": "e52cb6f01217226b8a6730072c92fb0a829c377a9d88583673d7d04bb58bfe8e",
        },
        "fit-rs-fine-grid": {
            "": "d2abb7a82e091f370fac9dba5d892eb534514897365b72d61ddffd21c98817aa",
            ".meta.json": "3e1168a871e95d387da1b806aa3389b7b4df10b3f49c74fe3d90901b18d1d828",
        },
        "fit-onestep-fine-grid": {
            "": "88ff24952fb81bc64073edfd1e03d0a39ad579d0b6881e761757e5f578d894f0",
            ".meta.json": "e85544bf4e0836135080054bb45492153b74472127ce044ad82f9b7607d313f5",
        },
        "fit-tmle-fine-grid": {
            "": "9e9018a5b75e9de4f32ea445d0bec5c9348db91a2a90435dc7fb51aeb4c21b1b",
            ".meta.json": "db1833c448ee7c4a3e087209c8c557e752522fe1d66274d6098daa8bd7e5e8fd",
        },
        "fit-plugin": {
            "": "3b804fca0e41f35a0fa6b2c48043294c5070856a3a19f37ee2ef902c96339558",
            ".meta.json": "55c468a077f80b97ac6970cc22ecad0bde54f76dcb6bc2f6050aea7944959bed",
        },
        "fit-wplugin": {
            "": "b1260b841945b12ef56827bf58daa32a0f663f3407f152053fa7d7e02efa0711",
            ".meta.json": "6475acc4fb7e040e4f3a33f7501d6fc2d1fb768c1f3de4b0b04882e8b61fbb51",
        },
        "fit-icp": {
            "": "ef30c793dfc6f9e72471ad2f08c0078376ee84bfbe51b90f1d95f0e3e285deb8",
            ".meta.json": "b25524a499ea83a62c87ac5f926831f44ad63c59b3539778c8cb3cf5697105ae",
        },
        "simulate-lowdim-noshift-logistic": {
            "": "412074a1ae93235a83698267047f926e1ca331c63eec044c5641559aeb16c1d8",
            ".jsonl": "1edec933f0e23e6f6aba32cbeca81e84a51fa26e14b142bf7c477bc31b3eb9d9",
            ".meta.json": "9424f1c1563544f45618009e8aa3dc88183f01a73ea9c9c1c54eb7db939d175c",
        },
        "fit-highdim-stumps-onestep": {
            "": "be21db1aa851634ab861acd317c30f536c43803e2858655d5d64e381cabb6632",
            ".meta.json": "d8c87610fc35d9f9c8018afcf3086c5c18bdcabe45e65baf34dac3f6ccbeb050",
        },
        "fit-highdim-stumps-tmle": {
            "": "afd0c876bb28e6ccd13a65068527dcc628d546c5080f8b053cdd4e434fcbb91e",
            ".meta.json": "a518f592c020dd40424bf3bbb4eb99977670935cc3e4edb56a1c4816854a3288",
        },
        "fit-highdim-stumps-rs": {
            "": "a95c13bffb93c171b5bb246f74c1c72aa54d34dcfb339b1bba857c28af57bcb3",
            ".meta.json": "f42478f485fa651b4e48c118c73cbb14a8b91f60ecafb21f7f6fe73692e5b260",
        },
        "fit-highdim-stumps-plugin": {
            "": "0b012f713d8c88e1095f19251b60d7e938127e143ed46146543b72ffdbd50c7d",
            ".meta.json": "0fe0d6e96548e82ffc4e98bddeb96193256f093acfaf133e99ffdd9d8c5cc756",
        },
        "fit-highdim-stumps-wplugin": {
            "": "9739df7e9078662a52fffa1b035ffeb7a675ced39665358e529fe2609507869f",
            ".meta.json": "d019888e4add036b06dd5a02146d4abe5bcd46db0d80e0aa95e6ff6b0e702932",
        },
        "fit-highdim-stumps-icp": {
            "": "51d3dff241260dd8d9b042e420563c3eb1c592ce35783c10fdf80217d0ef1de2",
            ".meta.json": "88effa00c330b02c19f04b05cd8393b0f7e4c411b4c6e798c6784d14e775414d",
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
        for method in ("onestep", "tmle", "rs"):
            runs[f"fit-{method}-fine-grid"] = ["fit", "--input", data, "--method", method,
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
                                      "0:0.3:inf", "0:0.3:x", "0:1e300:1e-300",
                                      "0:0.3"])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, grid):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep", "--grid", grid,
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep", "--oracle-m", "1000", "--seed", "-1",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == NEGATIVE_SEED_ERROR
        assert list(tmp_path.iterdir()) == []

    def test_unknown_method_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", "onestep,magic",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1

    def test_empty_method_list_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "1",
                     "--method", ",", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ConfigurationError: need at least one method\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, error", [
        (("--folds", "1"), "fold count must be an integer of at least 2, got 1"),
        (("--delta", "0.7"), "delta must lie in (0, 0.5)"),
        (("--n", "1"), "cannot split 1 units into 2 folds"),
        (("--delta", "1e-13"), "delta must be at least 1e-12, got 1e-13"),
        (("--alpha-conf", "1e-17"), ALPHA_CONF_ERROR),
        (("--bhat-fixed", "0.5"), "fixed bound must be finite and at least 1"),
        (("--oracle-m", "0"), "M must be an integer of at least 1, got 0"),
        (("--reps", "0"), "replications must be an integer of at least 1, got 0"),
        (("--method", "onestep,bogus"), "unknown method 'bogus'"),
    ])
    def test_configuration_checked_before_the_oracle_is_built(
            self, tmp_path, capsys, monkeypatch, flags, error):
        def refuse(*args):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(simbench, "OracleEvaluator", refuse)
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "2",
                     "--method", "onestep", "--output", str(tmp_path / "x.csv"), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: ConfigurationError: {error}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_worker_count_rejected(self, tmp_path, capsys, workers):
        code = main(["simulate", "--dgp", "lowdim", "--n", "100", "--reps", "2",
                     "--method", "icp", "--workers", workers,
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ConfigurationError: workers must be" in capsys.readouterr().err

    def test_worker_count_changes_no_output_byte(self, tmp_path):
        # With no ridge at n=30 some IRLS fits diverge, so stderr carries
        # the fallback warnings that the workers issue.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        runs = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "shiftset.cli", "simulate", "--dgp", "highdim",
                 "--n", "30", "--reps", "10", "--method", "onestep,tmle,rs,wcp",
                 "--ridge", "0", "--seed", "4", "--workers", workers, "--output", out],
                env=env, capture_output=True, text=True, timeout=300)
            runs.append((proc.returncode, proc.stdout, proc.stderr,
                         *(open(out + suffix, "rb").read()
                           for suffix in ("", ".jsonl", ".meta.json"))))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "IRLS diverged" in runs[0][2]

    def test_a_draw_without_both_populations_is_a_failed_row(self, tmp_path):
        # At 6 units some draws hold no source or no target unit; each such
        # replication is a failed row, at any worker count, and the study
        # goes on.
        outputs = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}.csv")
            assert main(["simulate", "--dgp", "lowdim", "--method", "icp", "--n", "6",
                         "--reps", "40", "--oracle-m", "1000", "--workers", workers,
                         "--output", out]) == 0
            outputs.append([open(out + suffix, "rb").read()
                            for suffix in ("", ".jsonl", ".meta.json")])
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0][1].splitlines()]
        assert len(rows) == 40
        assert any(row["failed"] and row["failure"] == "DataError" for row in rows)


@pytest.mark.skipif(parallel.usable_cpus() < 2, reason="needs 2 CPUs")
def test_blas_thread_count_changes_no_output_byte(tmp_path):
    """An oracle of 450,001 lowdim draws (two chunks of 200,000 rows and a
    remainder) and a boosted-stumps study with wcp, whose propensities are
    looked up by cell at the oracle points: the same bytes with one BLAS
    thread or two."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    commands = {
        "oracle": ["oracle", "--dgp", "lowdim", "--oracle-m", "450001", "--seed", "1"],
        "simulate": ["simulate", "--dgp", "lowdim", "--method", "onestep,icp,wcp",
                     "--n", "600", "--reps", "2", "--workers", "1", "--seed", "3",
                     "--g-learner", "boosted-stumps", "--e-learner", "boosted-stumps"],
    }
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        for name, argv in commands.items():
            out = str(tmp_path / f"{name}-{threads}.csv")
            proc = subprocess.run([sys.executable, "-m", "shiftset.cli", *argv, "--output", out],
                                  env=env, capture_output=True, text=True, timeout=300)
            outputs = [open(out + suffix, "rb").read() for suffix in ("", ".meta.json")]
            if name == "simulate":
                outputs.append(open(out + ".jsonl", "rb").read())
            runs[name, threads] = (proc.returncode, proc.stdout, proc.stderr, *outputs)
    for name in commands:
        assert runs[name, "1"][0] == 0
        assert runs[name, "1"] == runs[name, "2"]


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

    def test_meta_records_the_grid(self, tmp_path):
        # Two grids give two tables; their metadata differ only in "grid".
        metas = {}
        for grid in ("0:0.3:0.05", "0:0.3:0.01"):
            out = str(tmp_path / f"oracle-{grid}.csv")
            assert main(["oracle", "--dgp", "lowdim", "--oracle-m", "2000",
                         "--grid", grid, "--output", out]) == 0
            metas[grid] = json.load(open(out + ".meta.json"))
            with open(out) as fh:
                taus = [float(row["tau"]) for row in csv.DictReader(fh)]
            assert metas[grid]["grid"] == taus == list(cli._parse_grid(grid))
        coarse, fine = metas.values()
        assert len(coarse.pop("grid")) == 7 and len(fine.pop("grid")) == 31
        assert coarse == fine

    def test_two_seeds_agree(self, tmp_path):
        vals = []
        for seed in ("2", "3"):
            out = str(tmp_path / f"o{seed}.csv")
            main(["oracle", "--dgp", "lowdim", "--oracle-m", "100000",
                  "--output", out, "--seed", seed])
            vals.append(json.load(open(out + ".meta.json"))["tau0"])
        # tau0 reads the cumulative weights, whose Monte-Carlo error is below
        # that of the sampled-label order statistic (SE about 4e-4 at M=1e5
        # here)
        assert abs(vals[0] - vals[1]) < 3e-3

    def test_oracle_and_simulate_share_their_oracle(self, tmp_path):
        # At one seed and M, `oracle` writes the curve and tau0 of the
        # evaluator that `simulate` scores every selected threshold against.
        grid, seed, m = "0:0.3:0.005", 4, 30_000
        common = ["--dgp", "lowdim", "--grid", grid, "--seed", str(seed),
                  "--oracle-m", str(m)]
        out, sim = str(tmp_path / "oracle.csv"), str(tmp_path / "sim.csv")
        assert main(["oracle", *common, "--output", out]) == 0
        assert main(["simulate", *common, "--method", "onestep,tmle,plugin,wplugin,icp,wcp",
                     "--n", "300", "--reps", "6", "--alpha-conf", "0.3", "--workers", "1",
                     "--output", sim]) == 0
        oracle = simbench._study_oracle(DgpSpec("lowdim"), m, RngStream(seed))
        with open(out) as fh:
            curve = list(csv.DictReader(fh))
        assert len(curve) == 61
        for row in curve:
            assert float(row["psi"]) == oracle.psi_at(float(row["tau"]))
        tau0 = json.load(open(out + ".meta.json"))["tau0"]
        assert tau0 == oracle.tau0(0.05)
        rows = [json.loads(line) for line in open(sim + ".jsonl")]
        scored = [r for r in rows if not r["failed"] and r["method"] != "wcp"]
        assert len(scored) >= 25
        assert {r["covered"] for r in scored} == {True, False}
        for r in scored:
            assert r["covered"] == (r["tau_hat"] <= tau0)

    def test_meta_records_the_oracle_settings(self, tmp_path):
        # Exactly these 7 keys, each setting from its flag or, alike, from
        # its config line.
        settings = {"alpha_error": 0.1, "grid": "0:0.2:0.1", "oracle_m": 1000, "seed": 8}
        tau0 = simbench._study_oracle(DgpSpec("highdim-sparse"), 1000, RngStream(8)).tau0(0.1)
        want = {"command": "oracle", "dgp": "highdim-sparse", "tau0": tau0,
                **settings, "grid": [0.0, 0.1, 0.2]}
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        cfg = write(tmp_path / "run.cfg", "".join(f"{k} = {v}\n" for k, v in settings.items()))
        for i, source in enumerate((flags, ["--config", cfg])):
            out = str(tmp_path / f"oracle-{i}.csv")
            assert main(["oracle", "--dgp", "highdim", *source, "--output", out]) == 0
            assert json.load(open(out + ".meta.json")) == want

    def test_oracle_and_simulate_default_to_the_study_oracle_m(self):
        parser, _ = cli._build_parser()
        for argv in (["oracle", "--dgp", "lowdim"],
                     ["simulate", "--dgp", "lowdim", "--method", "icp", "--n", "9"]):
            assert parser.parse_args(argv).oracle_m == StudyConfig.oracle_m

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, tmp_path, capsys, alpha):
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--dgp", "lowdim", "--oracle-m", "1000",
                     "--alpha-error", alpha, "--output", str(out)])
        assert code == 1
        assert "ConfigurationError" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["oracle", "--dgp", "lowdim", "--oracle-m", "1000", "--seed", "-1",
                     "--output", str(tmp_path / "oracle.csv")])
        assert code == 1
        assert capsys.readouterr().err == NEGATIVE_SEED_ERROR
        assert list(tmp_path.iterdir()) == []

    def test_only_oracle_flags_accepted(self, tmp_path, capsys):
        _, subparsers = cli._build_parser()
        flags = {s for a in subparsers["oracle"]._actions for s in a.option_strings}
        assert flags == {"-h", "--help", "--config", "--grid", "--alpha-error", "--seed",
                         "--output", "--dgp", "--oracle-m"}
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--dgp", "lowdim", "--oracle-m", "1000", "--folds", "3",
                  "--output", str(tmp_path / "oracle.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --folds 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    def fit_with_config(self, tmp_path, sample_csv, text, *flags, output=True):
        cfg = write(tmp_path / "run.cfg", text)
        argv = ["fit", "--input", sample_csv, "--method", "onestep", "--config", cfg]
        if output:
            argv += ["--output", str(tmp_path / "o.csv")]
        return main(argv + list(flags)), cfg

    def test_equals_form_flag_overrides(self, tmp_path, sample_csv):
        code, _ = self.fit_with_config(tmp_path, sample_csv, "seed=9\n", "--seed=4")
        assert code == 0
        assert json.load(open(tmp_path / "o.csv.meta.json"))["seed"] == 4

    def test_output_from_file_alone(self, tmp_path, sample_csv):
        out = tmp_path / "from-file.csv"
        code, _ = self.fit_with_config(tmp_path, sample_csv, f"output={out}\n",
                                       output=False)
        assert code == 0
        assert out.exists() and (tmp_path / "from-file.csv.meta.json").exists()

    @pytest.mark.parametrize("command", ["fit", "simulate", "oracle"])
    def test_output_required(self, tmp_path, capsys, command):
        # Neither the command line nor a config file names the output; the
        # input, which does not exist, is never read.
        argv = {"fit": ["fit", "--input", str(tmp_path / "missing.csv"),
                        "--method", "onestep"],
                "simulate": ["simulate", "--dgp", "lowdim", "--n", "100",
                             "--method", "icp", "--reps", "1"],
                "oracle": ["oracle", "--dgp", "lowdim"]}[command]
        cfg = write(tmp_path / "run.cfg", "seed = 3\n")
        for extra in ([], ["--config", cfg]):
            assert main(argv + extra) == 1
            assert capsys.readouterr().err == "error: ConfigurationError: --output is required\n"

    def test_line_without_equals_rejected(self, tmp_path, sample_csv, capsys):
        code, cfg = self.fit_with_config(tmp_path, sample_csv, "seed=1\nfolds 3\n")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ConfigurationError: {cfg}:2: expected key=value\n")
        assert not (tmp_path / "o.csv").exists()

    def test_simulate_only_keys_apply(self, tmp_path, monkeypatch):
        seen = {}
        real = cli.run_study

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_study", spy)
        cfg = write(tmp_path / "run.cfg", "workers=1\noracle-m=3000\nreps=2\n")
        out = str(tmp_path / "s.csv")
        code = main(["simulate", "--dgp", "lowdim", "--n", "200", "--method", "icp",
                     "--output", out, "--config", cfg])
        assert code == 0
        assert seen["workers"] == 1
        meta = json.load(open(out + ".meta.json"))
        assert (meta["oracle_m"], meta["replications"]) == (3000, 2)

    def test_learner_from_file_matches_flag(self, tmp_path, sample_csv):
        outs = []
        for name, extra in (("flag", ["--g-learner", "boosted-stumps"]),
                            ("file", ["--config", write(tmp_path / "run.cfg",
                                                        "g-learner=boosted-stumps\n")])):
            out = str(tmp_path / f"{name}.csv")
            assert main(["fit", "--input", sample_csv, "--method", "onestep",
                         "--output", out, *extra]) == 0
            outs.append([open(out + ext, "rb").read() for ext in ("", ".meta.json")])
        assert outs[0] == outs[1]

    def test_badly_typed_value_under_flag_rejected(self, tmp_path, sample_csv, capsys):
        code, cfg = self.fit_with_config(tmp_path, sample_csv, "seed=abc\n", "--seed", "4")
        assert code == 1
        assert f"{cfg}:1: seed = 'abc' is not a valid int" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flags", [(), ("--g-learner", "logistic-ridge")],
                             ids=["alone", "under-flag"])
    def test_value_outside_choices_rejected(self, tmp_path, sample_csv, capsys, flags):
        code, cfg = self.fit_with_config(tmp_path, sample_csv, "seed=1\ng-learner = bogus\n",
                                         *flags)
        assert code == 1
        assert (f"{cfg}:2: g-learner = 'bogus' is not one of logistic-ridge, "
                "boosted-stumps") in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["input", "method", "dgp", "n"])
    def test_required_flag_key_rejected(self, tmp_path, sample_csv, capsys, key):
        cfg = write(tmp_path / "run.cfg", f"# required\n{key} = lowdim\n")
        command = {
            "input": ["fit", "--input", sample_csv, "--method", "onestep"],
            "method": ["fit", "--input", sample_csv, "--method", "onestep"],
            "dgp": ["oracle", "--dgp", "lowdim", "--oracle-m", "1000"],
            "n": ["simulate", "--dgp", "lowdim", "--n", "100", "--method", "icp",
                  "--reps", "1", "--oracle-m", "1000"],
        }[key]
        out = tmp_path / "o.csv"
        assert main(command + ["--output", str(out), "--config", cfg]) == 1
        assert f"{cfg}:2: {key} must be given on the command line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("help", "yes"), ("config", "other.cfg")])
    def test_help_and_config_keys_rejected(self, tmp_path, capsys, key, value):
        # Neither is a setting: --help takes no value and the command line's
        # --config names the file being read.
        cfg = write(tmp_path / "run.cfg", f"# not settings\n{key} = {value}\n")
        out = tmp_path / "o.csv"
        assert main(["oracle", "--dgp", "lowdim", "--oracle-m", "1000",
                     "--output", str(out), "--config", cfg]) == 1
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_bound_multiplier_is_no_setting(self, tmp_path, sample_csv, capsys, command):
        # The multiplier of the rejection-sampling bound rule is fixed at 1.3.
        out = tmp_path / "o.csv"
        argv = {"fit": ["fit", "--input", sample_csv, "--method", "rs"],
                "simulate": ["simulate", "--dgp", "lowdim", "--n", "100", "--method", "rs",
                             "--reps", "1", "--oracle-m", "1000"]}[command]
        argv += ["--output", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bhat-mult", "1.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bhat-mult 1.3" in capsys.readouterr().err
        cfg = write(tmp_path / "run.cfg", "bhat-mult = 1.3\n")
        assert main(argv + ["--config", cfg]) == 1
        assert f"{cfg}:1: unknown key 'bhat-mult'" in capsys.readouterr().err
        assert not out.exists()

    def test_first_bad_line_reported(self, tmp_path, sample_csv, capsys):
        code, cfg = self.fit_with_config(tmp_path, sample_csv,
                                         "seed=1\nfolds=2.5\ncolour=red\n")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: folds = '2.5' is not a valid int" in err
        assert "unknown key" not in err
