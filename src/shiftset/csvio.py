"""CSV ingestion and emission in the ``fit`` schema.

Header row with columns ``a`` (0/1), ``score`` (blank allowed only when
a=0), and ``x1..xp``.  Plain files are read by ``np.loadtxt`` over chunks of
whole lines, in forked workers when there are several (see
:func:`ingest_csv`); every other file by the exact csv reader.  Written
numbers carry 17 significant digits, so a round trip is bit-faithful.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import shutil
import stat
import tempfile
import warnings
from array import array
from contextlib import closing, contextmanager
from functools import partial
from math import isfinite, nan

import numpy as np

from . import parallel
from .core import DataError, ObservedSample

# One-pass path: data bytes below which a file is read here in one chunk, and
# about the most that one chunk of a larger file holds.  Two forked workers
# cost about 30 ms, which parsing about 3 MiB in them repays (BENCH_16.json).
_CHUNK_BYTES = 3 << 20
# Widths of the Latin-1 byte fields that the one-pass path reads `a` and `score`
# into: a token that fills its field may have been cut short, so it is not plain.
_A_WIDTH, _SCORE_WIDTH = 2, 32


def _fmt(x: float) -> str:
    """17 significant digits: enough for an exact float round trip."""
    return format(float(x), ".17g")


class CsvSchemaWarning(UserWarning):
    pass


class _NotPlain(Exception):
    """The data rows leave the subset that the one-pass reader handles."""


def ingest_csv(path: str) -> ObservedSample:
    """Read an observed sample from CSV.

    Column ``a`` must be 0 or 1; ``score`` must be blank exactly when a=0
    (values there are ignored with one warning per file); covariates are
    ``x1..xp`` in any order.  Errors carry 1-based file line numbers.

    Plain files are read by ``np.loadtxt`` in chunks of whole lines, in
    forked workers when the file has several; a file with quotes, NUL
    characters, over-long lines or anything that reader cannot judge exactly
    (including every invalid value) is read again by the exact csv reader,
    the only one that accepts it or writes its error.  A stream that is not a
    regular file, such as a pipe, is first copied to a temporary file.  Bytes
    that are not UTF-8 raise the decoder's ``UnicodeDecodeError``, whose
    ``line_no`` names their file line, unless a line before them holds an
    error: lines are decoded one at a time, so the first error in file order
    is raised.
    """
    with _rereadable(path) as source, open(source, "rb") as raw:
        lines = _decoded_lines(source, raw)
        head = []  # the lines that the header record takes
        reader = csv.reader(_noting(lines, head))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            raise DataError(f"{path}: duplicate header names in {header}")
        cols = {name: i for i, name in enumerate(header)}
        if "a" not in cols or "score" not in cols:
            raise DataError(f"{path}: header must contain 'a' and 'score'")
        x_names = [h for h in header if h not in ("a", "score")]
        p = len(x_names)
        expected = [f"x{j}" for j in range(1, p + 1)]
        if p == 0 or sorted(x_names) != sorted(expected):
            raise DataError(
                f"{path}: covariate columns must be exactly x1..xp, got {x_names}")
        layout = (path, header, cols["a"], cols["score"], [cols[n] for n in expected])
        try:
            a, score, x, stray = _read_plain(source, layout, "".join(head))
        except _NotPlain:
            a, score, x, stray = _read_exact(lines, layout)
    if stray.size:
        warnings.warn(f"{path}: score ignored on {stray.size} target row(s) "
                      f"(first at line {stray[0]})", CsvSchemaWarning, stacklevel=2)
    if (a == 1).sum() == 0 or (a == 0).sum() == 0:
        raise DataError(f"{path}: need at least one source (a=1) and one "
                        "target (a=0) row")
    return ObservedSample(a=a, x=x, score=score)


@contextmanager
def _rereadable(path):
    """``path`` if it names a regular file, else the name of a temporary copy
    of the stream it names: the one-pass reader reads a file at offsets, and
    the exact reader reads it again."""
    if stat.S_ISREG(os.stat(path).st_mode):
        yield path
        return
    with open(path, "rb") as stream, tempfile.NamedTemporaryFile() as copy:
        shutil.copyfileobj(stream, copy)
        copy.flush()
        yield copy.name


def _decoded_lines(source, raw):
    """The lines of ``raw``, the binary file ``source``, split where the csv
    reader splits them and decoded one at a time as a ``utf-8-sig`` file, so
    that every line before one that is not UTF-8 is read and checked first.
    That line raises the error that a text read of ``source`` raises, with
    ``line_no`` set to the line's number."""
    lines = (line for chunk in raw for line in chunk.splitlines(keepends=True))
    for line_no, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8-sig" if line_no == 1 else "utf-8")
        except UnicodeDecodeError as error:
            error.line_no = line_no
            # A text read of the file fails at the same byte.  Raise its
            # error, whose words the file's other text readers give.
            with open(source, newline="", encoding="utf-8-sig") as fh:
                try:
                    for _ in fh:
                        pass
                except UnicodeDecodeError as same:
                    same.line_no = line_no
                    raise same from None
            raise


def _noting(lines, seen):
    """The lines, each noted in ``seen`` as it is taken."""
    for line in lines:
        seen.append(line)
        yield line


def _read_plain(source, layout, head):
    """Read the data rows of the regular file ``source`` that follow the header
    text ``head`` in chunks of whole lines, in forked workers when there are
    several: (a, score, x, stray-score lines).  Raises ``_NotPlain`` unless
    every row is valid and plain."""
    with open(source, "rb") as raw:
        start = len(head.encode())
        if raw.read(3) == codecs.BOM_UTF8:
            start += 3
        read = partial(_read_chunk, layout, raw.fileno())
        with closing(parallel.run_jobs(read, _split_lines(raw, start))) as parts:
            return _join(list(parts))


def _join(parts):
    """The arrays of the whole file from its chunks' (a, score, x, stray-score
    line offsets, line count), in file order."""
    if not any(len(part[0]) for part in parts):
        raise _NotPlain  # the exact reader reports the missing rows
    a, score, x, strays, counts = zip(*parts)
    firsts = np.cumsum((2,) + counts[:-1])  # the file line of each chunk's first line
    return (np.concatenate(a), np.concatenate(score), np.concatenate(x),
            np.concatenate([first + stray for first, stray in zip(firsts, strays)]))


def _split_lines(raw, start):
    """(byte offset, byte length) of the chunks of whole lines that hold the
    binary file ``raw`` from byte ``start`` on.  Fewer than ``_CHUNK_BYTES``
    bytes are one chunk; more are cut, each cut after a newline, into chunks
    of at most about that size whose count the usable CPUs divide."""
    size = os.fstat(raw.fileno()).st_size
    data = size - start
    cpus = parallel.usable_cpus()
    count = cpus * -(-data // (cpus * _CHUNK_BYTES)) if data >= _CHUNK_BYTES else 1
    step = -(-data // count) if data else 0
    chunks = []
    while start < size:
        raw.seek(min(start + step, size) - 1)
        raw.readline()
        chunks.append((start, raw.tell() - start))
        start = raw.tell()
    return chunks


def _read_chunk(layout, fd, offset, length):
    """Read the whole data lines in bytes ``offset`` to ``offset + length``
    of the file ``fd`` in one ``np.loadtxt`` pass: (a, score, x, stray-score
    line offsets, line count).  Raises ``_NotPlain`` unless every row is
    valid and plain."""
    _, header, a_col, s_col, x_cols = layout
    text = io.TextIOWrapper(io.BytesIO(os.pread(fd, length, offset)),
                            encoding="utf-8", newline="")
    fields = [(name, "f8") for name in header]
    fields[a_col] = ("a", f"S{_A_WIDTH}")
    fields[s_col] = ("score", f"S{_SCORE_WIDTH}")
    blanks = []  # per blank line, the number of data rows before it
    try:
        lines = list(_plain_lines(text, blanks))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=fields, delimiter=",", comments=None,
                              quotechar=None, ndmin=1) if lines else np.empty(0, fields)
    except (ValueError, Warning):
        raise _NotPlain from None
    a_tok, s_tok = rows["a"], rows["score"]
    src = a_tok == b"1"
    if not (src | (a_tok == b"0")).all() or (np.char.str_len(s_tok) == _SCORE_WIDTH).any():
        raise _NotPlain
    score = np.full(len(rows), np.nan)
    try:
        score[src] = np.fromiter(map(float, s_tok[src].tolist()), float)
    except ValueError:
        raise _NotPlain from None
    x = np.column_stack([rows[header[c]] for c in x_cols])
    if not (np.isfinite(score[src]).all() and np.isfinite(x).all()):
        raise _NotPlain
    stray = np.array([i for i in np.flatnonzero(~src & (s_tok != b""))
                      if s_tok[i].decode("latin-1").strip()], dtype=np.int64)
    return (src.astype(np.int8), score, x,
            stray + np.searchsorted(blanks, stray, side="right"), len(rows) + len(blanks))


def _plain_lines(lines, blanks):
    """The data lines, skipping blank ones (noted in ``blanks``); raises
    ``_NotPlain`` at a quote, a NUL or an over-long line."""
    limit = csv.field_size_limit()
    for k, line in enumerate(lines):
        if '"' in line or "\0" in line or len(line) > limit:
            raise _NotPlain
        if line.rstrip("\r\n"):
            yield line
        else:
            blanks.append(k - len(blanks))


def _read_exact(fh, layout):
    """Read the data rows that follow the header with the csv reader, checking
    and converting each row as it is read into typed buffers as compact as the
    arrays they become: (a, score, x, stray-score lines).  Writes every row error."""
    path, _, _, s_col, _ = layout
    a, score, x, stray = array("b"), array("d"), array("d"), array("q")
    for line_no, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        source, value, covariates = _check_row(layout, line_no, row)
        a.append(source)
        score.append(value)
        x.extend(covariates)
        if not source and row[s_col].strip():
            stray.append(line_no)
    if not a:
        raise DataError(f"{path}: no data rows")
    return (np.frombuffer(a, np.int8), np.frombuffer(score),
            np.frombuffer(x).reshape(len(a), -1), np.frombuffer(stray, np.int64))


def _check_row(layout, line_no: int, row):
    """Check and convert one data row: (a, score, covariates).  Raises the
    DataError for its first invalid field."""
    path, header, a_col, s_col, x_cols = layout
    where = f"{path}:{line_no}"
    if len(row) != len(header):
        raise DataError(f"{where}: expected {len(header)} fields")
    a_raw = row[a_col].strip()
    if a_raw not in ("0", "1"):
        raise DataError(f"{where}: 'a' must be 0 or 1, got {a_raw!r}")
    source = a_raw == "1"
    if source and not row[s_col].strip():
        raise DataError(f"{where}: source row is missing its score")
    values = []
    for c in ([s_col] if source else []) + x_cols:
        text = row[c].strip()
        try:
            value = float(text)
        except ValueError:
            raise DataError(f"{where}: column {header[c]!r} has a malformed "
                            f"number {text!r}") from None
        if not isfinite(value):
            raise DataError(f"{where}: column {header[c]!r} must be finite")
        values.append(value)
    score = values.pop(0) if source else nan
    return source, score, values


def emit_csv(sample: ObservedSample, path: str) -> None:
    """Write a sample in the ingestion schema (exact round trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "score"] + [f"x{j}" for j in range(1, sample.p + 1)])
        for i in range(sample.n):
            score = _fmt(sample.score[i]) if sample.a[i] == 1 else ""
            writer.writerow([str(int(sample.a[i])), score]
                            + [_fmt(v) for v in sample.x[i]])
