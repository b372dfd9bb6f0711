"""One reader and one writer for every text file: TSV tables, corpus, queries.

The text counterpart of ``checkpoint.Reader``: a file is read once and
decoded as UTF-8 (a leading byte-order mark dropped), lines split as
universal newlines, and empty lines and ``#`` comments are skipped. Invalid
UTF-8, a row of the wrong width or a cell that does not convert is a
``ValueError`` of the form ``path:line: ...``.
A file output is written whole or not at all (``checkpoint.atomic_write``).
The path ``-`` (or ``None`` for outputs) is the standard stream.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .checkpoint import atomic_write


BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark, which some editors write first


def _is_stream(path) -> bool:
    return path is None or str(path) == "-"


def read_text(path: str | Path) -> str:
    """The whole file at ``path`` (``-``: standard input) decoded as UTF-8,
    without a leading byte-order mark."""
    if _is_stream(path):
        path, data = "<stdin>", sys.stdin.buffer.read()
    else:
        data = Path(path).read_bytes()
    skip = len(BOM) if data.startswith(BOM) else 0
    try:
        return str(memoryview(data)[skip:], "utf-8")  # a view: the bytes are not copied
    except UnicodeDecodeError as exc:
        start = skip + exc.start
        head = data[:start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 at byte {start}: {exc.reason}") from None


def lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is neither empty nor a ``#`` comment.

    The file is read and decoded by the call, so a missing file or invalid
    UTF-8 fails there; its lines are then split off one at a time, so a
    reader holds no more of them than it keeps."""
    text = read_text(path)
    if "\r" in text:  # universal newlines; one replace at a time keeps two copies at most
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return _numbered(text)


def _numbered(text: str) -> Iterator[tuple[int, str]]:
    n = start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        n += 1
        line, start = text[start:end], end + 1
        if line and not line.startswith("#"):
            yield n, line


@dataclass
class Table:
    """A tab-separated table: the header row's names, then ``(line, cells)`` rows."""

    path: str
    header: list[str]
    rows: list[tuple[int, list[str]]]

    def error(self, lineno: int, message: str) -> ValueError:
        return ValueError(f"{self.path}:{lineno}: {message}")

    def index(self, name: str) -> int:
        if name not in self.header:
            raise ValueError(f"{self.path}: no column named {name!r} (header: {self.header})")
        return self.header.index(name)

    def column(self, name: str, convert: Callable = str, kind: str = "") -> list:
        """Each row's cell under ``name`` through ``convert``; a failure names the
        line, the column and the value, which "is not ``kind``"."""
        i = self.index(name)
        values = []
        for lineno, cells in self.rows:
            try:
                values.append(convert(cells[i]))
            except ValueError:
                raise self.error(lineno, f"{name} {cells[i]!r} is not {kind}") from None
        return values


def read_table(path: str | Path) -> Table:
    """The table at ``path``: its first line is the header, which names each
    column once, and every row has as many cells. When the header's last
    column is ``label``, as in a pair TSV, a row may leave out its last cell,
    which reads as empty."""
    numbered = lines(path)
    first = next(numbered, None)
    if first is None:
        raise ValueError(f"{path}: empty file (header row required)")
    header = first[1].split("\t")
    table = Table(str(path), header, [])
    if len(set(header)) < len(header):  # a reader would see only the first of two
        repeated = next(name for i, name in enumerate(header) if name in header[:i])
        raise table.error(first[0], f"header names column {repeated!r} twice")
    optional = header[-1] == "label"
    for lineno, line in numbered:
        cells = line.split("\t")
        if optional and len(cells) == len(header) - 1:
            cells.append("")
        if len(cells) != len(header):
            raise table.error(lineno, f"expected {len(header)} fields, got {len(cells)}")
        table.rows.append((lineno, cells))
    return table


def keyword_ids(n: int) -> list[str]:
    """Ids ``k000000``, ``k000001``, ... of ``n`` keywords in order: at least six
    digits, and as many as the last id needs, so all ``n`` have one width."""
    width = max(6, len(str(n - 1)))
    return [f"k{i:0{width}d}" for i in range(n)]


def _corpus_rows(path: str | Path) -> Iterator[tuple[int, str | None, str]]:
    """(line number, id or None for a bare line, text) of each keyword row; only
    the first row may be the header ``id<TAB>keyword``."""
    for k, (lineno, line) in enumerate(lines(path)):
        if "\t" not in line:
            yield lineno, None, line
        elif k or line != "id\tkeyword":
            yield lineno, *line.split("\t", 1)


def read_corpus(path: str | Path) -> tuple[list[str], list[str]]:
    """Keyword ids and texts: ``id<TAB>keyword`` rows (header optional) or bare
    lines, which get the ids of ``keyword_ids`` in order. An id that repeats,
    given or assigned, is a ``ValueError`` ``path:line: keyword id ... repeats
    line N``."""
    ids: list[str | None] = []
    texts: list[str] = []
    for _, kid, text in _corpus_rows(path):
        ids.append(kid)
        texts.append(text)
    if not texts:
        raise ValueError(f"{path}: corpus contains no keywords")
    auto = iter(keyword_ids(ids.count(None)))
    for i, kid in enumerate(ids):  # in place: a second list would cost 8 bytes a keyword
        if kid is None:
            ids[i] = next(auto)
    if len(set(ids)) != len(ids):
        raise _repeated_id(path, ids)
    return ids, texts


def _repeated_id(path: str | Path, ids: list[str]) -> ValueError:
    """The error for the first id in ``ids`` that repeats. Line numbers are not
    kept per keyword, so both lines are found by reading the file again."""
    first: dict[str, int] = {}
    for k, kid in enumerate(ids):
        if first.setdefault(kid, k) != k:
            break
    line_of = {i: lineno for i, (lineno, _, _) in zip(range(k + 1), _corpus_rows(path))}
    if k not in line_of:  # a stream cannot be read again
        return ValueError(f"{path}: keyword id {kid!r} repeats")
    return ValueError(f"{path}:{line_of[k]}: keyword id {kid!r} repeats line {line_of[first[kid]]}")


def write_manifest(path: str | Path, manifest: dict) -> None:
    """The ``<path>.manifest.json`` sidecar of the output at ``path``, written atomically."""
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    atomic_write(str(path) + ".manifest.json", [text.encode("utf-8")])


def write_tsv(path: str | Path | None, rows: Iterable[Sequence[str]],
              manifest: dict | None = None, sidecar: dict | None = None) -> None:
    """Write ``# manifest: {manifest}``, then each row's cells joined by tabs
    (rows may be a generator), streamed to stdout or whole to ``path``, which
    then gets ``sidecar`` as its ``.manifest.json``. A row that is an empty
    line, starts with ``#`` (or, as the file's first line, with U+FEFF) or has
    a cell holding a tab, CR or LF would not read back as itself: a
    ``ValueError`` ``path:line: row (...) ...``."""
    if _is_stream(path):
        sys.stdout.writelines(_row_lines("<stdout>", rows, manifest))
        return
    atomic_write(path, (line.encode("utf-8") for line in _row_lines(path, rows, manifest)))
    if sidecar is not None:
        write_manifest(path, sidecar)


def _row_lines(name: str | Path, rows: Iterable[Sequence[str]], manifest: dict | None) -> Iterator[str]:
    if manifest is not None:
        yield "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"
    for lineno, row in enumerate(rows, start=1 if manifest is None else 2):
        line = "\t".join(row)
        problem = ("is an empty line" if not line
                   else "has a cell holding a tab, CR or LF"
                   if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line
                   else "would read back as a comment" if line[0] == "#"
                   else "would read back without its leading U+FEFF" if lineno == 1 and line[0] == "\ufeff"
                   else None)
        if problem:
            raise ValueError(f"{name}:{lineno}: row {tuple(row)!r} {problem}")
        yield line + "\n"
