"""CSV emission helpers.

All report files share one contract: comma-delimited, UTF-8, LF line endings,
floats printed with 10 significant digits. Keeping the formatting in one place
is what makes byte-identical reruns cheap to guarantee.

One writer takes rows (``write_csv``, a chunk at a time) or blocks of columns
(``write_columns``). Each column of a block is formatted at once: a column of
only ``str``, ``bool`` or ``float`` cells takes a shortcut to the text
``fmt_cell`` gives, which formats the cells of any other column. Then one RFC
4180 rule, not the ``csv`` module's, quotes each column (a carriage return on
any Python version), and the block's rows are joined from its columns.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError

# A chunk of a report's rows makes fewer new containers than the collector's
# first threshold (700), so writing starts no collection of the rows.
_CHUNK_ROWS = 512

_QUOTED = ',"\n\r'  # a cell holding one of these is quoted


def fmt_cell(value) -> str:
    """A bool as 1/0, a float with 10 significant digits (negative zero as 0), else str()."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(float(value), ".10g") if value else "0"
    return str(value)


def _fmt_column(cells: Sequence) -> Iterable[str]:
    """``fmt_cell`` of each cell, with one rule for a column of one exact type."""
    cells = cells.tolist() if hasattr(cells, "tolist") else cells  # an array's Python values
    types = set(map(type, cells))
    if types == {str}:
        return cells
    if types == {bool}:
        return ["1" if v else "0" for v in cells]
    if types == {float}:
        return [format(x, ".10g") if x else "0" for x in cells]  # -0.0 prints as 0
    return map(fmt_cell, cells)


def _quote_column(cells: Iterable[str], lone: bool) -> list[str]:
    """The cells as RFC 4180 fields: quoted, each ``"`` doubled, when one holds ``_QUOTED``;
    an empty cell of a table's ``lone`` column as ``""``, so that its row is not blank."""
    cells = list(cells)
    joined = "\0".join(cells)  # searched once: cells are checked only if it holds one
    if any(ch in joined for ch in _QUOTED):
        cells = ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in _QUOTED) else c
                 for c in cells]
    return [c or '""' for c in cells] if lone and "" in cells else cells


@contextmanager
def open_report(path: str | Path):
    """``path`` opened to write text, its directory made; a ConfigError if it cannot be."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as err:  # a directory in its place, no permission, a full disk
        raise ConfigError(f"cannot write '{path}': {err.strerror}") from None


def write_columns(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence[Sequence]],
                  footer_comments: Sequence[str] = ()) -> None:
    """Write ``header``, then each block's rows: a block holds one column per header name."""
    with open_report(path) as fh:
        for columns in itertools.chain([[[name] for name in header]], blocks):
            lengths = set(map(len, columns))
            if len(columns) != len(header) or len(lengths) > 1:
                raise ValueError(f"{path}: a block needs {len(header)} columns of one length")
            if lengths != {0}:  # a block of no rows writes nothing
                fields = (_quote_column(_fmt_column(c), len(header) == 1) for c in columns)
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        for comment in footer_comments:
            fh.write(f"# {comment}\n")


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    footer_comments: Sequence[str] = (),
) -> None:
    rows = iter(rows)

    def chunks():
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(header)}:
                raise ValueError(f"{path}: a row's width differs from the header's "
                                 f"({len(header)} columns)")
            yield tuple(zip(*chunk))

    write_columns(path, header, chunks(), footer_comments)
