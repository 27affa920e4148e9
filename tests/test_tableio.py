"""The column-at-a-time CSV writer, fed rows or blocks of columns, against the
row-at-a-time writer it replaced."""

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cardiotox import tableio
from cardiotox.cohort import DrugClass, Treatment
from cardiotox.tableio import write_columns, write_csv


# Copy of the row-at-a-time writer (fmt_float and fmt_cell are unchanged). Its
# csv.writer ends rows with "\r\n", so that it quotes a cell holding "\r" on
# every Python version (3.13 quotes it after "\n" too, 3.10-3.12 do not), and
# each row's ending is then rewritten to "\n".
def reference_fmt_float(x: float) -> str:
    """Render a float with 10 significant digits (negative zero canonicalized)."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".10g")


def reference_fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return reference_fmt_float(value)
    return str(value)


class LineFeedRows:
    """A file whose writes are csv.writer rows: each row's CR LF ending is written as LF."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, row: str) -> int:
        return self.fh.write(row.removesuffix("\r\n") + "\n")


def reference_write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    footer_comments: Sequence[str] = (),
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(LineFeedRows(fh), lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_fmt_cell(v) for v in row])
        for comment in footer_comments:
            fh.write(f"# {comment}\n")


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 1e16, 0.1, -2.5,
                  123456789012.0, 1.5e-7]
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
TEXT = st.text(alphabet=st.sampled_from('ab ;,"\n\r\té0'), max_size=6)
# cells of one kind each; a column draws one kind, or any cell of any kind
KINDS = {
    "bool": st.booleans(),
    "int": st.integers(-10**20, 10**20),
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "np.bool_": st.booleans().map(np.bool_),
    "str": TEXT,
    "enum": st.sampled_from(list(Treatment) + list(DrugClass)),
    "None": st.none(),
}
ANY_CELL = st.one_of(*KINDS.values())


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from([*KINDS, "mixed"]), min_size=1, max_size=5))
    cells = [ANY_CELL if kind == "mixed" else KINDS[kind] for kind in kinds]
    n = draw(st.integers(0, 12))
    rows = [tuple(draw(cell) for cell in cells) for _ in range(n)]
    return [f"c{j}" for j in range(len(kinds))], rows


def written(tmp_path: Path, name: str, write, header, rows, footer=()) -> bytes:
    path = tmp_path / name
    write(path, header, rows, footer)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tableio")


@given(table=tables(), chunk=st.integers(1, 5),
       footer=st.lists(st.text(alphabet="ab ,#", max_size=5), max_size=2),
       as_lists=st.booleans())
@settings(max_examples=400, deadline=None)
@example(table=(["a", "b"], [(-0.0, np.bool_(True)), (0.0, np.bool_(False))]), chunk=1,
         footer=[], as_lists=False)
@example(table=(["a"], [("",), ('x,"y"',), ("\r",), ("\n",)]), chunk=3, footer=["f"],
         as_lists=True)
def test_bytes_equal_the_row_writer(scratch, table, chunk, footer, as_lists):
    header, rows = table
    if as_lists:
        rows = [list(row) for row in rows]
    with mock.patch.object(tableio, "_CHUNK_ROWS", chunk):
        got = written(scratch, "new.csv", write_csv, header, iter(rows), footer)
    assert got == written(scratch, "old.csv", reference_write_csv, header, rows, footer)


def test_numpy_scalars_keep_their_text(tmp_path):
    rows = [(np.bool_(True), np.float64(-0.0), np.float64(1e22)),
            (np.bool_(False), np.float64(2.5), np.float64(math.nan))]
    write_csv(tmp_path / "t.csv", ("b", "x", "y"), rows)
    assert (tmp_path / "t.csv").read_text() == "b,x,y\nTrue,0,1e+22\nFalse,2.5,nan\n"


@pytest.mark.parametrize("n", [0, 1, tableio._CHUNK_ROWS - 1, tableio._CHUNK_ROWS,
                               tableio._CHUNK_ROWS + 1, 2 * tableio._CHUNK_ROWS + 1])
def test_row_counts_around_the_chunk_size(tmp_path, n):
    # the cell types of a column change between and within chunks
    cells = [True, -0.0, 1.25, "x,y", None, Treatment.TARGETED, 7, np.float64(0.5)]
    rows = [(f"P{i}", float(i) / 3, i % 3 == 0, cells[(i // 1000) % len(cells)],
             cells[i % len(cells)]) for i in range(n)]
    header = ("id", "x", "flag", "slow", "mixed")
    got = written(tmp_path, "new.csv", write_csv, header, rows, ["done"])
    assert got == written(tmp_path, "old.csv", reference_write_csv, header, rows, ["done"])


@pytest.mark.parametrize("bad", [0, 5, tableio._CHUNK_ROWS + 2])
@pytest.mark.parametrize("width", [1, 3])
def test_row_of_another_width_raises(tmp_path, bad, width):
    rows = [(1.0, 2.0)] * (tableio._CHUNK_ROWS + 3)
    rows[bad] = (1.0,) * width
    with pytest.raises(ValueError, match="width differs from the header"):
        write_csv(tmp_path / "t.csv", ("a", "b"), rows)


@given(table=tables(), cuts=st.lists(st.integers(0, 12), max_size=4))
@settings(max_examples=200, deadline=None)
def test_column_blocks_equal_the_row_writer(scratch, table, cuts):
    header, rows = table
    bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    blocks = [[[row[j] for row in rows[lo:hi]] for j in range(len(header))]
              for lo, hi in zip(bounds, bounds[1:])]
    got = written(scratch, "new.csv", write_columns, header, blocks, ["f"])
    assert got == written(scratch, "old.csv", reference_write_csv, header, rows, ["f"])


@given(table=tables(), as_columns=st.booleans(),
       footer=st.lists(st.text(alphabet="ab ,#", max_size=5), max_size=2))
@settings(max_examples=300, deadline=None)
@example(table=(["a"], [("",), ("x",), ("",)]), as_columns=False, footer=[])
@example(table=(["a"], [("",)]), as_columns=True, footer=["f"])
@example(table=(["a", "b"], [('x,"y"', "\r"), ("\n", "a\r\nb"), ("", "")]), as_columns=True,
         footer=["a,b"])
def test_output_reads_back(scratch, table, as_columns, footer):
    # csv.reader gives the header, each cell's fmt_cell text, then the footer lines
    header, rows = table
    path = scratch / "read.csv"
    if as_columns:
        write_columns(path, header, [[[row[j] for row in rows] for j in range(len(header))]],
                      footer)
    else:
        write_csv(path, header, rows, footer)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    body = got[:len(rows) + 1]
    assert body == [header, *[[tableio.fmt_cell(v) for v in row] for row in rows]]
    assert [",".join(line) for line in got[len(rows) + 1:]] == [f"# {c}" for c in footer]


@pytest.mark.parametrize("columns", [[("a",)], [("a",), ("b", "c")], [("a",), ("b",), ("c",)]])
def test_block_of_other_columns_raises(tmp_path, columns):
    with pytest.raises(ValueError, match="a block needs 2 columns of one length"):
        write_columns(tmp_path / "t.csv", ("x", "y"), [columns])
