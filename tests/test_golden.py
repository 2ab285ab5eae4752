"""The answers of the four shipped configs at two trials, against the cells
checked in under ``tests/golden/`` (``golden/regenerate.py`` writes them).

Integer and text cells compare exactly.  Float cells compare at 1.6e-12
relative, the largest spread measured between OpenBLAS's Prescott and
Haswell kernels on the per-trial values.  A spread cell (``var_*``,
``std_*``) is the rounding of a difference of such values, so it compares
with an absolute floor instead: values within 1.6e-12 relative of a mean m
move their standard deviation s by up to 2 * 1.6e-12 |m|, and so their
variance by up to 4 * 1.6e-12 |m| s + (2 * 1.6e-12 m)^2.  The per-trial
values behind each spread cell are checked at 1.6e-12 in the raw CSVs.
"""

import math

import pytest

from golden.regenerate import GOLDEN, SHIPPED, primary_csvs, run_shipped
from isacopt.harness import read_csv_rows

# every answer here rounds with the BLAS kernels (``pytest -m kernels``)
pytestmark = pytest.mark.kernels

RTOL = 1.6e-12


def _is_int(cell: str) -> bool:
    return cell.lstrip("-").isdigit()


def spread_floor(column: str, row: dict[str, str]) -> float:
    """The absolute floor of a spread cell, from the mean in its row (the
    variance of the ratio config's L = 8 trials is near 1e-32, and at
    L = 36 it carries 100 times the relative error of its ratios); 0 for
    any other column."""
    kind, _, of = column.partition("_")
    if kind not in ("var", "std"):
        return 0.0
    move = 2.0 * RTOL * abs(float(row[f"mean_{of}"]))
    if kind == "std":
        return move
    return 2.0 * move * math.sqrt(float(row[column])) + move * move


def cell_mismatches(header: list[str], want: list[list[str]],
                    got: list[list[str]]) -> list[str]:
    """The cells of ``got`` that differ from ``want`` beyond the tolerance,
    as readable lines."""
    if len(got) != len(want):
        return [f"{len(got)} rows, want {len(want)}"]
    bad = []
    for i, (row_w, row_g) in enumerate(zip(want, got)):
        row = dict(zip(header, row_w))
        for column, w, g in zip(header, row_w, row_g):
            if _is_int(w) or _is_int(g):
                ok = w == g
            else:
                try:
                    fw, fg = float(w), float(g)
                except ValueError:
                    ok = w == g
                else:
                    ok = math.isclose(fg, fw, rel_tol=RTOL,
                                      abs_tol=spread_floor(column, row))
            if not ok:
                bad.append(f"row {i + 1} {column}: {g}, want {w}")
    return bad


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_gives_golden_cells(tmp_path, name):
    csvs = run_shipped(name, tmp_path)
    want_files = primary_csvs(GOLDEN / name)
    assert [p.name for p in csvs] == [p.name for p in want_files]
    for got_path, want_path in zip(csvs, want_files):
        header, want = read_csv_rows(want_path)
        got_header, got = read_csv_rows(got_path)
        assert got_header == header, want_path.name
        bad = cell_mismatches(header, want, got)
        assert not bad, f"{name}/{want_path.name}: " + "; ".join(bad[:10])


def test_mismatch_is_reported():
    header = ["l", "mean_ratio", "var_ratio", "method"]
    want = [["8", "0.9999999999999711", "6.162975822039155e-33", "manifold"]]
    assert cell_mismatches(header, want, [list(want[0])]) == []
    # within the tolerance and the floor
    assert cell_mismatches(header, want, [[
        "8", "0.9999999999999722", "1e-24", "manifold"]]) == []
    moved = [["9", "0.99999999999", "1e-22", "minorization"]]
    assert len(cell_mismatches(header, want, moved)) == 4
    # about a mean of 0.98, a variance of 1e-4 may move by 4 RTOL 0.98 0.01
    # = 6.3e-14 and a deviation by 2 RTOL 0.98 = 3.1e-12
    header = ["mean_ratio", "var_ratio", "std_ratio"]
    want = [["0.98", "1e-4", "1e-2"]]
    assert cell_mismatches(header, want, [["0.98", "1.0000000005e-4",
                                           "1.0000000002e-2"]]) == []
    assert len(cell_mismatches(header, want, [["0.98", "1.000000001e-4",
                                               "1.0000000005e-2"]])) == 2
    assert cell_mismatches(header, want, []) == ["0 rows, want 1"]
