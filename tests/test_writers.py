"""The CSV writers: the text of every value, block edges, and memory that stays flat."""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from yflow.bounds import MonitorResult
from yflow.cli import _BLOCK_ROWS, TIMESERIES_COLUMNS, write_monitors, write_timeseries

# two NaN payloads, the quiet one and a negative one with a payload bit
NANS = np.array([0x7FF8000000000000, -0x7FFFFFFFFFFFF], dtype=np.int64).view(np.float64)
SPECIAL = np.concatenate(([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0 / 3.0, 1e300],
                          NANS))


def _column(rows: int, seed: int, special=SPECIAL) -> np.ndarray:
    """Every ``special`` value in the first block, then values that repeat."""
    rng = np.random.default_rng(seed)
    col = rng.choice(np.concatenate((special, rng.normal(size=40))), rows)
    head = min(rows, special.size)
    col[:head] = np.roll(special, seed)[:head]
    return col


def _trajectory(rows: int) -> SimpleNamespace:
    return SimpleNamespace(**{f: _column(rows, seed)
                              for seed, (_, f, _) in enumerate(TIMESERIES_COLUMNS)})


def _result(monitor_id: str, rows: int) -> MonitorResult:
    # rhs finite, so that margin = rhs - lhs meets no inf - inf
    res = MonitorResult(monitor_id)
    res.add(_column(rows, 1), _column(rows, 2), _column(rows, 3, SPECIAL[np.isfinite(SPECIAL)]),
            _column(rows, 4) > 0.0)
    return res


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_timeseries_rows_are_fstrings_across_block_edges(tmp_path, rows):
    traj = _trajectory(rows)
    path = tmp_path / "timeseries.csv"
    write_timeseries(traj, str(path))
    cols = [getattr(traj, f).tolist() for _, f, _ in TIMESERIES_COLUMNS]
    want = [",".join(c for c, _, _ in TIMESERIES_COLUMNS)]
    want += [",".join(f"{v:.17g}" for v in row) for row in zip(*cols)]
    assert path.read_text().splitlines() == want
    assert path.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_monitor_rows_are_fstrings_across_block_edges(tmp_path, rows):
    results = [_result("probe_p2", rows), _result("probe_p3", rows // 3)]
    path = tmp_path / "monitors.csv"
    write_monitors(results, str(path))
    want = ["monitor_id,t,lhs,rhs,margin,verdict"]
    for res in results:
        want += [f"{res.monitor_id},{t:.17g},{lhs:.17g},{rhs:.17g},{margin:.17g},"
                 f"{'pass' if ok else 'FAIL'}"
                 for t, lhs, rhs, margin, ok in zip(res.t.tolist(), res.lhs.tolist(),
                                                    res.rhs.tolist(), res.margin.tolist(),
                                                    res.verdict.tolist())]
    assert path.read_text().splitlines() == want


def test_signed_zeros_and_nan_payloads_share_a_block(tmp_path):
    res = MonitorResult("zeros")
    res.add([0.0, -0.0, NANS[0], NANS[1]], [-0.0, 0.0, 1.0, 1.0], [0.0, -0.0, 0.0, 0.0], True)
    path = tmp_path / "monitors.csv"
    write_monitors([res], str(path))
    assert path.read_text().splitlines()[1:] == [
        "zeros,0,-0,0,0,pass", "zeros,-0,0,-0,-0,pass",
        "zeros,nan,1,0,-1,pass", "zeros,nan,1,0,-1,pass"]


def test_not_applicable_and_empty_results(tmp_path):
    results = [MonitorResult("gated", applicable=False), MonitorResult("empty"),
               _result("after", 2)]
    path = tmp_path / "monitors.csv"
    write_monitors(results, str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "gated,nan,nan,nan,nan,not_applicable"
    assert [ln.split(",")[0] for ln in lines[2:]] == ["after", "after"]
    write_monitors([], str(path))
    assert path.read_bytes() == b"monitor_id,t,lhs,rhs,margin,verdict\n"


def _peak(write, data, path) -> int:
    tracemalloc.start()
    try:
        write(data, str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("write, make", [(write_timeseries, _trajectory),
                                         (write_monitors, lambda n: [_result("m", n)])])
def test_writers_stream_in_blocks(tmp_path, write, make):
    # the text of a whole file would make the peak grow with the row count
    assert _BLOCK_ROWS < 10_000
    small = _peak(write, make(10_000), tmp_path / "small.csv")
    large = _peak(write, make(40_000), tmp_path / "large.csv")
    assert large <= 1.5 * small
