import pytest

import _verdicts
from qpairs import series


def pytest_terminal_summary(terminalreporter):
    if _verdicts.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def int_kernel(monkeypatch):
    """Wrap ``series._recur`` for one test and count the values it reads (start and source
    maps, step coefficients) or returns that are not ints, the keys and key shifts that are
    not ints, and the zero values in the maps it returns.  Yields the counts; the test fails
    unless ``_recur`` ran and the other counts are 0."""
    seen = {"calls": 0, "non_int": 0, "non_int_key": 0, "zeros": 0}
    real = series._recur

    def recur(start, steps, src, lo, order):
        out = real(start, steps, src, lo, order)
        values, keys = [b for _, _, b in steps], [w for _, w, _ in steps]
        for maps in (start, src or {}, out):
            for t in maps.values():
                values.extend(t.values())
                keys.extend(t)
        seen["calls"] += 1
        seen["non_int"] += sum(type(v) is not int for v in values)
        seen["non_int_key"] += sum(type(k) is not int for k in keys)
        seen["zeros"] += sum(v == 0 for t in out.values() for v in t.values())
        return out

    monkeypatch.setattr(series, "_recur", recur)
    yield seen
    assert seen["calls"] and not seen["non_int"] and not seen["non_int_key"] and not seen["zeros"], seen
