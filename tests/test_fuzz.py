"""Malformed input fails cleanly: hypothesis over series files, builder ids and
``qpairs coeffs``.

A series file and a builder id may raise only ``AlgebraError`` (of which
``TruncationError`` is a kind); the CLI exits 0, or 2 with one line on
stderr.  The draws are derandomized and small, so the run is fixed and short.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpairs import AlgebraError, QSeries
from qpairs import builders as B
from qpairs.cli import main

FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)
INF = float("inf")

SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
JSON = st.recursive(SCALARS,
                    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                    max_leaves=10)
NAMES = st.sampled_from(["d", "e", "x"])
RATIONALS = st.sampled_from(["1/1", "-3/2", "0", "2", "1/0", "a", "1/2", "-1"])
TERM = st.lists(st.lists(st.integers(-3, 3) | SCALARS, max_size=3) | SCALARS, min_size=2, max_size=2).map(
    lambda t: [t[0], t[1]]) | st.tuples(st.lists(st.integers(-2, 2), max_size=3), RATIONALS).map(list)
SERIES = st.fixed_dictionaries(
    {
        "params": st.lists(NAMES, max_size=3) | JSON,
        "order": st.integers(-2, 8) | JSON,
        "coeffs": st.dictionaries(st.integers(-2, 9).map(str) | st.text(max_size=3),
                                  st.lists(TERM, max_size=3) | JSON, max_size=3) | JSON,
    },
    optional={"bounds": st.dictionaries(NAMES | st.text(max_size=2), RATIONALS | SCALARS, max_size=2) | JSON},
)


@FUZZ
@given(obj=SERIES | JSON)
# each raised OverflowError or TypeError before the file reader checked for them
@example(obj={"params": [], "order": 1, "coeffs": {"0": [[[], INF]]}})
@example(obj={"params": ["e"], "order": 1, "coeffs": {}, "bounds": {"e": -INF}})
@example(obj={"params": [], "order": 1, "coeffs": {"0": 5}})
def test_series_file_loads_or_raises_algebra_error(obj):
    try:
        s = QSeries.from_json(json.dumps(obj))
    except AlgebraError:
        return
    assert QSeries.from_json(s.to_json()) == s


@FUZZ
@given(text=st.text(max_size=20))
def test_series_text_that_is_not_json_raises_algebra_error(text):
    try:
        QSeries.from_json(text)
    except AlgebraError:
        pass


VALUES = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-2/3", "1/0", "q", "q^-1", "2*q^-1",
                          "q^-2", "-q^2", "0*q^-1", "2*q^0", "-1/2*q^0", "x", "d*q", "abc", "", "q^", "1/", "x^-1*q"])
POSITIONAL = st.sampled_from(["1^24", "8^1,16^-2", "1^a", "0^1", "-1^2", "1^24,2", "1^1,1^-1",
                              "x", "-x", "-x*q", "q^-1", "1/0*x", "", "1^25"])
SEGMENT = (st.tuples(st.sampled_from(["d", "e", "x", "base", "v", "k", "m", "x1", "x2", "x3", "y"]), VALUES)
           .map("=".join) | POSITIONAL)
IDS = st.tuples(st.sampled_from(sorted(B._BUILDER_KEYS) + ["bogus", ""]), st.lists(SEGMENT, max_size=3)).map(
    lambda t: ":".join([t[0], *t[1]]))


@settings(FUZZ, max_examples=120)
@given(spec=IDS, order=st.integers(0, 4))
# each raised a bare ValueError from int()
@example(spec="C:base=1/2", order=0)
@example(spec="n2v:v=abc", order=0)
@example(spec="eta:1^a", order=0)
def test_build_succeeds_at_its_order_or_raises_algebra_error(spec, order):
    try:
        s = B.build(spec, order)
    except AlgebraError:
        return
    assert s.order == order


@settings(FUZZ, max_examples=60)
@given(spec=IDS, order=st.integers(0, 4), fmt=st.sampled_from(["json", "csv", "text"]))
def test_coeffs_exits_0_or_2_with_one_line(spec, order, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["coeffs", spec, "--order", str(order), "--format", fmt])
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2 and len(err.getvalue().splitlines()) == 1, err.getvalue()
