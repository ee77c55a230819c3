"""The exact-order contract of the builders.

Every builder works at exactly the requested order, with no slack order:
``build(id, n)`` has ``order == n`` and agrees with any higher-order build
over that window.  The ids cover every entry of ``BUILDER_GRAMMAR``,
including base-q^2 forms, ``q^-1`` substitutions alone and together,
``q^j`` substitutions with j > 0, and rational points.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _props
from qpairs import builders as B
from qpairs.builders import Monomial

F = Fraction

IDS = (
    "qinf",
    "E2",
    "Phi1",
    "Phi1:m=2",
    "eta:8^1,16^-2",
    "eta:1^24",
    "eta:1^240,2^-48",  # q-shift 6 lies above the low orders
    "J:-x",
    "J:-x*q:base=2",
    "C",
    "C:x=2:base=2",
    "Cstar:x=1/2:base=2",
    "rank",
    "rank:d=0:e=0",
    "rank:d=1/2:e=-1/3:x=3",
    "rank:e=q^-1:base=2",
    "rank:d=q^-1:e=q^-1:base=3",  # two j < 0 in one call: one joint shrink
    "rank:d=q:e=q^-1:base=2",
    "rank:d=q^-1:e=q:base=2",  # j > 0 beside j < 0
    "rank-lambert",
    "rank-lambert:d=1:e=2:x=-2",
    "n2v:v=1",
    "n2v:v=2:d=0:e=1/2",
    "n2v:v=1:base=2:d=1:e=q^-1",
    "n2v:v=1:d=q^-1:e=q^-1:base=3",
    "moment:k=2",
    "moment:k=4:d=1:e=1",
    "spt",
    "spt:d=q",  # j > 0 alone on a base-1 builder
    "spt-direct:d=1/2:e=2",
    "durfee:k=2",
    "durfee:k=3:d=0:e=1:x1=2:x2=3:x3=-1/2",
)

CONTRACT = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@pytest.mark.parametrize("spec", IDS)
@CONTRACT
@given(n=st.integers(0, 6), k=st.integers(1, 3))
@example(n=0, k=1)
@example(n=6, k=3)
def test_build_is_exact_at_the_requested_order(spec, n, k):
    low = B.build(spec, n)
    assert low.order == n and _props.canonical(low)
    assert low.to_json() == B.build(spec, n + k).truncate(n).to_json()


# builders called directly, without the dispatcher's final truncation
DIRECT = {
    "eta_quotient": lambda n: B.eta_quotient([(1, 240), (2, -48)], n),
    "jacobi_J": lambda n: B.jacobi_J(Monomial(F(-1), 1, (("x", 1),)), n, base=2),
    "rank_gf": lambda n: B.rank_gf(n, d=F(0), base=2),
    "rank_gf_lambert": lambda n: B.rank_gf_lambert(n, e=F(0)),
    "n2v": lambda n: B.n2v(2, n, d=F(0), e=F(0)),
    "spt_gf": lambda n: B.spt_gf(n),
    "spt_gf_direct": lambda n: B.spt_gf_direct(n, d=F(0)),
    "durfee_rhs": lambda n: B.durfee_rhs(2, n, xs=(F(2), None), e=F(0)),
    "crank_C": lambda n: B.crank_C(n, base=2),
    "phi65_lhs": lambda n: B.phi65_pair(F(3), n)[0],
    "phi65_rhs": lambda n: B.phi65_pair(F(3), n)[1],
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_builder_functions_return_the_requested_order(name):
    for n in range(7):
        s = DIRECT[name](n)
        assert s.order == n and _props.canonical(s)
