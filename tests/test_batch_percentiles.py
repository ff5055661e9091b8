"""Property tests: ``BatchResult.percentile`` vs a naive nearest-rank oracle.

The docstring contract is the nearest-rank definition: for ``n``
observations and ``0 < q <= 100``, the percentile is the value at rank
``max(1, ceil(q * n / 100))`` of the sorted disparities (``q = 0``
gives the minimum, the empty batch reports 0, and ties occupy one rank
each — never interpolated).  The oracle below restates that definition
as literally as possible — count-up-from-the-bottom over the sorted
list with exact ``Fraction`` arithmetic — so the production
implementation cannot share a bug with it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.task import ModelError
from repro.sim.batch import BatchResult


def _naive_nearest_rank(values, q):
    """Smallest sorted value whose rank covers the ``q``-th percentile."""
    if not values:
        return 0
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    n = len(ordered)
    for rank in range(1, n + 1):
        # rank/n is the fraction of observations at or below this value.
        if Fraction(rank, n) >= Fraction(q) / 100:
            return ordered[rank - 1]
    return ordered[-1]


def _result(values):
    return BatchResult(
        task="t",
        disparities=tuple(values),
        engine="columnar",
        compile_s=0.0,
        run_s=0.0,
    )


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=50), max_size=30),
    q=st.one_of(
        st.integers(min_value=0, max_value=100),
        st.fractions(min_value=0, max_value=100),
        st.floats(
            min_value=0, max_value=100, allow_nan=False, allow_infinity=False
        ),
    ),
)
def test_percentile_matches_naive_nearest_rank(values, q):
    """Any q in [0, 100] (int, Fraction or float) matches the oracle.

    Small max_value forces ties; max_size=30 with q near rank
    boundaries exercises the ceil edge (the old ``int(q * n)``
    truncation bug lived exactly there, at non-integer q).
    """
    assert _result(values).percentile(q) == _naive_nearest_rank(values, q)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=30
    )
)
def test_percentile_endpoints_and_monotonicity(values):
    result = _result(values)
    assert result.percentile(0) == min(values)
    assert result.percentile(100) == max(values)
    samples = [result.percentile(q) for q in range(0, 101, 5)]
    assert samples == sorted(samples)
    assert set(samples) <= set(values)


def test_percentile_ties_occupy_one_rank_each():
    # Five observations, three tied at 7: p20 is the single 1, and the
    # tied value answers every q in (20, 80].
    result = _result([7, 1, 7, 7, 9])
    assert result.percentile(20) == 1
    assert result.percentile(21) == 7
    assert result.percentile(80) == 7
    assert result.percentile(81) == 9


def test_percentile_fractional_q_rounds_up_to_next_rank():
    # n = 5: ranks change at exact multiples of 20.  q = 20.0 still
    # maps to rank 1; any epsilon above needs rank 2 (this is where
    # truncating q before the ceil-division went wrong).
    result = _result([10, 20, 30, 40, 50])
    assert result.percentile(20) == 10
    assert result.percentile(20.1) == 20
    assert result.percentile(Fraction(201, 10)) == 20
    assert result.percentile(40.00001) == 30


def test_percentile_empty_and_out_of_range():
    empty = _result([])
    assert empty.percentile(0) == 0
    assert empty.percentile(50) == 0
    assert empty.percentile(100) == 0
    loaded = _result([1, 2])
    for bad in (-1, 100.5, 101):
        with pytest.raises(ModelError):
            loaded.percentile(bad)


def test_percentiles_summary_uses_same_ranks():
    result = _result(list(range(1, 101)))
    assert result.percentiles() == {
        "p50": 50,
        "p90": 90,
        "p99": 99,
        "max": 100,
    }
