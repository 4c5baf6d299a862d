"""Unit tests for the :meth:`RefResult.check_invariants` structural checks.

Every classifier feeds the same result containers, so a mis-counting
classifier must be caught at the container level: the outcome
tallies have to sum to the analysed count, and an exhaustive solve has to
analyse the whole population.
"""

import pytest

from repro.cme import RefResult
from repro.errors import AnalysisError, InvariantError, ReproError


def _result(**kw):
    base = dict(
        ref_name="A(I1)", ref_uid=1, population=10,
        analysed=10, cold=2, replacement=3, hits=5,
    )
    base.update(kw)
    return RefResult(**base)


def test_consistent_tallies_pass_and_chain():
    r = _result()
    assert r.check_invariants() is r
    assert r.check_invariants(exhaustive=True) is r


def test_tally_sum_mismatch_raises():
    with pytest.raises(InvariantError, match="!= analysed"):
        _result(hits=4).check_invariants()


def test_partial_analysis_passes_unless_exhaustive():
    r = _result(analysed=6, cold=1, replacement=2, hits=3)
    assert r.check_invariants() is r
    with pytest.raises(InvariantError, match="analysed 6 of 10"):
        r.check_invariants(exhaustive=True)


def test_invariant_error_is_an_analysis_error():
    # Callers catching the repo's error hierarchy must see classifier
    # mis-counts too.
    assert issubclass(InvariantError, AnalysisError)
    assert issubclass(InvariantError, ReproError)
