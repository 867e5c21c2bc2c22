"""The acceptance battery: one test per criterion, each printing its verdict.

Run with -s to see the per-criterion lines; verify-all on the CLI renders the
same checks into report files.
"""

import pytest

from smallball import acceptance
from smallball.bounds import load_constants
from smallball.families import DEFAULT_SEED


@pytest.fixture(scope="module")
def committed():
    return load_constants()


def _report(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_oracle_equivalence():
    result = acceptance.criterion_1(DEFAULT_SEED)
    assert result.elapsed < 30.0
    _report(result)


def test_criterion_02_extremal_point_mass():
    _report(acceptance.criterion_2())


def test_criterion_03_window_bound_and_refit(committed):
    result = acceptance.criterion_3(committed, DEFAULT_SEED)
    assert result.elapsed < 60.0
    assert result.details["refit_drift"] < 0.05
    _report(result)


def test_criterion_04_distinct_integer_scaling(committed):
    result = acceptance.criterion_4(committed)
    assert result.elapsed < 60.0
    assert -1.7 <= result.details["slope"] <= -1.3
    _report(result)


def test_criterion_05_negative_moment_grid():
    result = acceptance.criterion_5()
    assert result.elapsed < 5.0
    _report(result)


def test_criterion_06_cosine_scaling(committed):
    result = acceptance.criterion_6(committed)
    assert result.elapsed < 30.0
    _report(result)


def test_criterion_07_splitting_and_identities():
    result = acceptance.criterion_7(DEFAULT_SEED)
    assert result.elapsed < 60.0
    assert result.details["worst_lhs_minus_rhs"] <= 1e-9
    _report(result)


def test_criterion_08_switching_domination():
    result = acceptance.criterion_8()
    assert result.elapsed < 30.0
    _report(result)


def test_criterion_09_prg(committed):
    result = acceptance.criterion_9(committed)
    assert result.elapsed < 60.0
    assert result.details["mgg_k4_lambda"] < 0.884
    _report(result)


def test_criterion_10_tightness():
    result = acceptance.criterion_10()
    assert result.elapsed < 60.0
    for slope in result.details["slopes"].values():
        assert -0.55 <= slope <= -0.45
    _report(result)


def test_criterion_11_coordinate_tail(committed):
    result = acceptance.criterion_11(committed)
    assert result.details["worst_tail"] >= 0.5
    assert result.details["d3_deviation"] <= 1e-10
    _report(result)


def test_criterion_12_esseen_and_mod_p(committed):
    result = acceptance.criterion_12(committed)
    _report(result)


def test_criterion_13_determinism_and_runtime(committed):
    first = acceptance.run_criteria(DEFAULT_SEED, committed)
    result = acceptance.criterion_13(first, DEFAULT_SEED, committed)
    assert result.details == {"byte_identical": True, "under_time_budget": True}
    _report(result)
