"""The acceptance battery: one test per criterion, each printing its verdict.

Run with -s to see the per-criterion lines; verify-all on the CLI renders the
same checks into report files.
"""

import hashlib

import numpy as np
import pytest

from smallball import acceptance, bounds, oracles, prg
from smallball.bounds import load_constants, write_bound_reports
from smallball.chains import (
    make_two_state_chain,
    make_weight_system,
    parity_labels,
    repeated_signs,
)
from smallball.cli import main
from smallball.families import DEFAULT_SEED
from smallball.fitting import esseen_formula
from smallball.transfer import exact_sum_distribution


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


def test_criterion_06_cosine_scaling():
    result = acceptance.criterion_6()
    assert result.elapsed < 30.0
    assert result.details["closed_form_deviation"] <= bounds.QUAD_TOL
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


def test_criterion_11_coordinate_tail():
    result = acceptance.criterion_11()
    assert result.details["worst_tail"] >= 0.5
    assert result.details["d3_deviation"] <= 1e-10
    assert result.details["closed_form_deviation"] <= 1e-10
    _report(result)


def test_criterion_12_esseen_and_mod_p(committed):
    result = acceptance.criterion_12(committed)
    _report(result)


# sha256 of the rendered criteria 1-12 and of each bound report verify-all
# writes beside it; any change to a byte of them fails here
REPORT_DIGEST = "4225c2e753f25623dee426aa779ecfa3d94e6164044d03b38df9419a385e353b"
BOUND_REPORT_DIGESTS = {
    3: "4a3358dd01aaf471f45216463808c62733b0c39ef8bea92e3914d91c585593b1",
    4: "26484d45c59bbdd14547eec81c04faa8d88d1e0949cbec4e7e0e2bbe98489711",
    9: "7af186a4802e9cca8a5ba22fbad5afe1dec9b84c0f41747d2efc159754d09d83",
    12: "a40458c66df18a3dc566bbedc3d3134f918cd3602126fd072bf7053586d5995d",
}


def test_criterion_13_determinism_and_runtime(committed, tmp_path):
    first = acceptance.run_criteria(DEFAULT_SEED, committed)
    result = acceptance.criterion_13(first, DEFAULT_SEED, committed)
    assert result.details == {"byte_identical": True, "under_time_budget": True}
    _report(result)

    report = acceptance.render_report(first, DEFAULT_SEED).encode()
    assert hashlib.sha256(report).hexdigest() == REPORT_DIGEST
    digests = {}
    for r in first:
        if r.bound_reports:
            path = tmp_path / f"criterion_{r.cid:02d}_bounds.csv"
            write_bound_reports(path, r.bound_reports)
            digests[r.cid] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == BOUND_REPORT_DIGESTS


def test_constants_are_read_through_their_home_module(monkeypatch, tmp_path, capsys):
    """Assigning a constant's home attribute moves every reader in another module."""
    monkeypatch.setattr(acceptance, "HOLDER_COUNT", 2)
    monkeypatch.setattr(acceptance, "IDENTITY_COUNT", 2)
    monkeypatch.setattr(oracles, "IDENTITY_TOL", -1.0)  # no identity can pass
    monkeypatch.setattr(oracles, "SWITCHING_N_BUDGET", 4)  # n = 2..4, 11 lambdas each
    result = acceptance.criterion_7(DEFAULT_SEED)
    assert not result.passed
    assert result.details["holder_instances"] == result.details["identity_instances"] == 2
    assert acceptance.criterion_8().details["grid_points"] == 33

    monkeypatch.setattr(prg, "CERTIFY_BUDGET", 15)  # below the 16 vertices of k = 4
    assert main(["prg-build", "--k", "4", "--out", str(tmp_path / "g.json")]) == 0
    assert "lambda uncertified" in capsys.readouterr().out

    chain = make_two_state_chain(0.3)
    signs = repeated_signs(parity_labels(2), 6, chain.stationary)
    weights = make_weight_system(np.arange(1.0, 7.0))
    dist = exact_sum_distribution(chain, signs, weights)
    tight = esseen_formula(chain, signs, weights, dist, 1.0, 1.0)
    monkeypatch.setattr(bounds, "QUAD_TOL", 1.0)
    assert esseen_formula(chain, signs, weights, dist, 1.0, 1.0) != tight
