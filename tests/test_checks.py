import numpy as np

from latfit.checks import FAIL, PASS, SKIP, CheckReport, CheckResult, run_checks
from latfit.core_model import Configuration, ModelParams

from conftest import exact_lattice


def statuses(report):
    return {r.name: r.status for r in report.results}


def test_skip_alone_keeps_the_report_ok():
    report = CheckReport((CheckResult("a", PASS, ""), CheckResult("b", SKIP, "skipped (x)")))
    assert report.ok
    assert report.lines() == ["[PASS] a: ", "[SKIP] b: skipped (x)"]


def test_skip_does_not_hide_a_failure():
    report = CheckReport((CheckResult("a", FAIL, ""), CheckResult("b", SKIP, "")))
    assert not report.ok


def test_small_domain_skips_grid_and_chain_checks():
    # 3x3 box: too small for a lam/4 grid of 3 nodes; 2 samples are too few for a chain
    params = ModelParams(d=2, lam=8.0, s0=0.5)
    chi = exact_lattice(np.eye(2), np.array([0.2, 0.6]), params.lam, box_size=3.0)
    report = run_checks(chi, params, n_samples=2)
    got = statuses(report)
    assert got["grid_checks"] == SKIP
    assert got["chain_drift"] == SKIP
    # no step between two regular sample fits is tested here: nothing passed
    assert got["jump_bounds"] == SKIP
    assert got["triangle_identity"] == SKIP
    assert FAIL not in got.values()
    assert report.ok
    assert "[SKIP] grid_checks: skipped (domain too small for a grid)" in report.lines()

    # the same run with two atoms closer than s0 fails, skips and all
    pts = np.vstack([chi.positions, chi.positions[:1] + [0.1, 0.0]])
    crowded = Configuration(pts, chi.domain.contains(pts), chi.domain, params.lam)
    report = run_checks(crowded, params, n_samples=2)
    got = statuses(report)
    assert got["hardcore"] == FAIL
    assert got["grid_checks"] == SKIP and got["chain_drift"] == SKIP
    assert not report.ok
