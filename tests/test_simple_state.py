import math

import numpy as np
import pytest

from minuncert import simple_state
from minuncert.simple_state import SimpleStateSolution, c1_c2, minimize_q0, q0
from minuncert.spectral import build_q_form, min_eigenpair

from oracles import (
    LAMBDA_MIN_200,
    PHI_MIN,
    Q0_MIN,
    XI_MIN,
    ansatz_coefficients,
    phi_scan_min,
    q_form_series,
    quadratic_form_value,
)


@pytest.mark.parametrize("xi", [0.1, 0.25, 0.3186740370306206, 0.5, 0.7])
def test_q0_matches_angle_scan(xi):
    # independent route: build the series state for a dense phi grid and
    # evaluate the quadratic form directly
    scanned = phi_scan_min(xi, points=4001)
    assert q0(xi) == pytest.approx(scanned, abs=5e-7)


def test_q0_negative_on_open_interval():
    for xi in (0.05, 0.2, 0.5, 0.8, 0.95):
        assert q0(xi) < 0.0


@pytest.mark.parametrize("xi", [1e-155, 1e-300, 5e-324])
def test_q0_as_xi_squared_underflows(xi):
    # the limits dilog(xi^2) / xi^2 -> 1 and log1p(-xi^2) / xi^2 -> -1
    # give C1 = 1/2 and C2 = 3, the value q0(1e-100) reaches already
    assert q0(xi) == q0(1e-100) == 3.0 - math.hypot(0.5, 3.0) == -0.04138126514910967


def test_c1_c2_positive():
    c1, c2 = c1_c2(0.4)
    assert c1 > 0.0
    assert c2 > 0.0
    # the closed minimum c2 - hypot(c1, c2) must agree
    assert q0(0.4) == pytest.approx(c2 - math.hypot(c1, c2), rel=1e-15)


def test_minimizer_frozen_location():
    sol = minimize_q0()
    assert isinstance(sol, SimpleStateSolution)
    assert sol.xi.value == pytest.approx(XI_MIN, abs=2e-8)
    assert sol.phi == pytest.approx(PHI_MIN, abs=1e-7)
    assert sol.q_value == pytest.approx(Q0_MIN, abs=1e-12)


def test_minimizer_coefficient_structure():
    sol = minimize_q0()
    c = sol.coefficients
    xi = sol.xi.value
    assert c[0] == pytest.approx(math.cos(sol.phi), rel=1e-14)
    # n c_n geometric with ratio xi from n = 1 on
    for n in range(1, len(c) - 1):
        assert (n + 1) * c[n + 1] == pytest.approx(xi * n * c[n], rel=1e-12)
    assert sum(v * v for v in c) + sol.tail_norm_sq == pytest.approx(1.0, abs=1e-13)
    assert 0.0 <= sol.tail_norm_sq < 1e-15


def test_minimizer_tail_vs_mpmath():
    # the mass beyond the kept coefficients, c_1^2 / xi^2 sum_(n>m) xi^(2n) / n^2,
    # 4.9e-19, which the dilogarithm remainder li - partial cancels to 0.0
    import mpmath as mp

    sol = minimize_q0()
    m = len(sol.coefficients) - 1
    with mp.workdps(40):
        x = mp.mpf(sol.xi.value)
        c1 = mp.mpf(sol.coefficients[1])
        ref = c1 * c1 / (x * x) * mp.nsum(lambda n: x ** (2 * n) / (n * n), [m + 1, mp.inf])
    assert sol.tail_norm_sq == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_minimizer_matches_independent_coefficients():
    sol = minimize_q0()
    ref = ansatz_coefficients(sol.xi.value, sol.phi, terms=len(sol.coefficients))
    for mine, theirs in zip(sol.coefficients, ref):
        assert mine == pytest.approx(theirs, abs=1e-13)


def test_q_value_via_quadratic_form():
    # push the reconstructed coefficients through the banded form
    sol = minimize_q0()
    order = 120
    vec = np.zeros(order)
    take = min(order, len(sol.coefficients))
    vec[:take] = sol.coefficients[:take]
    form = build_q_form(order)
    val = quadratic_form_value(form, vec)
    # the truncated state is not exactly unit; normalize the form value
    val /= float(np.dot(vec, vec))
    assert val == pytest.approx(sol.q_value, abs=1e-10)


def test_q_value_via_series_oracle():
    sol = minimize_q0()
    ref = q_form_series(np.asarray(sol.coefficients))
    norm = sum(v * v for v in sol.coefficients)
    assert ref / norm == pytest.approx(sol.q_value, abs=1e-10)


def test_ansatz_bounds_spectral_minimum():
    # the ansatz is a restriction, so its value upper-bounds the true
    # minimum and lands within 1e-4 of it
    sol = minimize_q0()
    lam = min_eigenpair(build_q_form(200)).eigenvalue
    assert lam == pytest.approx(LAMBDA_MIN_200, abs=1e-14)
    assert sol.q_value >= lam
    assert sol.q_value - lam < 1e-4


def test_q0_rejects_bad_xi():
    with pytest.raises(ValueError):
        q0(0.0)
    with pytest.raises(ValueError):
        q0(1.0)
    with pytest.raises(ValueError):
        q0(-0.5)


def test_minimizer_evaluation_count(monkeypatch):
    # the bracket-guard scan only has to see an interior minimum, and the
    # golden section never reads it: 65 scan points, about 40 golden steps
    calls = []

    def counted(xi):
        calls.append(xi)
        return q0(xi)

    monkeypatch.setattr(simple_state, "q0", counted)
    sol = minimize_q0()
    assert sol.xi.value == pytest.approx(XI_MIN, abs=2e-8)
    assert len(calls) <= 110


def test_minimizer_edge_guard_raises(monkeypatch):
    # q0 falls all the way across (0.05, 0.2), so the scan finds its
    # minimum on the bracket edge and the golden section is never started
    monkeypatch.setattr(simple_state, "_GOLDEN_BRACKET", (0.05, 0.2))
    with pytest.raises(RuntimeError, match="bracket edge"):
        minimize_q0()
