import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from minuncert.spectral import (
    BandedSymmetricForm,
    _any_below,
    _tridiag_min_eig,
    build_q_form,
    min_eigenpair,
)

from oracles import LAMBDA_MIN_200, q_dense_min, quadratic_form_value


def test_q_form_entries():
    form = build_q_form(5)
    assert list(form.diagonal) == [0.0, 6.0, 20.0, 42.0, 72.0]
    # coupling at (n, n+1) is -(n+1)(2n+1)/2
    assert list(form.off_diagonal) == [-0.5, -3.0, -7.5, -14.0]


def test_order_validation():
    with pytest.raises(ValueError):
        build_q_form(1)


@pytest.mark.parametrize("order", [10, 11, 24, 25, 60])
def test_q_min_vs_dense(order):
    pair = min_eigenpair(build_q_form(order))
    lam_ref, v_ref = q_dense_min(order)
    assert pair.eigenvalue == pytest.approx(lam_ref, abs=1e-12)
    # same ray, both unit
    overlap = abs(float(np.dot(pair.eigenvector, v_ref)))
    assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("order", [200, 2000])
def test_q_min_vs_eigvalsh(order):
    form = build_q_form(order)
    dense = np.diag(form.diagonal) + np.diag(form.off_diagonal, 1) + np.diag(form.off_diagonal, -1)
    ref = np.linalg.eigvalsh(dense)[0]
    assert min_eigenpair(form).eigenvalue == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("order", [4000, 20000])
def test_q_min_vs_eigvalsh_tridiagonal(order):
    # LAPACK's bisection (stebz) at the benchmark's minimize-q order and
    # beyond; its default tolerance, eps times the matrix norm, would leave
    # 5e-8 at order 20000, so it bisects down to the smallest normal float
    form = build_q_form(order)
    ref = scipy.linalg.eigvalsh_tridiagonal(
        np.asarray(form.diagonal), np.asarray(form.off_diagonal), select="i",
        select_range=(0, 0), lapack_driver="stebz", tol=np.finfo(float).tiny,
    )[0]
    assert min_eigenpair(form).eigenvalue == pytest.approx(ref, abs=1e-14)


def test_large_order_stays_linear():
    # a dense copy at this order would take 3.2 GB; the inverse iteration
    # must stay O(n) in memory and still deliver a true eigenpair
    order = 20000
    form = build_q_form(order)
    tracemalloc.start()
    try:
        pair = min_eigenpair(form)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 8 * order
    v = np.asarray(pair.eigenvector)
    diag = np.asarray(form.diagonal)
    off = np.asarray(form.off_diagonal)
    mv = diag * v
    mv[:-1] += off * v[1:]
    mv[1:] += off * v[:-1]
    norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    assert np.linalg.norm(mv - pair.eigenvalue * v) <= 1e-10 * norm
    assert pair.eigenvalue == pytest.approx(min_eigenpair(build_q_form(2000)).eigenvalue, abs=1e-8)


def test_eigenvector_residual():
    form = build_q_form(80)
    pair = min_eigenpair(form)
    v = np.asarray(pair.eigenvector)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # dense reconstruction of M v
    m = np.diag(form.diagonal)
    off = form.off_diagonal
    m += np.diag(off, 1) + np.diag(off, -1)
    residual = m @ v - pair.eigenvalue * v
    # the diagonal grows like 2n(2n+1), so judge the residual against
    # the matrix scale rather than absolutely
    scale = np.max(np.abs(form.diagonal))
    assert np.linalg.norm(residual) < 1e-12 * scale


def test_quadratic_form_consistency():
    form = build_q_form(30)
    pair = min_eigenpair(form)
    val = quadratic_form_value(form, pair.eigenvector)
    assert val == pytest.approx(pair.eigenvalue, abs=1e-12)
    with pytest.raises(ValueError):
        quadratic_form_value(form, np.ones(29))


def test_rayleigh_upper_bound():
    # any unit vector's form value bounds the minimum from above
    form = build_q_form(50)
    pair = min_eigenpair(form)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(50)
        v /= np.linalg.norm(v)
        assert quadratic_form_value(form, v) >= pair.eigenvalue - 1e-12


def test_large_order_frozen_value():
    pair = min_eigenpair(build_q_form(200))
    assert pair.eigenvalue == pytest.approx(LAMBDA_MIN_200, abs=1e-13)


def test_truncation_converged_by_200():
    lam_200 = min_eigenpair(build_q_form(200)).eigenvalue
    lam_300 = min_eigenpair(build_q_form(300)).eigenvalue
    assert abs(lam_300 - lam_200) < 1e-8


def test_malformed_form_rejected():
    BandedSymmetricForm(4, np.arange(4.0), np.ones(3))
    with pytest.raises(ValueError):
        BandedSymmetricForm(4, np.arange(4.0), np.ones(2))
    with pytest.raises(ValueError):
        BandedSymmetricForm(4, np.arange(3.0), np.ones(3))


def test_form_is_tuples_of_python_floats():
    form = build_q_form(6)
    for entries in (form.diagonal, form.off_diagonal):
        assert type(entries) is tuple
        assert all(type(x) is float for x in entries)
    pair = min_eigenpair(form)
    assert type(pair.eigenvector) is tuple
    assert all(type(x) is float for x in pair.eigenvector)
    # numpy arrays are accepted and give the same pair
    arrays = BandedSymmetricForm(6, np.asarray(form.diagonal), np.asarray(form.off_diagonal))
    assert min_eigenpair(arrays) == pair


_NAN = math.nan
_INF = math.inf


@pytest.mark.parametrize("diagonal,off_diagonal", [
    ((0.0, _NAN, 2.0), (1.0, 1.0)),
    ((0.0, _INF, 2.0), (1.0, 1.0)),
    ((0.0, 1.0, 2.0), (_NAN, 1.0)),
    ((0.0, 1.0, 2.0), (1.0, -_INF)),
], ids=["nan-diagonal", "inf-diagonal", "nan-coupling", "inf-coupling"])
def test_non_finite_form_rejected(diagonal, off_diagonal):
    # once returned nan or inf as the minimal eigenvalue, with no error
    with pytest.raises(ValueError, match="finite"):
        BandedSymmetricForm(3, diagonal, off_diagonal)
    with pytest.raises(ValueError, match="finite"):
        BandedSymmetricForm(3, np.array(diagonal), np.array(off_diagonal))


def test_nan_residual_counts_as_stalled():
    # a NaN inside the diagonal leaves the Gershgorin bracket finite, so the
    # bisection converges; the residuals are NaN and must fail the stall test
    with pytest.raises(RuntimeError, match="stalled"):
        _tridiag_min_eig([0.0, _NAN, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("diag,off", [
    ([_NAN, 1.0, 2.0], [1.0, 1.0]),
    ([0.0, 1.0, 2.0], [_NAN, 1.0]),
], ids=["nan-first-pivot", "nan-coupling"])
def test_exhausted_bisection_raises(diag, off):
    # a NaN bracket never narrows, so all 200 steps run
    with pytest.raises(RuntimeError, match="bisection"):
        _tridiag_min_eig(diag, off)


def test_overflowing_bounds_raise():
    # finite entries, but diagonal + radius overflows
    form = BandedSymmetricForm(3, (0.0, 1e308, 1.7e308), (1e308, 1e308))
    with pytest.raises(OverflowError):
        min_eigenpair(form)


def test_any_below_matches_eigvalsh():
    # the early-exit Sturm test against a dense solver, on random
    # tridiagonal matrices and shifts on both sides of the minimum
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        diag = 10.0 * rng.standard_normal(n)
        off = rng.standard_normal(n - 1)
        lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        squares = (off * off).tolist()
        pivmin = 1e-30 * max(1.0, max(squares))
        shifts = np.concatenate((rng.uniform(lam[0] - 5.0, lam[-1] + 5.0, 10),
                                 lam[0] + np.array([-1e-6, 1e-6])))
        for x in shifts:
            assert _any_below(diag.tolist(), squares, float(x), pivmin) == (lam[0] < x)
