import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from minuncert.quadrature import dilation_rule
from minuncert.specfun import (
    _I0E_CROSSOVER,
    dilog,
    ellip_e,
    ellip_k,
    i0e,
    log_i0e,
)

# scipy's complete elliptic integrals take the parameter m = k^2; ours
# take the modulus k directly.


def test_elliptic_against_scipy():
    for k in (1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
        assert ellip_k(k) == pytest.approx(sps.ellipk(k * k), rel=1e-14)
        assert ellip_e(k) == pytest.approx(sps.ellipe(k * k), rel=1e-14)


def test_elliptic_endpoints():
    assert ellip_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellip_e(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellip_e(1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ellip_k(1.0)
    with pytest.raises(ValueError):
        ellip_k(-0.1)


def test_legendre_relation():
    # E(k) K'(k) + E'(k) K(k) - K(k) K'(k) = pi/2 for complementary moduli
    k = 0.6
    kc = math.sqrt(1.0 - k * k)
    lhs = (
        ellip_e(k) * ellip_k(kc)
        + ellip_e(kc) * ellip_k(k)
        - ellip_k(k) * ellip_k(kc)
    )
    assert lhs == pytest.approx(math.pi / 2, rel=1e-14)


@given(st.floats(min_value=1e-6, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_elliptic_agm_matches_scipy(k):
    assert ellip_k(k) == pytest.approx(sps.ellipk(k * k), rel=1e-12)


def test_dilog_values():
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert dilog(0.5) == pytest.approx(
        math.pi**2 / 12 - 0.5 * math.log(2.0) ** 2, rel=1e-14
    )
    for x in (0.01, 0.25, 0.49, 0.51, 0.6, 0.95):
        assert dilog(x) == pytest.approx(sps.spence(1.0 - x), rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        dilog(-0.1)
    with pytest.raises(ValueError):
        dilog(1.2)


def test_dilog_below_the_smallest_normal():
    # the series ends once a term stops adding, also below the smallest
    # normal float, where z^2 underflows; there dilog(z) = z
    assert dilog(1e-310) == 1e-310
    assert dilog(4e-308) == 4e-308
    assert dilog(5e-324) == 5e-324


def test_bessel_against_scipy():
    for x in [0.0, 0.1, 1.0, 3.7, 10.0, 25.0, 80.0, 300.0]:
        assert log_i0e(x) == pytest.approx(math.log(sps.i0e(x)), rel=1e-13, abs=1e-13)


def test_log_bessel_i0_no_overflow():
    # i0(900) overflows in direct evaluation; log i0e never forms it
    v = log_i0e(900.0)
    assert v == pytest.approx(math.log(sps.i0e(900.0)), rel=1e-12)


def test_log_i0e_at_the_largest_arguments():
    # 8 k z and 2 pi z overflow near the largest float (a warning, an
    # error in this suite); log(e^-z I0(z)) ~ -ln(2 pi z) / 2 stays finite
    import mpmath as mp

    for z in (1e300, 1e308, sys.float_info.max):
        with mp.workdps(30):
            ref = float(mp.log(mp.besseli(0, mp.mpf(z)) * mp.exp(-mp.mpf(z))))
        assert log_i0e(z) == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_i0e_against_scipy():
    # ~1e5 points on [0, 1e5], dense on both sides of the crossover z = 20
    z = np.concatenate([np.linspace(0.0, 40.0, 40001), np.geomspace(1e-9, 1e5, 60000)])
    assert _I0E_CROSSOVER == 20.0
    assert np.count_nonzero(z < 20.0) > 20000 and np.count_nonzero(z >= 20.0) > 20000
    out = i0e(z)
    ref = sps.i0e(z)
    assert np.all(np.abs(out - ref) <= 1e-14 * ref)
    assert i0e(0.0) == 1.0


def test_i0e_at_the_largest_arguments():
    # e^-z I0(z) ~ (2 pi z)^(-1/2) stays finite, with no overflow warning
    # (an error in this suite), where 2 pi z overflows
    import mpmath as mp

    for z in (1e308, 1.7976931348623157e308):
        with mp.workdps(30):
            ref = float(mp.besseli(0, mp.mpf(z)) * mp.exp(-mp.mpf(z)))
        assert i0e(z) == pytest.approx(ref, rel=1e-15, abs=0.0)


def test_i0e_elementwise():
    # each value depends on its own z alone, on arrays and on scalars
    z = np.concatenate([np.linspace(0.0, 40.0, 40001), np.geomspace(1e-9, 1e5, 60000)])
    out = i0e(z)
    pieces = np.concatenate([i0e(z[i:i + 7]) for i in range(0, z.size, 7)])
    assert np.array_equal(out, pieces)
    for i in (17, 20000, 20001, 99999):
        value = i0e(float(z[i]))
        assert isinstance(value, float) and value == out[i]
    with pytest.raises(ValueError):
        i0e(-1e-300)
    with pytest.raises(ValueError):
        i0e(np.array([1.0, -2.0]))


# The upper incomplete gamma function is the Laplace average of a pure
# exponential under the family weights mu(u) = u^(s-1):
#     x^-s Gamma(s, x) = int_1^inf u^(s-1) e^(-x u) du,
# so these tests certify ``dilation_rule``, the per-radius u-rule of every
# g_2, g_3/2 and h value, on it: at the orders of the weights (s = -1/2,
# -1/3 and -2/3 with -1/3, h's pair) and their neighbours, against mpmath.


def _laplace_atom(s, x):
    """x^-s Gamma(s, x) from the 16-point dilation rule of t = x, elementwise."""
    x = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x)
    out = np.empty(flat.size)
    for index, counts, y, w in dilation_rule(flat, 16, 4096):
        decay = np.exp((s - 1.0) * np.log1p(y) - np.repeat(flat[index], counts) * y)
        out[index] = np.add.reduceat(w * decay, np.cumsum(counts) - counts)
    out *= np.exp(-flat)
    return out if x.ndim else float(out[0])


def _laplace_gamma(s, x):
    return np.asarray(x, dtype=float) ** s * _laplace_atom(s, x)


def _gamma_ref(s, x):
    with mpmath.workdps(30):
        return float(mpmath.gammainc(s, mpmath.mpf(float(x))))


def _atom_ref(s, x):
    with mpmath.workdps(30):
        v = mpmath.mpf(float(x))
        return float(mpmath.gammainc(s, v) * v ** -s)


@pytest.mark.parametrize("s", [-0.9, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.25, 1.0, 2.5])
def test_upper_gamma(s):
    for x in (0.05, 0.4, 1.0, 1.49, 1.51, 4.0, 30.0, 200.0):
        assert _laplace_gamma(s, x) == pytest.approx(_gamma_ref(s, x), rel=5e-13, abs=1e-300)


def test_upper_gamma_array():
    x = np.array([0.1, 1.0, 7.0])
    out = _laplace_gamma(-0.5, x)
    for i, xi in enumerate(x):
        assert out[i] == pytest.approx(_gamma_ref(-0.5, xi), rel=5e-13)


def test_upper_gamma_highest_order():
    # u^4 grows across the whole decay scale of e^(-x u) at small x
    for x in np.linspace(1.5, 60.0, 118):
        assert _laplace_gamma(5.0, x) == pytest.approx(_gamma_ref(5.0, x), rel=1e-13)


@pytest.mark.parametrize("s", [-0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0])
def test_upper_gamma_kernel_orders_dense(s):
    x = np.geomspace(1.5, 400.0, 601)
    out = _laplace_gamma(s, x)
    ref = np.array([_gamma_ref(s, v) for v in x])
    assert np.all(np.abs(out - ref) <= 5e-13 * np.abs(ref))
    # each radius gets its own rule, so a value cannot depend on which
    # other radii share the pass
    atom = _laplace_atom(s, x)
    pieces = np.concatenate([_laplace_atom(s, x[i:i + 7]) for i in range(0, x.size, 7)])
    assert np.array_equal(atom, pieces)


def test_upper_gamma_underflow_returns_zero():
    # from x = 800 on Gamma(s, x) underflows for every order the weights
    # use; the rule must give 0 there, not nan from its 800 / x cutoff
    assert _laplace_gamma(-0.5, 35047705401168.223) == 0.0
    big = np.geomspace(800.0, 1e16, 20001)
    for s in (-0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0, 5.0):
        assert not np.any(_laplace_gamma(s, big))
        out = _laplace_gamma(s, np.geomspace(1.5, 800.0, 50001)[:-1])
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)


# The weight orders: a = 2, 3/2, 1 and h, then a = 3.
_TABLE_BOUNDS = [(-0.5, 1e-13), (-1.0 / 3.0, 1e-13), (0.0, 1e-13), (1.0 / 3.0, 1e-13),
                 (-2.0 / 3.0, 2e-13)]


@pytest.mark.parametrize("s", [-0.9, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0])
def test_tabulated_upper_gamma_below_series_edge_vs_mpmath(s):
    # on [0.9, 1.5) a series head and its tail cancel by up to ~200x as
    # s -> -1; the u-rule sums positive terms there and keeps every digit
    x = np.linspace(0.9, 1.5, 61)[:-1]
    ref = np.array([_gamma_ref(s, v) for v in x])
    assert np.max(np.abs(_laplace_gamma(s, x) / ref - 1.0)) <= 5e-15


@pytest.mark.parametrize("s", [-0.5, 1.0 / 3.0])
def test_tabulated_upper_gamma_panel_edges(s):
    # where the rule changes shape: its first panel [0, min(1/4, 1/(2x))]
    # turns at x = 2, and its panel count steps near x = 3200 / 4^k; the
    # values may not jump across those edges, 64 ulps either side
    counts_seen = set()
    for edge in np.concatenate(([2.0], 3200.0 / 4.0 ** np.arange(6, 13))):
        x = [edge]
        for _ in range(64):
            x = [np.nextafter(x[0], 0.0)] + x + [np.nextafter(x[-1], np.inf)]
        x = np.array(x)
        counts = np.concatenate([c for _, c, _, _ in dilation_rule(x, 16, 4096)])
        counts_seen.update(counts // 16)
        atom = _laplace_atom(s, x)
        ref = _atom_ref(s, edge)
        assert np.all(np.abs(atom - ref) <= 1e-13 * ref)
        assert np.max(np.abs(np.diff(atom))) <= 1e-13 * ref
    assert counts_seen == set(range(7, 15))
    assert _laplace_atom(s, 768.0) == 0.0


@pytest.mark.parametrize("s, rel", _TABLE_BOUNDS)
def test_scaled_upper_gamma_certified(s, rel):
    # the atom x^-s Gamma(s, x) off any grid, over [1e-9, 800]
    rng = np.random.default_rng(7)
    x = np.sort(np.concatenate([np.geomspace(1e-9, 800.0, 401), rng.uniform(1e-9, 1.5, 100),
                                rng.uniform(1.5, 768.0, 200)]))
    e = np.exp(-x)
    atom = _laplace_atom(s, x)
    ref = np.array([_atom_ref(s, v) for v in x])
    tiny = np.finfo(float).tiny
    normal = (ref >= tiny) & (e >= tiny)
    assert np.count_nonzero(normal) > 600
    assert np.all(np.abs(atom[normal] - ref[normal]) <= rel * ref[normal])
    assert np.all(atom >= 0.0)
    assert not np.any(atom[x >= 768.0])
    pieces = np.concatenate([_laplace_atom(s, x[i:i + 7]) for i in range(0, x.size, 7)])
    assert np.array_equal(atom, pieces)
    for i in (17, 500, 680):
        assert _laplace_atom(s, float(x[i])) == atom[i]

