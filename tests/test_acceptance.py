"""End-to-end acceptance battery.

One test per criterion; each emits a single PASS/FAIL line through the
criterion_report fixture so the terminal log doubles as the sign-off
sheet.  Heavy profile objects are cached by the library, so later
criteria reuse the norms computed by earlier ones.
"""

import math
import time
from functools import lru_cache

import numpy as np
import scipy.special as sps

import minuncert.cli as cli
from minuncert.bipartite import (
    f_closed,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    r_closed,
    radial_rule,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from minuncert.multipartite import (
    alpha_beta_certificate,
    b_coefficients,
    g_family,
    h_family,
    z4_product,
    z6_product,
)
from minuncert.simple_state import minimize_q0
from minuncert.spectral import build_q_form, min_eigenpair

from oracles import r_series, shell_class_sums


@lru_cache(maxsize=None)
def _z4(xi: float) -> float:
    return z4_product(xi).product


@lru_cache(maxsize=None)
def _z6(xi: float) -> float:
    return z6_product(xi).product


def test_criterion_1_truncated_minimization(criterion_report):
    start = time.perf_counter()
    lam = min_eigenpair(build_q_form(200)).eigenvalue
    sol = minimize_q0()
    elapsed = time.perf_counter() - start
    ok = (
        abs(lam - (-0.04495)) < 5e-4
        and abs(lam - sol.q_value) < 1e-4
        and abs(sol.xi.value - 0.318674) < 1e-3
        and elapsed < 5.0
    )
    criterion_report(
        1, ok,
        f"lambda_min(200) = {lam:.6f}, route gap {abs(lam - sol.q_value):.2e}, "
        f"xi_min = {sol.xi.value:.6f}, {elapsed:.2f} s",
    )


def test_criterion_2_bipartite_dual_route(criterion_report):
    start = time.perf_counter()
    worst = 0.0
    for xi in (0.1, 0.3, 0.5, 0.7, 0.9):
        closed = uncertainty_product(xi, "closed_form").product
        quad = uncertainty_product(xi, "quadrature").product
        worst = max(worst, abs(closed - quad))
    series_gap = abs(r_closed(0.5) - r_series(0.5))
    pinned = abs(r_series(0.5) - (-0.27978)) < 5e-5
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and series_gap < 1e-12 and pinned and elapsed < 10.0
    criterion_report(
        2, ok,
        f"worst route gap {worst:.2e}, series gap {series_gap:.2e}, "
        f"R(0.5) = {r_series(0.5):.5f}, {elapsed:.2f} s",
    )


def test_criterion_3_infimum_approach(criterion_report):
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    products = [uncertainty_product(x).product for x in grid]
    decreasing = all(b < a for a, b in zip(products, products[1:]))
    in_window = all(0.125 < p < 0.25 for p in products)
    r_edge = r_closed(1.0 - 1e-8)
    ok = decreasing and in_window and r_edge <= -0.47
    criterion_report(
        3, ok,
        f"strictly decreasing over {len(grid)} points, all in (1/8, 1/4), "
        f"R(1 - 1e-8) = {r_edge:.4f}",
    )


def test_criterion_4_overlap(criterion_report):
    r, weight = radial_rule(0.7)
    quad = float(np.sum(weight * f_closed(0.3, r) * f_closed(0.7, r)))
    formula_gap = abs(overlap(0.3, 0.7) - quad)
    self_gap = max(abs(overlap(x, x) - 1.0) for x in (0.2, 0.5, 0.8))
    vac_gap = max(abs(overlap(x, 0.0) - fock_coeff(0, 0, x)) for x in (0.2, 0.5, 0.8))
    ok = formula_gap < 1e-12 and self_gap < 1e-10 and vac_gap < 1e-10
    criterion_report(
        4, ok,
        f"formula vs quadrature {formula_gap:.2e}, self {self_gap:.2e}, "
        f"vacuum {vac_gap:.2e}",
    )


def test_criterion_5_fock_layer(criterion_report):
    xi = 0.5
    selection_ok = True
    for n in range(13):
        for m in range(13 - n):
            c = fock_coeff(n, m, xi)
            allowed = (n % 4, m % 4) in ((0, 0), (2, 2))
            if allowed and n + m > 0 and c == 0.0:
                selection_ok = False
            if not allowed and c != 0.0:
                selection_ok = False
    defect = fock_normalization_defect(xi, 200)
    structure_gap = 0.0
    front = math.pi / (2.0 * sps.ellipk(xi * xi))
    for big_n in range(7):
        ref = front * math.comb(2 * big_n, big_n) ** 2 * (xi * xi / 16.0) ** big_n
        structure_gap = max(structure_gap, abs(shell_sum(big_n, xi) - ref))
    ints_ok = shell_identity_check(12) and all(
        sum(shell_class_sums(n)) == 2 ** (4 * n) for n in range(1, 13)
    )
    ok = selection_ok and 0.0 < defect < 1e-6 and structure_gap < 1e-15 and ints_ok
    criterion_report(
        5, ok,
        f"selection exact, defect {defect:.2e}, shell structure gap "
        f"{structure_gap:.1e}, S_N = 2^4N exact through N = 12",
    )


def test_criterion_6_combinatorial_layer(criterion_report):
    from fractions import Fraction

    start = time.perf_counter()
    tables_ok = (
        b_coefficients(1).b == (Fraction(1),)
        and b_coefficients(2).b == (Fraction(1), Fraction(2))
        and b_coefficients(3).b == (Fraction(1), Fraction(9), Fraction(9, 2))
        and b_coefficients(1).prefactor == Fraction(1, 2)
        and b_coefficients(2).prefactor == Fraction(1, 30)
        and b_coefficients(3).prefactor == Fraction(1, 560)
    )

    def operator_at(n, x):
        # P_n(x) = sum_k b_k x (x - 1) ... (x - k + 1)
        total, falling = 0, 1
        for k, bk in enumerate(b_coefficients(n).b):
            falling *= x - k
            total += bk * falling
        return total

    # P_n(j) = C(jn, n) for j = 0..n is the factorial-matrix relation that
    # b's alternating sum inverts, and its n + 1 points pin P_n
    pascal_ok = all(
        operator_at(n, j) == math.comb(j * n, n) for n in range(1, 13) for j in range(n + 1)
    )
    roots_ok = all(
        operator_at(n, Fraction(j, n)) == 0 for n in range(1, 9) for j in range(n)
    )
    elapsed = time.perf_counter() - start
    ok = tables_ok and pascal_ok and roots_ok and elapsed < 1.0
    criterion_report(
        6, ok,
        f"b-tables, factorial-matrix relation P_n(j) = C(jn, n) (n <= 12) and kernel roots "
        f"(n <= 8) all exact, {elapsed:.3f} s",
    )


def test_criterion_7_four_partite(criterion_report):
    worst_identity = 0.0
    for a in (1.5, 2.0):
        for xi in (0.3, 0.5, 0.7):
            prof = g_family(xi, a)
            lhs = (1.0 - a) * (1.0 - 2.0 * a) * prof.rk_norm(0) ** 2
            lhs += a * a * prof.rk_norm(1) ** 2
            worst_identity = max(worst_identity, abs(lhs - 1.0))
    grid = (0.5, 0.9, 0.99)
    vals = [_z4(x) for x in grid]
    monotone = vals[0] > vals[1] > vals[2]
    above = all(v > 1.0 / 30.0 for v in vals)
    below_at_edge = vals[-1] < 1.0 / 16.0
    ok = worst_identity < 1e-6 and monotone and above and below_at_edge
    criterion_report(
        7, ok,
        f"norm identity worst {worst_identity:.2e}, z4 {vals[0]:.5f} > "
        f"{vals[1]:.5f} > {vals[2]:.5f}, window (1/30, 1/16) at the edge",
    )


def test_criterion_8_six_partite(criterion_report):
    h05 = h_family(0.5)
    identity = abs(
        10.0 * h05.rk_norm(0) ** 2 + 9.0 * h05.rk_norm(1) ** 2 - 1.0
    )
    norms = [h_family(x).normalization for x in (0.9, 0.99, 0.999)]
    toward = norms[0] < norms[1] < norms[2] < 2.0 / 7.0
    cert = alpha_beta_certificate()
    grid = (0.5, 0.9, 0.99, 0.999)
    vals = [_z6(x) for x in grid]
    above = all(v > 35.0 / 4096.0 for v in vals)
    below_at_edge = vals[-1] < 1.0 / 64.0
    ok = identity < 1e-6 and toward and cert < 1e-10 and above and below_at_edge
    criterion_report(
        8, ok,
        f"h identity {identity:.2e}, ||h|| -> 2/7 monotone and bounded, "
        f"certificate {cert:.1e}, z6 edge {vals[-1]:.6f} < 1/64",
    )


def test_criterion_9_limit_approach_properties(criterion_report):
    # the xi -> 1 limits are logarithmically slow, so the acceptance is
    # monotone distance decay toward each limit plus strict bounds
    grid2 = (0.5, 0.9, 0.99, 0.999)
    d2 = [uncertainty_product(x).product - 0.125 for x in grid2]
    d4 = [_z4(x) - 1.0 / 30.0 for x in (0.5, 0.9, 0.99)]
    d6 = [_z6(x) - 35.0 / 4096.0 for x in grid2]
    dh = [2.0 / 7.0 - h_family(x).normalization for x in grid2]
    ok = all(
        all(b < a for a, b in zip(d, d[1:])) and all(v > 0.0 for v in d)
        for d in (d2, d4, d6, dh)
    )
    criterion_report(
        9, ok,
        f"distances to 1/8, 1/30, 35/4096, 2/7 all strictly decreasing and "
        f"positive (last: {d2[-1]:.2e}, {d4[-1]:.2e}, {d6[-1]:.2e}, {dh[-1]:.2e})",
    )


def test_criterion_10_verify_suite(criterion_report, tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    start = time.perf_counter()
    status = cli.main(["--command", "verify"])
    elapsed = time.perf_counter() - start
    ok = status == 0 and elapsed < 60.0
    criterion_report(10, ok, f"verify exit {status} in {elapsed:.1f} s")
