"""The verification battery of ``minuncert --command verify``.

Each check is a thunk returning (value, reference, tolerance, passed);
``passed`` None means |value - reference| <= tolerance.  A check that
raises fails with its message on stderr instead of stopping the
battery.  The command loads this module only when it runs the battery.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache

from . import bipartite, multipartite
from .bipartite import (
    _f_i0e,
    _norm_sq,
    f_closed,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    radial_rule,
    residual_norm_sq,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from .multipartite import Poles, z4_product, z6_product
from .simple_state import minimize_q0
from .spectral import build_q_form, min_eigenpair

__all__ = ["run_battery"]


def _run_checks(checks):
    rows = []
    for name, thunk in checks:
        try:
            value, reference, tol, passed = thunk()
            if passed is None:
                passed = abs(value - reference) <= tol
        except Exception as exc:
            print(f"verify: {name}: {exc}", file=sys.stderr)
            value, reference, tol, passed = float("nan"), float("nan"), 0.0, False
        rows.append([name, float(value), float(reference), float(tol), bool(passed)])
    return rows, all(row[4] for row in rows)


def _b_table_mismatches() -> int:
    expected = {1: ((1,), Fraction(1, 2)), 2: ((1, 2), Fraction(1, 30)),
                3: ((1, 9, Fraction(9, 2)), Fraction(1, 560))}
    return sum(tuple(multipartite.b_coefficients(n)) != ops for n, ops in expected.items())


def _operator_at(n: int, x):
    """P_n(x) = sum_k b_k x (x - 1) ... (x - k + 1) of the b table, exactly."""
    total, falling = 0, 1
    for k, bk in enumerate(multipartite.b_coefficients(n).b):
        falling *= x - k
        total += bk * falling
    return total


def _fock_selection_leak() -> float:
    return max(abs(fock_coeff(n, m, 0.5)) for n in range(11) for m in range(11 - n)
               if (n % 4, m % 4) not in ((0, 0), (2, 2)))


def _shell_structure_error() -> float:
    # the shell identity: the closed shell sum against the squared
    # coefficients it sums, so a wrong coefficient on a shell shows
    return max(abs(shell_sum(big_n, 0.5) - math.fsum(
        fock_coeff(n, 4 * big_n - n, 0.5) ** 2 for n in range(4 * big_n + 1)))
        for big_n in range(0, 7))


# the quadrature rows sum on radial_rule's floats, with f in closed form as
# C i0e(beta r) e^(-gamma0 r) and r f' as -C r e^(-gamma0 r) (beta d + gamma0 i0e),
# both read from route B's mesh; one angular pass of f's definition checks f_closed
# and the mesh's r f' at a few radii (f_route_agreement, rf_route_agreement)


def _residual_route_gap() -> float:
    # ||f/2 + r f'||^2 of the mesh's closed f and r f' on radial_rule(0.7)
    # against the closed form in K and E
    mesh = bipartite._radial_mesh(0.7, bipartite._ANGULAR_ORDER)
    quad = _norm_sq(mesh.weight, [0.5 * a + b for a, b in zip(mesh.f, mesh.rf)])
    return abs(quad - residual_norm_sq(0.7))


def _angular_pass():
    # f's definition at every 32nd radius of radial_rule(0.5) (13): radii, f, r f'
    radii = radial_rule(0.5)[0][::32]
    return (radii, *bipartite._angular_kernel_integral(0.5, radii, bipartite._ANGULAR_ORDER))


def _f_route_gap(radii, f) -> float:
    # f_closed on its float path; beta r spans both branches of log_i0e
    return max(abs(f_closed(0.5, radius) - a) for radius, a in zip(radii, f))


def _rf_route_gap(rf) -> float:
    # the mesh's closed r f' against the angular pass, relative to the column's maximum
    mesh = bipartite._radial_mesh(0.5, bipartite._ANGULAR_ORDER)
    return max(abs(a - b) for a, b in zip(mesh.rf[::32], rf)) / max(map(abs, mesh.rf))


def _f_norm_on_rule() -> float:
    # ||f||^2 of the mesh's f (C is proportional to 1 / sqrt(K)) on radial_rule(0.7)
    mesh = bipartite._radial_mesh(0.7, bipartite._ANGULAR_ORDER)
    return _norm_sq(mesh.weight, mesh.f)


def _overlap_route_gap() -> float:
    # radial_rule of the larger xi spans both profiles' scales
    mesh = bipartite._radial_mesh(0.7, bipartite._ANGULAR_ORDER)
    quad = math.fsum(w * a * b for w, a, b in zip(mesh.weight, _f_i0e(0.3, mesh.r), mesh.f))
    return abs(quad - overlap(0.3, 0.7))


def _vacuum_route_gap() -> float:
    # <f, vacuum> / ||f|| on radial_rule(0.5), the vacuum's profile e^(-r/2),
    # against c(0, 0) = sqrt(pi / (2K)); the rule's own ||f|| takes K out of
    # the quadrature side, so an error in K does not cancel
    mesh = bipartite._radial_mesh(0.5, bipartite._ANGULAR_ORDER)
    quad = math.fsum(w * a * math.exp(-0.5 * x) for w, a, x in zip(mesh.weight, mesh.f, mesh.r))
    return abs(quad / math.sqrt(_norm_sq(mesh.weight, mesh.f)) - fock_coeff(0, 0, 0.5))


def _identity_gap(key) -> float:
    # <Dv, v> = -||v||^2 / 2 gives ||Dv||^2 + a (1 + a) ||v||^2 = ||(D - a) v||^2,
    # a = k/n, for every family v; its relative gap on route B's rows at xi = 0.5
    weight = radial_rule(0.5)[1]
    v, sibling = multipartite._rule_rows(0.5, key)
    a = key.k / key.n
    dv2, v2, s2 = (_norm_sq(weight, row)
                   for row in ([a * y + s for y, s in zip(v, sibling)], v, sibling))
    return abs(dv2 + a * (1.0 + a) * v2 - s2) / s2


def run_battery(order: int):
    """The rows (check, value, reference, tolerance, passed) and whether all passed.

    ``order`` is the order of the quadratic form of the eigen route.  The
    solution, the eigenpair and f's angular pass are each built once, inside
    the first check that reads them, so a layer that raises turns only the
    rows that read it red.
    """
    sol = cache(minimize_q0)
    pair = cache(lambda: min_eigenpair(build_q_form(order)))
    angular = cache(_angular_pass)

    def above_infimum(report):
        return report.product, report.infimum, 0.0, report.product > report.infimum

    def below_bound(report):
        return (report.product, report.separable_bound, 0.0,
                report.product < report.separable_bound)

    checks = [
        ("q_min_eigenvalue", lambda: (pair().eigenvalue, -0.04495, 5e-4, None)),
        ("q_min_route_agreement",
         lambda: (abs(pair().eigenvalue - sol().q_value), 0.0, 1e-4, None)),
        ("xi_min", lambda: (sol().xi.value, 0.318674, 1e-3, None)),
        ("simple_state_product", lambda: (0.25 + sol().q_value, 0.20505, 1e-3, None)),
        ("simple_state_violation",
         lambda: (0.25 / (0.25 + sol().q_value), 1.2192, 1e-3, None)),
        ("b_coefficients", lambda: (float(_b_table_mismatches()), 0.0, 0.0, None)),
        # P_n(j) = C(jn, n) at the n + 1 points j = 0..n, the factorial-matrix
        # relation that b's alternating sum inverts, pins the degree-n P_n to
        # (n^n / n!) prod_(j<n) (x - j/n); its roots j/n are the families' poles
        ("pascal_inverse",
         lambda: (float(sum(_operator_at(n, j) != math.comb(j * n, n)
                            for n in range(1, 13) for j in range(n + 1))), 0.0, 0.0, None)),
        ("pochhammer_roots",
         lambda: (float(max(abs(_operator_at(n, Fraction(j, n)))
                            for n in range(1, 9) for j in range(n))), 0.0, 0.0, None)),
        ("shell_identity_check",
         lambda: (float(shell_identity_check(12)), 1.0, 0.0, None)),
        ("bipartite_product",
         lambda: (uncertainty_product(0.5).product, 0.18006, 1e-4, None)),
        ("bipartite_route_agreement",
         lambda: (abs(uncertainty_product(0.5).product
                      - uncertainty_product(0.5, "quadrature").product),
                  0.0, 1e-12, None)),
        ("f_route_agreement", lambda: (_f_route_gap(*angular()[:2]), 0.0, 1e-10, None)),
        ("residual_route_agreement",
         lambda: (_residual_route_gap(), 0.0, 1e-7, None)),
        ("rf_route_agreement", lambda: (_rf_route_gap(angular()[2]), 0.0, 1e-14, None)),
        ("f_norm_rule", lambda: (_f_norm_on_rule(), 1.0, 1e-14, None)),
        ("overlap_identity", lambda: (overlap(0.3, 0.3), 1.0, 1e-10, None)),
        ("overlap_vacuum", lambda: (_vacuum_route_gap(), 0.0, 1e-10, None)),
        ("overlap_route_agreement",
         lambda: (_overlap_route_gap(), 0.0, 1e-8, None)),
        ("fock_selection", lambda: (_fock_selection_leak(), 0.0, 0.0, None)),
        ("fock_defect",
         lambda: (fock_normalization_defect(0.5, 200), 0.0, 1e-6, None)),
        ("shell_sum_structure", lambda: (_shell_structure_error(), 0.0, 1e-12, None)),
        # one identity of every family, keyed by its roots: g_2, g_3/2 and h
        ("g_identity_a2", lambda: (_identity_gap(Poles(2, 1)), 0.0, 1e-12, None)),
        ("g_identity_a32", lambda: (_identity_gap(Poles(3, 1)), 0.0, 1e-12, None)),
        ("h_identity", lambda: (_identity_gap(Poles(3, 2)), 0.0, 1e-12, None)),
        ("z4_above_infimum", lambda: above_infimum(z4_product(0.5))),
        ("z4_below_bound", lambda: below_bound(z4_product(0.5))),
        # the *_shortcut_agreement rows: route A (the Mellin norms of the
        # products) against route B (the nested functional_z)
        ("z4_shortcut_agreement",
         lambda: (abs(z4_product(0.5).product - multipartite.functional_z(2, 0.5)),
                  0.0, 1e-12, None)),
        ("z6_above_infimum", lambda: above_infimum(z6_product(0.5))),
        ("z6_below_bound", lambda: below_bound(z6_product(0.5))),
        ("z6_shortcut_agreement",
         lambda: (abs(z6_product(0.5).product - multipartite.functional_z(3, 0.5)),
                  0.0, 1e-12, None)),
        ("alpha_beta_certificate",
         lambda: (multipartite.alpha_beta_certificate(), 0.0, 1e-10, None)),
    ]

    return _run_checks(checks)
