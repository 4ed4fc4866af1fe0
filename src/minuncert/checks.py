"""The verification battery of ``minuncert --command verify``.

Each check is a thunk returning (value, reference, tolerance, passed);
``passed`` None means |value - reference| <= tolerance.  A check that
raises fails with its message on stderr instead of stopping the
battery.  The command loads this module only when it runs the battery.
"""

from __future__ import annotations

import math
import sys

from . import multipartite
from ._lazy import np
from .bipartite import (
    f_closed,
    f_profile,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    radial_rule,
    residual_norm_sq,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from .multipartite import g_family, h_family, z4_product, z6_product
from .simple_state import minimize_q0
from .specfun import binom, ellip_k
from .spectral import build_q_form, min_eigenpair

__all__ = ["run_battery"]


def _run_checks(checks):
    rows = []
    all_ok = True
    for name, thunk in checks:
        try:
            value, reference, tol, passed = thunk()
            if passed is None:
                passed = abs(value - reference) <= tol
        except Exception as exc:
            print(f"verify: {name}: {exc}", file=sys.stderr)
            value, reference, tol, passed = float("nan"), float("nan"), 0.0, False
        if not passed:
            all_ok = False
        rows.append([name, float(value), float(reference), float(tol), bool(passed)])
    return rows, all_ok


def _b_table_mismatches() -> int:
    from fractions import Fraction

    expected = {
        1: ((Fraction(1),), Fraction(1, 2)),
        2: ((Fraction(1), Fraction(2)), Fraction(1, 30)),
        3: ((Fraction(1), Fraction(9), Fraction(9, 2)), Fraction(1, 560)),
    }
    bad = 0
    for n, (table, prefactor) in expected.items():
        ops = multipartite.b_coefficients(n)
        if tuple(ops.b) != table or ops.prefactor != prefactor:
            bad += 1
    return bad


# a common denominator of every entry of the pairs up to n = 12, whose
# entries are +-1/(i - j)!
_PASCAL_SCALE = math.factorial(11)


def _pair_mismatches(fwd, inv) -> int:
    """Entries of fwd @ inv that differ from the identity, checked on integers.

    Every entry is scaled by ``_PASCAL_SCALE``; an entry that does not
    scale to an integer counts as a mismatch itself.  The scaled product
    must then equal _PASCAL_SCALE^2 times the identity.
    """
    from fractions import Fraction

    bad = 0
    scaled = []
    for matrix in (fwd, inv):
        rows = []
        for row in matrix:
            out = []
            for v in row:
                v = Fraction(v)
                num, rem = divmod(v.numerator * _PASCAL_SCALE, v.denominator)
                bad += rem != 0
                out.append(num)
            rows.append(out)
        scaled.append(rows)
    a, b = scaled
    n = len(a)
    one = _PASCAL_SCALE * _PASCAL_SCALE
    for i in range(n):
        for j in range(n):
            acc = sum(a[i][k] * b[k][j] for k in range(n))
            bad += acc != (one if i == j else 0)
    return bad


def _pascal_mismatches() -> int:
    return sum(_pair_mismatches(*multipartite.pascal_matrix_pair(n)) for n in range(1, 13))


def _pochhammer_worst() -> float:
    from fractions import Fraction

    worst = Fraction(0)
    for n in range(1, 9):
        for j in range(n):
            res = abs(multipartite.pochhammer_root_residual(n, j))
            if res > worst:
                worst = res
    return float(worst)


def _fock_selection_leak() -> float:
    leak = 0.0
    for n in range(0, 11):
        for m in range(0, 11 - n):
            if n % 4 == m % 4 and n % 4 in (0, 2):
                continue
            leak = max(leak, abs(fock_coeff(n, m, 0.5)))
    return leak


def _shell_structure_error() -> float:
    v = 0.5
    kv = ellip_k(v)
    worst = 0.0
    for big_n in range(0, 7):
        closed = (math.pi / (2.0 * kv)) * binom(2 * big_n, big_n) ** 2 * (
            v * v / 16.0
        ) ** big_n
        worst = max(worst, abs(shell_sum(big_n, v) - closed))
    return worst


def _residual_route_gap() -> float:
    # the unit-norm f on radial_rule(0.7) against the closed form
    quad = f_profile(0.7).combo_norm((0.5, 1.0)) ** 2
    return abs(quad - residual_norm_sq(0.7))


def _overlap_route_gap() -> float:
    # radial_rule of the larger xi spans both profiles' scales
    r, weight = radial_rule(0.7)
    quad = float(np.sum(weight * f_closed(0.3, r) * f_closed(0.7, r)))
    return abs(quad - overlap(0.3, 0.7))


def run_battery(order: int):
    """The rows (check, value, reference, tolerance, passed) and whether all passed.

    ``order`` is the order of the quadratic form of the eigen route.
    """
    sol = minimize_q0()
    pair = min_eigenpair(build_q_form(order))
    product2 = 0.25 + sol.q_value

    def one_sided(value, bound, above):
        passed = value > bound if above else value < bound
        return value, bound, 0.0, passed

    checks = [
        ("q_min_eigenvalue", lambda: (pair.eigenvalue, -0.04495, 5e-4, None)),
        ("q_min_route_agreement",
         lambda: (abs(pair.eigenvalue - sol.q_value), 0.0, 1e-4, None)),
        ("xi_min", lambda: (sol.xi.value, 0.318674, 1e-3, None)),
        ("simple_state_product", lambda: (product2, 0.20505, 1e-3, None)),
        ("simple_state_violation", lambda: (0.25 / product2, 1.2192, 1e-3, None)),
        ("b_coefficients",
         lambda: (float(_b_table_mismatches()), 0.0, 0.0, None)),
        ("pascal_inverse", lambda: (float(_pascal_mismatches()), 0.0, 0.0, None)),
        ("pochhammer_roots", lambda: (_pochhammer_worst(), 0.0, 0.0, None)),
        ("shell_identity_check",
         lambda: (float(shell_identity_check(12)), 1.0, 0.0, None)),
        ("bipartite_product",
         lambda: (uncertainty_product(0.5).product, 0.18006, 1e-4, None)),
        ("bipartite_route_agreement",
         lambda: (abs(uncertainty_product(0.5).product
                      - uncertainty_product(0.5, "quadrature").product),
                  0.0, 1e-6, None)),
        ("f_route_agreement",
         lambda: (abs(f_closed(0.5, 1.0) - f_profile(0.5).value(1.0)),
                  0.0, 1e-10, None)),
        ("residual_route_agreement",
         lambda: (_residual_route_gap(), 0.0, 1e-7, None)),
        ("overlap_identity", lambda: (overlap(0.3, 0.3), 1.0, 1e-10, None)),
        ("overlap_vacuum",
         lambda: (abs(overlap(0.5, 0.0) - fock_coeff(0, 0, 0.5)), 0.0, 1e-10, None)),
        ("overlap_route_agreement",
         lambda: (_overlap_route_gap(), 0.0, 1e-8, None)),
        ("fock_selection", lambda: (_fock_selection_leak(), 0.0, 0.0, None)),
        ("fock_defect",
         lambda: (fock_normalization_defect(0.5, 200), 0.0, 1e-6, None)),
        ("shell_sum_structure", lambda: (_shell_structure_error(), 0.0, 1e-12, None)),
    ]

    g2 = g_family(0.5, 2.0)
    g32 = g_family(0.5, 1.5)
    h = h_family(0.5)
    checks += [
        ("g_identity_a2",
         lambda: (abs(3.0 * g2.rk_norm(0) ** 2 + 4.0 * g2.rk_norm(1) ** 2 - 1.0),
                  0.0, 1e-12, None)),
        ("g_identity_a32",
         lambda: (abs(g32.rk_norm(0) ** 2 + 2.25 * g32.rk_norm(1) ** 2 - 1.0),
                  0.0, 1e-12, None)),
        ("h_identity",
         lambda: (abs(10.0 * h.rk_norm(0) ** 2 + 9.0 * h.rk_norm(1) ** 2 - 1.0),
                  0.0, 1e-12, None)),
        ("z4_above_infimum",
         lambda: one_sided(z4_product(0.5).product, 1.0 / 30.0, True)),
        ("z4_below_bound",
         lambda: one_sided(z4_product(0.5).product, 1.0 / 16.0, False)),
        ("z4_shortcut_agreement",
         lambda: (abs(z4_product(0.5).product - multipartite.functional_z(2, g2)),
                  0.0, 1e-12, None)),
        ("z6_above_infimum",
         lambda: one_sided(z6_product(0.5).product, 35.0 / 4096.0, True)),
        ("z6_below_bound",
         lambda: one_sided(z6_product(0.5).product, 1.0 / 64.0, False)),
        ("z6_shortcut_agreement",
         lambda: (abs(z6_product(0.5).product - multipartite.functional_z(3, h)),
                  0.0, 1e-12, None)),
        ("alpha_beta_certificate",
         lambda: (multipartite.alpha_beta_certificate(), 0.0, 1e-10, None)),
    ]

    return _run_checks(checks)
