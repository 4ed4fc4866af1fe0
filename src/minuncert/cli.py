"""Command-line front end: verification battery, scans and table emission.

Every command writes one deterministic flat file (CSV or JSON) and
reports through the exit code: 0 all good, 1 a check or grid point
failed, 2 the invocation itself was invalid.  Identical configurations
produce byte-identical files, so the outputs are safe regression
anchors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from . import multipartite
from ._numpy import np
from .bipartite import (
    _overlap,
    f_closed,
    f_profile,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    r_closed,
    radial_rule,
    residual_norm_sq,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from .multipartite import g_family, h_family, z4_product, z6_product
from .simple_state import minimize_q0, q0
from .spectral import build_q_form, min_eigenpair
from .specfun import binom, ellip_k

__all__ = ["RunConfig", "main", "run_verify", "run_scan", "run_profile",
           "run_minimize_q", "run_fock", "run_overlap"]

_COMMANDS = ("verify", "scan", "profile", "minimize-q", "fock", "overlap")
_OUTPUT_DIR_ENV = "MINUNCERT_OUTPUT_DIR"

_DEFAULT_SCAN_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
_DEFAULT_PROFILE_GRID = (0.1, 0.5, 0.9)
_DEFAULT_OVERLAP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_DEFAULT_FOCK_GRID = (0.5,)
# the commands with a table per party count; the others are two-party only
_PARTY_COMMANDS = ("scan", "profile")
# the commands whose order must be at least 2: a form of order 2 or more,
# or at least the two end radii of the profile
_ORDER_2_COMMANDS = ("verify", "minimize-q", "profile")


class UsageError(Exception):
    pass


class RunConfig(namedtuple(
        "RunConfig", "command parties xi_grid truncation output_path format")):
    """One validated invocation; an invalid one raises ``UsageError``."""

    __slots__ = ()

    def __new__(cls, command, parties, xi_grid, truncation, output_path, format):
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if parties not in (2, 4, 6):
            raise UsageError(f"parties must be 2, 4 or 6, got {parties}")
        if parties != 2 and command not in _PARTY_COMMANDS:
            raise UsageError(f"{command} is two-party only, got parties {parties}")
        if format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {format!r}")
        if truncation < 1:
            raise UsageError(f"order must be positive, got {truncation}")
        if command in _ORDER_2_COMMANDS and truncation < 2:
            raise UsageError(f"{command} needs order >= 2, got {truncation}")
        prev = 0.0
        for x in xi_grid:
            if not (0.0 < x < 1.0):
                raise UsageError(f"xi values must lie strictly inside (0, 1), got {x!r}")
            if x <= prev:
                raise UsageError("xi grid must be strictly increasing")
            prev = x
        return super().__new__(cls, command, parties, xi_grid, truncation, output_path,
                               format)


def _expand_xi_token(token: str):
    parts = token.split(":")
    if len(parts) == 1:
        try:
            return [float(token)]
        except ValueError:
            raise UsageError(f"bad --xi value {token!r}") from None
    if len(parts) != 3:
        raise UsageError(f"--xi range must look like a:b:step, got {token!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --xi range {token!r}") from None
    if step <= 0.0 or hi < lo:
        raise UsageError(f"--xi range needs a <= b and step > 0, got {token!r}")
    out = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12 * step:
            break
        out.append(x)
        k += 1
    return out


def _default_grid(command: str):
    if command == "scan":
        return _DEFAULT_SCAN_GRID
    if command == "profile":
        return _DEFAULT_PROFILE_GRID
    if command == "overlap":
        return _DEFAULT_OVERLAP_GRID
    if command == "fock":
        return _DEFAULT_FOCK_GRID
    return (0.5,)


def _default_order(command: str) -> int:
    if command in ("verify", "minimize-q"):
        return 200
    if command == "fock":
        return 8
    if command == "profile":
        return 81  # radial sample count over [0, 4]
    return 200


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="minuncert",
        description="Minimum-uncertainty product verification and table emission.",
    )
    parser.add_argument("--command", choices=_COMMANDS, default="verify")
    parser.add_argument("--parties", type=int, default=2)
    parser.add_argument("--xi", action="append", metavar="X|A:B:STEP",
                        help="xi value or inclusive range; repeatable")
    parser.add_argument("--order", type=int, default=None,
                        help="truncation / sample-count knob of the command")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    ns = parser.parse_args(argv)

    if ns.xi:
        values = []
        for token in ns.xi:
            values.extend(_expand_xi_token(token))
        grid = tuple(sorted(set(values)))
    else:
        grid = _default_grid(ns.command)

    out = ns.out
    if out is None:
        base = os.environ.get(_OUTPUT_DIR_ENV, ".")
        ext = "csv" if ns.format == "csv" else "json"
        out = os.path.join(base, f"{ns.command}.{ext}")

    return RunConfig(
        command=ns.command,
        parties=ns.parties,
        xi_grid=grid,
        truncation=ns.order if ns.order is not None else _default_order(ns.command),
        output_path=out,
        format=ns.format,
    )


# ---------------------------------------------------------------------------
# table writing


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _json_safe(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _csv_lines(columns, rows):
    """The header and one line per row; ``_cell`` formats each value.

    A row of floats only is one %-format call, "%.17g,...,%.17g", which
    writes what ``_cell`` writes for each of them.
    """
    yield ",".join(columns)
    for row in rows:
        if all(isinstance(v, float) for v in row):
            yield ",".join(["%.17g"] * len(row)) % tuple(row)
        else:
            yield ",".join(_cell(v) for v in row)


def write_table(config: RunConfig, columns, rows) -> None:
    parent = os.path.dirname(config.output_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if config.format == "csv":
        text = "\n".join(_csv_lines(columns, rows)) + "\n"
    else:
        import json  # only this branch writes JSON

        doc = {
            "command": config.command,
            "parties": config.parties,
            "columns": list(columns),
            "rows": [[_json_safe(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(config.output_path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verify


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


def run_verify(config: RunConfig) -> int:
    sol = minimize_q0()
    pair = min_eigenpair(build_q_form(config.truncation))
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

    rows, all_ok = _run_checks(checks)
    write_table(config, ("check", "value", "reference", "tolerance", "passed"), rows)
    if not all_ok:
        failed = [row[0] for row in rows if not row[4]]
        print("verify: FAILED " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scan


def _product_for(parties: int, x: float):
    if parties == 2:
        return uncertainty_product(x)
    if parties == 4:
        return z4_product(x)
    return z6_product(x)


def run_scan(config: RunConfig) -> int:
    two = config.parties == 2
    columns = ["xi", "product", "separable_bound", "infimum", "violation_ratio"]
    if two:
        columns += ["r_value", "q0"]
    rows = []
    hard_failure = None
    for x in config.xi_grid:
        try:
            rep = _product_for(config.parties, x)
        except ValueError as exc:
            # a product outside its hard bounds is a broken invariant,
            # not a data point
            hard_failure = f"xi={x:g}: {exc}"
            break
        row = [x, rep.product, rep.separable_bound, rep.infimum, rep.violation_ratio]
        if two:
            row += [r_closed(x), q0(x)]
        rows.append(row)
    write_table(config, columns, rows)
    if hard_failure:
        print(f"scan: aborted, {hard_failure}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# profile


def _profile_column(parties: int, x: float, r_grid):
    """The family's radial profile at xi = x, at r**parties for each r in r_grid.

    Every value depends on its own radius alone, so each column is one
    call.  The ODE families are oriented positive at the origin.
    """
    if parties == 2:
        return f_closed(x, r_grid ** parties)
    fam = g_family(x) if parties == 4 else h_family(x)
    orient = 1.0 if fam.value(0.0) >= 0.0 else -1.0
    return orient * fam.value(r_grid ** parties)


def _xi_label(x: float) -> str:
    # 15 digits name each xi as typed; one they would round up to 1 keeps all of its
    label = f"{x:.15g}"
    return repr(x) if label == "1" else label


def run_profile(config: RunConfig) -> int:
    n = config.parties // 2
    r_grid = np.linspace(0.0, 4.0, config.truncation)
    front = math.sqrt(math.factorial(n) / math.pi**n)
    columns = ["r"] + [f"psi_xi={_xi_label(x)}" for x in config.xi_grid]
    table = [r_grid] + [front * _profile_column(config.parties, x, r_grid)
                        for x in config.xi_grid]
    write_table(config, columns, np.column_stack(table).tolist())
    return 0


# ---------------------------------------------------------------------------
# the remaining table commands


def run_minimize_q(config: RunConfig) -> int:
    pair = min_eigenpair(build_q_form(config.truncation))
    sol = minimize_q0()
    columns = ("route", "order", "xi_min", "q_min", "product", "violation_ratio")
    rows = []
    for route, order, xi_min, q_min in (
        ("eigen", config.truncation, None, pair.eigenvalue),
        ("closed_form", None, sol.xi.value, sol.q_value),
    ):
        product = 0.25 + q_min
        rows.append([route, order, xi_min, q_min, product, 0.25 / product])
    write_table(config, columns, rows)
    gap = abs(pair.eigenvalue - sol.q_value)
    if gap > 1e-4:
        print(f"minimize-q: route disagreement {gap:.3e}", file=sys.stderr)
        return 1
    return 0


def run_fock(config: RunConfig) -> int:
    columns = ("xi", "n", "m", "mod4_class", "coeff")
    rows = []
    for x in config.xi_grid:
        for total in range(0, config.truncation + 1):
            for n in range(0, total + 1):
                m = total - n
                if n % 4 != m % 4 or n % 4 not in (0, 2):
                    continue
                rows.append([x, n, m, n % 4, fock_coeff(n, m, x)])
    write_table(config, columns, rows)
    return 0


def run_overlap(config: RunConfig) -> int:
    # the grid is validated, so each K(xi) is taken once and no pair
    # builds an XiParameter; the values are those of overlap(a, b)
    columns = ("xi_a", "xi_b", "overlap")
    grid = config.xi_grid
    ks = [ellip_k(x) for x in grid]
    rows = []
    for i, (a, ka) in enumerate(zip(grid, ks)):
        for b, kb in zip(grid[i:], ks[i:]):
            rows.append([a, b, _overlap(a, b, ka, kb)])
    write_table(config, columns, rows)
    return 0


_RUNNERS = {
    "verify": run_verify,
    "scan": run_scan,
    "profile": run_profile,
    "minimize-q": run_minimize_q,
    "fock": run_fock,
    "overlap": run_overlap,
}


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"minuncert: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[config.command](config)
    except UsageError as exc:
        print(f"minuncert: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
