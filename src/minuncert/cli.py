"""Command-line front end: argument handling, the commands and table emission.

Every command writes one deterministic flat file (CSV or JSON) and
reports through the exit code: 0 all good, 1 a check or grid point
failed, 2 the invocation itself was invalid.  Identical configurations
produce byte-identical files, so the outputs are safe regression
anchors.  The checks of ``verify`` live in ``minuncert.checks``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from itertools import chain

from ._lazy import lazy_import, np

# each command executes only the modules it calls: these are registered in
# sys.modules now and run at their first attribute read
bipartite = lazy_import(f"{__package__}.bipartite")
checks = lazy_import(f"{__package__}.checks")
multipartite = lazy_import(f"{__package__}.multipartite")
simple_state = lazy_import(f"{__package__}.simple_state")
specfun = lazy_import(f"{__package__}.specfun")
spectral = lazy_import(f"{__package__}.spectral")

__all__ = ["RunConfig", "main", "run_verify", "run_scan", "run_profile",
           "run_minimize_q", "run_fock", "run_overlap"]

_COMMANDS = ("verify", "scan", "profile", "minimize-q", "fock", "overlap")
_OUTPUT_DIR_ENV = "MINUNCERT_OUTPUT_DIR"

_DEFAULT_SCAN_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
_DEFAULT_PROFILE_GRID = (0.1, 0.5, 0.9)
_DEFAULT_OVERLAP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
_DEFAULT_FOCK_GRID = (0.5,)
# the most points of one --xi a:b:step range
_XI_RANGE_MAX_POINTS = 10**6
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
    if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise UsageError(f"--xi range needs finite a <= b and step > 0, got {token!r}")
    # the points lo + k step up to hi + 1e-12 step: lo + k step never
    # decreases in k, so the last one is found by stepping from the
    # quotient's floor, and never beyond the cap
    end = hi + 1e-12 * step
    last = int(min((hi - lo) / step, _XI_RANGE_MAX_POINTS))
    while last > 0 and lo + last * step > end:
        last -= 1
    while last < _XI_RANGE_MAX_POINTS and lo + (last + 1) * step <= end:
        last += 1
    if last >= _XI_RANGE_MAX_POINTS:
        raise UsageError(f"--xi range {token!r} has more than {_XI_RANGE_MAX_POINTS} points")
    return [lo + k * step for k in range(last + 1)]


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


def _csv_text(columns, rows) -> str:
    """The header and one line per row; ``_cell`` formats each value.

    A table of floats only, with rows as wide as the header, is one
    %-format call: the line "%.17g,...,%.17g" and its newline, repeated
    once per row, which writes what ``_cell`` writes for each value.
    """
    header = ",".join(columns) + "\n"
    width = len(columns)
    cells = tuple(chain.from_iterable(rows))
    if all(len(row) == width for row in rows) and set(map(type, cells)) <= {float}:
        line = ",".join(["%.17g"] * width) + "\n"
        return header + (line * len(rows)) % cells
    return header + "".join(",".join([_cell(v) for v in row]) + "\n" for row in rows)


def write_table(config: RunConfig, columns, rows) -> None:
    parent = os.path.dirname(config.output_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if config.format == "csv":
        text = _csv_text(columns, rows)
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


def run_verify(config: RunConfig) -> int:
    rows, all_ok = checks.run_battery(config.truncation)
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
        return bipartite.uncertainty_product(x)
    if parties == 4:
        return multipartite.z4_product(x)
    return multipartite.z6_product(x)


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
            row += [bipartite.r_closed(x), simple_state.q0(x)]
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
        return bipartite.f_closed(x, r_grid ** parties)
    fam = multipartite.g_family(x) if parties == 4 else multipartite.h_family(x)
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
    pair = spectral.min_eigenpair(spectral.build_q_form(config.truncation))
    sol = simple_state.minimize_q0()
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
                rows.append([x, n, m, n % 4, bipartite.fock_coeff(n, m, x)])
    write_table(config, columns, rows)
    return 0


def run_overlap(config: RunConfig) -> int:
    # the grid is validated, so each K(xi) is taken once and no pair
    # builds an XiParameter; the values are those of overlap(a, b)
    columns = ("xi_a", "xi_b", "overlap")
    grid = config.xi_grid
    ks = [specfun.ellip_k(x) for x in grid]
    rows = []
    for i, (a, ka) in enumerate(zip(grid, ks)):
        for b, kb in zip(grid[i:], ks[i:]):
            rows.append([a, b, bipartite._overlap(a, b, ka, kb)])
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
