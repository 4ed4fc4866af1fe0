"""Command-line front end: argument handling, the commands and table emission.

Every command writes one deterministic flat file (CSV or JSON) and
reports through the exit code: 0 all good, 1 a check or grid point
failed, 2 the invocation itself was invalid.  Identical configurations
produce byte-identical files, so the outputs are safe regression
anchors.  The checks of ``verify`` live in ``minuncert.checks``.
"""

from __future__ import annotations

import argparse
import gc
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

_OUTPUT_DIR_ENV = "MINUNCERT_OUTPUT_DIR"
# the most points of one --xi a:b:step range
_XI_RANGE_MAX_POINTS = 10**6


class UsageError(Exception):
    pass


class RunConfig(namedtuple(
        "RunConfig", "command parties xi_grid truncation output_path format")):
    """One validated invocation; an invalid one raises ``UsageError``.

    ``truncation`` is the --order, None for the commands that take none.
    """

    __slots__ = ()

    def __new__(cls, command, parties, xi_grid, truncation, output_path, format):
        spec = _COMMAND_TABLE.get(command)
        if spec is None:
            raise UsageError(f"unknown command {command!r}")
        if parties != 2:
            if not spec.multiparty:
                raise UsageError(f"{command} is two-party only, got parties {parties}")
            top = 2 * multipartite.ROUTE_B_MAX_N
            if parties % 2 or not 2 < parties <= top:
                raise UsageError(f"parties must be an even number from 2 to {top} "
                                 f"(route B's cap), got {parties}")
        if format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {format!r}")
        if spec.least_order is None:
            if truncation is not None:
                raise UsageError(f"{command} takes no --order, got {truncation}")
        elif truncation < spec.least_order:
            raise UsageError(f"{command} needs order >= {spec.least_order}, got {truncation}")
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


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="minuncert",
        description="Minimum-uncertainty product verification and table emission.",
    )
    parser.add_argument("--command", choices=tuple(_COMMAND_TABLE), default="verify")
    parser.add_argument("--parties", type=int, default=2)
    parser.add_argument("--xi", action="append", metavar="X|A:B:STEP",
                        help="xi value or inclusive range; repeatable")
    parser.add_argument("--order", type=int, default=None,
                        help="truncation / sample-count knob of verify, profile, "
                        "minimize-q and fock")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    ns = parser.parse_args(argv)
    spec = _COMMAND_TABLE[ns.command]

    if ns.xi:
        values = []
        for token in ns.xi:
            values.extend(_expand_xi_token(token))
        grid = tuple(sorted(set(values)))
    else:
        grid = spec.grid

    out = ns.out
    if out is None:
        base = os.environ.get(_OUTPUT_DIR_ENV, ".")
        ext = "csv" if ns.format == "csv" else "json"
        out = os.path.join(base, f"{ns.command}.{ext}")

    return RunConfig(
        command=ns.command,
        parties=ns.parties,
        xi_grid=grid,
        truncation=spec.order if ns.order is None else ns.order,
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

    A table of floats and ints only, whose rows are as wide as the header
    and share the first row's cell types, is one %-format call: the line
    of "%.17g" per float column and "%d" per int column and its newline,
    repeated once per row, which writes what ``_cell`` writes for each value.
    """
    header = ",".join(columns) + "\n"
    kinds = tuple(map(type, rows[0])) if rows else ()
    if (len(kinds) == len(columns) and set(kinds) <= {float, int}
            and all(tuple(map(type, row)) == kinds for row in rows)):
        line = ",".join(["%.17g" if kind is float else "%d" for kind in kinds]) + "\n"
        return header + (line * len(rows)) % tuple(chain.from_iterable(rows))
    return header + "".join(",".join([_cell(v) for v in row]) + "\n" for row in rows)


def write_table(config: RunConfig, columns, rows) -> None:
    """Write the table to ``config.output_path``; an unwritable path is a usage error."""
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
    parent = os.path.dirname(config.output_path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(config.output_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {config.output_path!r}: {exc}") from None


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


def run_scan(config: RunConfig) -> int:
    two = config.parties == 2
    columns = ["xi", "product", "separable_bound", "infimum", "violation_ratio"]
    if two:
        columns += ["r_value", "q0"]
    rows = []
    hard_failure = None
    for x in config.xi_grid:
        try:
            rep = (bipartite.uncertainty_product(x) if two
                   else multipartite.z_product(config.parties // 2, x))
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
    call.  The families v_n are oriented positive at the origin, which
    is the first radius of every grid.
    """
    if parties == 2:
        return bipartite.f_closed(x, r_grid ** parties)
    column = multipartite.family(parties // 2, x).value(r_grid ** parties)
    return column if column[0] >= 0.0 else -column


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
    # the grid is validated, so K(xi) is taken once per grid value and each
    # b_k = C(2k, k) / 4^k once; the values are those of fock_coeff
    columns = ("xi", "n", "m", "mod4_class", "coeff")
    central = [bipartite._central(k) for k in range(config.truncation // 2 + 1)]
    rows = []
    for x in config.xi_grid:
        c0 = math.sqrt(math.pi / (2.0 * specfun.ellip_k(x)))
        for total in range(0, config.truncation + 1):
            for n in range(0, total + 1):
                m = total - n
                if n % 4 != m % 4 or n % 4 not in (0, 2):
                    continue
                rows.append([x, n, m, n % 4, bipartite._fock_coeff(n, m, x, c0, central)])
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


_Command = namedtuple("_Command", "run grid order least_order multiparty")
# each command: its runner, its default xi grid, its default --order (None
# where the command takes none), the least --order it accepts (a form of
# order 2 or more, at least the two end radii of a profile, a positive
# largest n + m for fock) and whether it takes an even --parties above 2 (one
# table per party count)
_COMMAND_TABLE = {
    "verify": _Command(run_verify, (0.5,), 200, 2, False),
    "scan": _Command(run_scan, tuple(round(0.05 * k, 2) for k in range(1, 20)),
                     None, None, True),
    "profile": _Command(run_profile, (0.1, 0.5, 0.9), 81, 2, True),  # radii over [0, 4]
    "minimize-q": _Command(run_minimize_q, (0.5,), 200, 2, False),
    "fock": _Command(run_fock, (0.5,), 8, 1, False),
    "overlap": _Command(run_overlap, (0.1, 0.3, 0.5, 0.7, 0.9), None, None, False),
}


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    Called as the program, with ``argv`` None (``python -m minuncert.cli``
    and the ``minuncert`` script both run ``sys.exit(main())``), it
    freezes the heap on the way out, on every path, usage errors and
    hard failures included: ``gc.freeze()`` moves every object alive at
    that point out of the collector's reach, so the full collections of
    interpreter shutdown no longer walk the objects of ``site``, numpy
    and the package, nor free their reference cycles one by one.  That
    is safe because the process is about to exit: atexit handlers still
    run, the std streams are still flushed, and the table was closed by
    its ``with`` block.  ``main(argv)`` with an explicit list never
    freezes: the caller's process goes on, and a reference cycle frozen
    there would never be collected once it turned to garbage.
    """
    try:
        config = parse_args(argv)
        return _COMMAND_TABLE[config.command].run(config)
    except UsageError as exc:
        print(f"minuncert: {exc}", file=sys.stderr)
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
