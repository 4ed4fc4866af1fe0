"""Correctness gate: every item of every command is checked, none skipped.

An item is a scan grid point, a verify check, a profile column or a
command.  The command item fails on a non-zero exit or a missing or
unreadable table, and on any mismatch in a table that has no finer item
(overlap, fock, minimize-q).  Every item fails on an empty cell.

When the exact argv has a reference table (``bench/reference``, recorded
by ``make_reference.py``) the values are compared with it:

* z4/z6 products and ODE profile samples to 3e-7 relative, the library's
  own ``_Z_TOL``/``_NORM_TOL`` target (profile samples relative to the
  column's largest magnitude, since the tail decays towards zero);
* two-party closed-form columns to 1e-12 relative, the inverse-iteration
  eigenvalue of ``minimize-q`` to 1e-9 relative;
* ``verify``: every reference check present and passed.

Structural checks hold for every input: row counts, the xi column,
finite cells, products strictly above their infimum and strictly
decreasing in xi.  Columns are found by header name, so a later table
that gains columns still checks.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
import math
import os
from dataclasses import dataclass, field

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

Z_REL = 3e-7
CLOSED_REL = 1e-12
EIGEN_REL = 1e-9
EXACT = 1e-15  # printed with 17 digits, so inputs and constants round-trip

INFIMUM = {2: 0.125, 4: 1.0 / 30.0, 6: 35.0 / 4096.0}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class References:
    """Reference tables keyed by the command's argv (without ``--out``)."""

    def __init__(self, directory: str = REFERENCE_DIR):
        self.directory = directory
        path = os.path.join(directory, "index.json")
        self.index = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.index = json.load(fh)

    def table(self, key: str):
        name = self.index.get(key)
        if name is None:
            return None
        with lzma.open(os.path.join(self.directory, name), "rt", encoding="ascii") as fh:
            return parse_csv(fh.read())


def parse_csv(text: str):
    """(header, rows) with cells as float, str, or None when empty."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]

    def cell(s):
        if s == "":
            return None
        try:
            return float(s)
        except ValueError:
            return s

    return header, [[cell(s) for s in row] for row in body]


def expand_xi(tokens):
    """The grid the CLI documents for repeatable ``--xi a`` / ``a:b:step``."""
    values = []
    for token in tokens:
        parts = token.split(":")
        if len(parts) == 1:
            values.append(float(token))
            continue
        lo, hi, step = (float(p) for p in parts)
        k = 0
        while lo + k * step <= hi + 1e-12 * step:
            values.append(lo + k * step)
            k += 1
    return sorted(set(values))


def _close(a, b, rel, scale=None) -> bool:
    if not isinstance(a, float) or not isinstance(b, float) or not math.isfinite(a):
        return False
    return abs(a - b) <= rel * abs(b if scale is None else scale)


def _finite(row) -> bool:
    return all(isinstance(v, str) or (v is not None and math.isfinite(v)) for v in row)


def _columns(header, rows, names):
    """Column vectors by header name; None when a name is missing."""
    out = {}
    for name in names:
        if name not in header:
            return None
        j = header.index(name)
        out[name] = [row[j] if j < len(row) else None for row in rows]
    return out


def check_command(cmd, exit_code, table_path, refs: References) -> Outcome:
    out = Outcome()
    table = None
    problem = f"exit status {exit_code}" if exit_code != 0 else ""
    if os.path.exists(table_path):
        try:
            with open(table_path, encoding="ascii") as fh:
                table = parse_csv(fh.read())
        except (OSError, UnicodeDecodeError, csv.Error, IndexError) as exc:
            problem = problem or f"unreadable table: {exc}"
    else:
        problem = problem or "no table written"
    ref = refs.table(cmd.key)
    checker = {"scan": _check_scan, "profile": _check_profile, "verify": _check_verify,
               "overlap": _check_overlap, "fock": _check_fock,
               "minimize-q": _check_minimize_q}[cmd.kind]
    table_problem = checker(cmd, table, ref, out)
    out.item(not problem and not table_problem, f"{cmd.key}: {problem or table_problem}")
    return out


# ---------------------------------------------------------------------------
# per-command checks; each records its fine-grained items in ``out`` and
# returns a problem string for the command item ("" when none)


def _check_scan(cmd, table, ref, out):
    grid = expand_xi(cmd.xi)
    names = ["xi", "product", "separable_bound", "infimum", "violation_ratio"]
    two = cmd.parties == 2
    if two:
        names += ["r_value", "q0"]
    cols = _columns(*table, names) if table else None
    rcols = _columns(*ref, names) if ref else None
    rows = table[1] if table else []
    if table and len(rows) != len(grid):
        out.notes.append(f"{cmd.key}: {len(rows)} rows for {len(grid)} grid points")
    prev = math.inf
    for i, x in enumerate(grid):
        what = f"{cmd.key}: xi={x!r}"
        if cols is None or i >= len(rows) or not _finite(rows[i]):
            out.item(False, what + " missing or empty")
            continue
        p = cols["product"][i]
        ok = (_close(cols["xi"][i], x, EXACT) and p > INFIMUM[cmd.parties] and p < prev
              and _close(cols["infimum"][i], INFIMUM[cmd.parties], EXACT))
        prev = p
        if ok and rcols is not None:
            for name in names:
                rel = EXACT if name == "xi" else CLOSED_REL if two else Z_REL
                if name in ("separable_bound", "infimum"):
                    rel = EXACT
                ok = ok and _close(cols[name][i], rcols[name][i], rel)
        out.item(ok, what + " out of tolerance or not decreasing")
    return "" if table and len(rows) == len(grid) else "row count"


def _check_profile(cmd, table, ref, out):
    grid = expand_xi(cmd.xi)
    points = max(cmd.order, 2)
    rel = CLOSED_REL if cmd.parties == 2 else Z_REL
    header, rows = table if table else ([], [])
    r_ok = len(rows) == points and all(
        row and _close(row[0], 4.0 * i / (points - 1), EXACT, 4.0) for i, row in enumerate(rows))
    for j, x in enumerate(grid, start=1):
        what = f"{cmd.key}: column xi={x!r}"
        col = [row[j] if j < len(row) else None for row in rows]
        if not r_ok or len(header) != len(grid) + 1 or not _finite(col):
            out.item(False, what + " missing, short or empty")
            continue
        ok = True
        if ref is not None:
            rcol = [row[j] for row in ref[1]]
            scale = max(abs(v) for v in rcol) if cmd.parties != 2 else None
            ok = ref[0][j] == header[j] and all(
                _close(a, b, rel, scale) for a, b in zip(col, rcol))
        out.item(ok, what + " out of tolerance")
    return "" if r_ok else "r column or row count"


def _check_verify(cmd, table, ref, out):
    cols = _columns(*table, ["check", "passed"]) if table else None
    passed = dict(zip(cols["check"], cols["passed"])) if cols else {}
    names = list(passed)
    if ref is not None:
        names += [row[0] for row in ref[1] if row[0] not in passed]
    for name in names:
        out.item(passed.get(name) == "true", f"verify: {name} missing or not passed")
    return "" if cols else "no check table"


def _values_match(cols, rcols, rel_of):
    return all(
        _close(a, b, rel_of(name, i)) if isinstance(b, float) else a == b
        for name in cols for i, (a, b) in enumerate(zip(cols[name], rcols[name])))


def _check_overlap(cmd, table, ref, out):
    grid = expand_xi(cmd.xi)
    names = ["xi_a", "xi_b", "overlap"]
    cols = _columns(*table, names) if table else None
    if cols is None or len(cols["overlap"]) != len(grid) * (len(grid) + 1) // 2:
        return "row count or columns"
    if not all(isinstance(v, float) and 0.0 < v <= 1.0 + CLOSED_REL for v in cols["overlap"]):
        return "overlap outside (0, 1]"
    diag = [v for a, b, v in zip(cols["xi_a"], cols["xi_b"], cols["overlap"]) if a == b]
    if len(diag) != len(grid) or not all(_close(v, 1.0, CLOSED_REL) for v in diag):
        return "diagonal overlap is not 1"
    if ref is not None and not _values_match(cols, _columns(*ref, names), lambda n, i: CLOSED_REL):
        return "values out of tolerance"
    return ""


def _check_fock(cmd, table, ref, out):
    names = ["xi", "n", "m", "mod4_class", "coeff"]
    cols = _columns(*table, names) if table else None
    if cols is None or not cols["coeff"] or not _finite(cols["coeff"]):
        return "missing, empty or non-finite coefficients"
    if ref is not None:
        rcols = _columns(*ref, names)
        if len(rcols["coeff"]) != len(cols["coeff"]):
            return "row count"
        if not _values_match(cols, rcols, lambda n, i: CLOSED_REL if n == "coeff" else 0.0):
            return "values out of tolerance"
    return ""


def _check_minimize_q(cmd, table, ref, out):
    names = ["route", "q_min", "product", "violation_ratio"]
    cols = _columns(*table, names) if table else None
    if cols is None or cols["route"] != ["eigen", "closed_form"]:
        return "rows or columns"
    if not _finite(cols["q_min"] + cols["product"] + cols["violation_ratio"]):
        return "empty or non-finite cells"
    if abs(cols["q_min"][0] - cols["q_min"][1]) > 1e-4:
        return "eigen and closed-form routes disagree"
    if ref is not None:
        rcols = _columns(*ref, names)
        if not _values_match(cols, rcols, lambda n, i: EIGEN_REL if i == 0 else CLOSED_REL):
            return "values out of tolerance"
    return ""
