import csv
import gc
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest

import minuncert
import minuncert.bipartite as bipartite
import minuncert.checks as checks
import minuncert.cli as cli
import minuncert.multipartite as multipartite
from minuncert.bipartite import UncertaintyReport, XiParameter, fock_coeff, overlap
from minuncert.multipartite import OperatorCoefficients, b_coefficients
from minuncert.simple_state import SimpleStateSolution
from minuncert.spectral import BandedSymmetricForm, EigenPair

from oracles import LAMBDA_MIN_200, OVERLAP_03_07, C00_HALF, f_scipy, wavefunction


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- argument handling ----------------------------------------------------


def _fresh_env():
    src = str(Path(minuncert.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_fresh_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


def run_program(*argv):
    """The finished ``python -m minuncert.cli`` process on ``argv``, run as a user runs it."""
    return subprocess.run([sys.executable, "-m", "minuncert.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)


def test_import_builds_no_kernel_table():
    # nothing is built at import: every cache of the library (the
    # Gauss-Legendre nodes, the b tables, the Mellin density, the radial
    # rows and any cache added later) is filled on first use, so commands
    # that never touch one pay nothing for it (numpy.polynomial alone
    # costs ~5 ms to import).  The caches are found among the modules'
    # own attributes; ``type`` reads no attribute of the lazily bound numpy
    code = """
import importlib, pkgutil, sys
import minuncert, minuncert.cli
for info in pkgutil.iter_modules(minuncert.__path__):
    module = importlib.import_module(f"minuncert.{info.name}")
    for name, value in vars(module).items():
        if hasattr(type(value), "cache_info") and value.__module__ == module.__name__:
            print(f"{module.__name__}.{name}", value.cache_info().currsize)
print("numpy.polynomial", "numpy.polynomial" in sys.modules)
"""
    found = dict(line.split() for line in run_fresh(code).splitlines())
    assert found.pop("numpy.polynomial") == "False"
    assert found and set(found.values()) == {"0"}, found


# numpy's compiled core, under its numpy 2 and numpy 1 names: sys.modules
# holds the lazily bound 'numpy' itself before it is loaded
_NUMPY_CORE = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def _numpy_loaded_after(commands, out):
    """Run ``commands`` in turn in one fresh interpreter; after the import
    and after each command, whether numpy's core is loaded, which modules
    of the package have run and whether ``fractions`` is loaded.

    A module bound lazily is in sys.modules before it runs, and reading
    any of its attributes would run it; ``type`` reads none.
    """
    code = f"""
import sys, types
import minuncert.cli as cli
loaded = lambda: any(m in sys.modules for m in {_NUMPY_CORE!r})
ran = lambda: ",".join(sorted(n.partition(".")[2] or n for n, m in sys.modules.items()
                              if n.split(".")[0] == "minuncert" and type(m) is types.ModuleType))
out = sys.argv[1]
exact = lambda: "fractions" in sys.modules
print("import", loaded(), ran(), exact())
for argv in {commands!r}:
    status = cli.main(["--command", *argv, "--out", out])
    print(argv[0], status, loaded(), ran(), exact())
"""
    fields = [line.rsplit(" ", 2) for line in run_fresh(code, out).splitlines()]
    return tuple(list(column) for column in zip(*fields))


def test_closed_form_commands_never_load_numpy(tmp_path):
    # numpy is bound lazily, so the two-party closed forms, the
    # tridiagonal eigen-solve, route A of the products (the Mellin density)
    # and verify's battery (route B's cumulative pass, the angular pass of
    # r f' and every quadrature on the radial rule) run on Python floats
    # alone; the first array operation (here the profile grid) loads it
    out = str(tmp_path / "table.csv")
    commands = [["scan", "--parties", "2", "--xi", "0.1:0.9:0.1"], ["overlap"], ["fock"],
                ["minimize-q", "--order", "4000"],
                ["scan", "--parties", "4", "--xi", "0.5", "--xi", "0.9"],
                ["scan", "--parties", "6"], ["scan", "--parties", "10", "--xi", "0.5"],
                ["profile", "--parties", "2", "--order", "5"]]
    assert _numpy_loaded_after(commands, out)[0] == [
        "import False", "scan 0 False", "overlap 0 False", "fock 0 False",
        "minimize-q 0 False", "scan 0 False", "scan 0 False", "scan 0 False",
        "profile 0 True"]
    assert _numpy_loaded_after([["verify"]], out)[0] == ["import False", "verify 0 False"]
    code = (f"import sys, minuncert.bipartite as b; b.uncertainty_product(0.5, 'quadrature'); "
            f"print(any(m in sys.modules for m in {_NUMPY_CORE!r}))")
    assert run_fresh(code).split() == ["False"]


_CLOSED_FORM_MODULES = "bipartite,cli,minuncert,quadrature,specfun"
_COMMAND_MODULES = [
    (["scan", "--parties", "2", "--xi", "0.1:0.9:0.1"], "bipartite,cli,minuncert,quadrature,"
                                                        "simple_state,specfun"),
    (["profile", "--parties", "2", "--order", "5"], _CLOSED_FORM_MODULES),
    (["overlap"], _CLOSED_FORM_MODULES),
    (["fock"], _CLOSED_FORM_MODULES),
    (["minimize-q", "--order", "40"], "bipartite,cli,minuncert,quadrature,simple_state,"
                                      "specfun,spectral"),
    (["scan", "--parties", "4", "--xi", "0.5"], "bipartite,cli,minuncert,multipartite,"
                                                "quadrature,specfun"),
    (["scan", "--parties", "6", "--xi", "0.5"], "bipartite,cli,minuncert,multipartite,"
                                                "quadrature,specfun"),
    (["scan", "--parties", "8", "--xi", "0.5"], "bipartite,cli,minuncert,multipartite,"
                                                "quadrature,specfun"),
]


@pytest.mark.parametrize("argv,modules", _COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) for argv, _ in _COMMAND_MODULES])
def test_each_command_runs_only_the_modules_it_calls(argv, modules, tmp_path):
    # the import runs the package, the loader and the front end only; each
    # command then runs the modules it calls, and none it does not.  No
    # table but verify's needs the exact Fractions (scan --parties 4|6
    # takes its prefactor as a float), so none imports fractions
    _, ran, exact = _numpy_loaded_after([argv], str(tmp_path / "table.csv"))
    assert ran == ["_lazy,cli,minuncert", "_lazy," + modules]
    assert exact == ["False", "False"]


def test_verify_runs_every_module(tmp_path):
    _, ran, exact = _numpy_loaded_after([["verify"]], str(tmp_path / "table.csv"))
    every = sorted(info.name for info in pkgutil.iter_modules(minuncert.__path__))
    assert ran[1] == ",".join(sorted(every + ["minuncert"]))
    assert exact == ["False", "True"]


def test_start_up_loads_no_dataclasses_fractions_or_json(tmp_path):
    # the records are plain tuples, and the exact tables and JSON writing
    # import fractions and json where they are used; verify's exact
    # checks are the first use of fractions
    code = """
import sys
import minuncert.cli as cli
slow = ("dataclasses", "inspect", "fractions", "decimal", "json")
print(*[m for m in slow if m in sys.modules])
cli.main(["--command", "scan", "--parties", "2", "--xi", "0.1:0.9:0.1", "--out", sys.argv[1]])
print(*[m for m in slow if m in sys.modules])
cli.main(["--command", "verify", "--out", sys.argv[1]])
print("fractions" in sys.modules)
"""
    assert run_fresh(code, str(tmp_path / "table.csv")).splitlines() == ["", "", "True"]


_RECORDS = [
    (XiParameter, ("value",), (0.5,)),
    (UncertaintyReport,
     ("parties", "xi", "product", "route"),
     (2, XiParameter(0.5), 0.2, "closed_form")),
    (cli.RunConfig,
     ("command", "parties", "xi_grid", "truncation", "output_path", "format"),
     ("scan", 4, (0.5,), None, "scan.csv", "csv")),
    (OperatorCoefficients, ("b", "prefactor"),
     ((Fraction(1), Fraction(2)), Fraction(1, 30))),
    (SimpleStateSolution, ("xi", "phi", "q_value", "coefficients", "tail_norm_sq"),
     (XiParameter(0.3), 0.1, -0.04, (0.9, 0.1), 1e-17)),
    (BandedSymmetricForm, ("diagonal", "off_diagonal"),
     (np.arange(3.0), np.ones(2))),
    (EigenPair, ("eigenvalue", "eigenvector"), (-0.04, np.ones(3))),
]


@pytest.mark.parametrize("cls,fields,values", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_records_build_by_position_and_keyword(cls, fields, values):
    # the positional order of the fields is part of each record's interface
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    for name, value in zip(fields, values):
        assert getattr(by_keyword, name) is value
    with pytest.raises(AttributeError):
        setattr(by_position, fields[0], values[0])
    with pytest.raises(AttributeError):
        by_position.extra = 1
    assert repr(by_position).startswith(cls.__name__ + "(" + fields[0] + "=")


def test_missing_numpy_raises_import_error_on_first_use(tmp_path):
    # None in sys.modules makes 'import numpy' fail as if it were not installed
    code = """
import sys
sys.modules["numpy"] = None
import minuncert.cli as cli
out = sys.argv[1]
print(cli.main(["--command", "overlap", "--out", out]))
print(cli.main(["--command", "minimize-q", "--out", out]))
try:
    cli.main(["--command", "profile", "--out", out])
except ImportError as exc:
    print(type(exc).__name__, exc.name)
"""
    lines = run_fresh(code, str(tmp_path / "table.csv")).splitlines()
    assert lines == ["0", "0", "ModuleNotFoundError numpy"]


def test_verify_passes_without_numpy(tmp_path):
    # verify runs on Python floats alone: with numpy blocked as if it were
    # not installed it exits 0, and every row of its table passes
    code = """
import sys
sys.modules["numpy"] = None
import minuncert.cli as cli
print(cli.main(["--command", "verify", "--out", sys.argv[1]]))
"""
    out = tmp_path / "verify.csv"
    assert run_fresh(code, str(out)).split() == ["0"]
    _, rows = read_csv(out)
    assert len(rows) == 31 and all(row[4] == "true" for row in rows)


def test_parse_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = cli.parse_args([])
    assert config.command == "verify"
    assert config.parties == 2
    assert config.truncation == 200
    assert config.format == "csv"
    assert config.output_path == os.path.join(".", "verify.csv")


def test_parse_xi_tokens():
    config = cli.parse_args(["--command", "scan", "--xi", "0.5", "--xi", "0.1:0.3:0.1"])
    assert config.xi_grid == (0.1, 0.2, 0.30000000000000004, 0.5)
    # duplicates collapse
    config = cli.parse_args(["--command", "scan", "--xi", "0.5", "--xi", "0.5"])
    assert config.xi_grid == (0.5,)


def _stepped_range(lo, hi, step):
    # the points of a:b:step, one at a time, for ranges known to be short
    out = []
    while lo + len(out) * step <= hi + 1e-12 * step:
        out.append(lo + len(out) * step)
    return out


@pytest.mark.parametrize("lo,hi,step", [
    (0.1, 0.9, 0.1), (0.05, 0.95, 0.05), (0.001, 0.999, 0.001), (0.0, 1.0, 1.0 / 3.0),
    (0.5, 0.5, 0.1), (0.1, 0.7, 0.2), (0.3, 0.3 + 1e-15, 1e-17), (0.2, 0.9, 0.7000000000001),
])
def test_xi_range_counts_the_stepped_points(lo, hi, step):
    # the count comes from the quotient, the points and the last one
    # admitted are those of stepping until one passes b
    assert cli._expand_xi_token(f"{lo!r}:{hi!r}:{step!r}") == _stepped_range(lo, hi, step)


@pytest.mark.parametrize("token", [
    "0.1:0.9:1e-300", "0.1:0.9:7.9e-7", "0.5:0.5:1e-300", "-1e308:1e308:1",
    "0.1:inf:0.1", "0.1:0.9:inf", "nan:0.9:0.1", "0.1:0.9:nan",
])
def test_xi_range_without_end_is_a_usage_error(token, tmp_path, capsys):
    # a range of more points than the cap (or with no end at all) is
    # refused before a single point is built
    with pytest.raises(cli.UsageError):
        cli._expand_xi_token(token)
    assert cli.main(["--command", "scan", f"--xi={token}", "--out", str(tmp_path / "t.csv")]) == 2
    assert "--xi range" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_xi_range_cap_admits_a_million_points():
    assert len(cli._expand_xi_token("0:0.999999:1e-6")) == 10**6
    with pytest.raises(cli.UsageError, match="more than 1000000 points"):
        cli._expand_xi_token("0:1:1e-6")


def test_parse_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    config = cli.parse_args(["--command", "fock", "--format", "json"])
    assert config.output_path == str(tmp_path / "fock.json")


def test_explicit_out_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    config = cli.parse_args(["--out", "here.csv"])
    assert config.output_path == "here.csv"


@pytest.mark.parametrize(
    "argv",
    [
        ["--xi", "1.5"],
        ["--xi", "0"],
        ["--xi", "abc"],
        ["--xi", "0.9:0.1:0.1"],
        ["--xi", "0.1:0.9"],
        ["--parties", "3"],
        ["--xi", "0.1:0.9:0"],
        ["--order", "0"],
        ["--command", "verify", "--order", "1"],
        ["--command", "minimize-q", "--order", "1"],
        ["--command", "overlap", "--parties", "4", "--format", "json"],
        ["--command", "fock", "--parties", "6"],
        ["--command", "verify", "--parties", "4"],
        ["--command", "minimize-q", "--parties", "6"],
        ["--command", "profile", "--order", "1"],
        ["--command", "scan", "--order", "5"],
        ["--command", "overlap", "--order", "5"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("minuncert: ") and err.count("\n") == 1


@pytest.mark.parametrize("parties", ["7", "12", "0"])
def test_parties_beyond_route_b_cap_exit_2(parties, tmp_path, capsys):
    # every even N from 2 to twice route B's reach, and no other, names the cap
    out = str(tmp_path / "table.csv")
    assert cli.main(["--command", "scan", "--parties", parties, "--out", out]) == 2
    err = capsys.readouterr().err
    assert multipartite.ROUTE_B_MAX_N == 5
    assert err == f"minuncert: parties must be an even number from 2 to 10 (route B's cap), " \
                  f"got {parties}\n"


@pytest.mark.parametrize("out", ["dir", "file/table.csv"], ids=["directory", "under-a-file"])
def test_unwritable_out_exits_2(out, tmp_path, capsys):
    # a path that cannot be written is a bad invocation, not a failed check
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    argv = ["--command", "scan", "--xi", "0.5", "--out", str(tmp_path / out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("minuncert: cannot write ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.parse_args(["--command", "explode"])


# --- the program and its exit ---------------------------------------------


def test_program_writes_the_in_process_table(tmp_path):
    # the route of the console script and of python -m: the same bytes as
    # main(argv), and nothing on stderr
    argv = ["--command", "scan", "--parties", "4", "--xi", "0.5"]
    proc = run_program(*argv, "--out", str(tmp_path / "program.csv"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(argv + ["--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "program.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("argv,status,message", [
    (["--command", "minimize-q", "--order", "1"], 2, "minuncert: "),
    (["--command", "scan", "--parties", "2", "--xi", "1e-300"], 1, "scan: aborted"),
], ids=["usage", "hard-failure"])
def test_program_reports_failures_without_traceback(argv, status, message, tmp_path):
    proc = run_program(*argv, "--out", str(tmp_path / "table.csv"))
    assert proc.returncode == status
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,status", [
    (["--command", "scan", "--xi", "0.5"], 0),
    (["--command", "scan", "--xi", "1e-300"], 1),
    (["--command", "minimize-q", "--order", "1"], 2),
    (["--command", "explode"], 2),
], ids=["table", "hard-failure", "usage", "argparse"])
def test_program_exits_with_a_frozen_heap(argv, status, tmp_path):
    # whatever the outcome, what runs after main (here an atexit handler)
    # finds the heap frozen, so the collections of interpreter shutdown
    # skip it; the heap was not frozen before main ran
    code = f"""
import atexit, gc, runpy, sys
print(gc.get_freeze_count())
atexit.register(lambda: print(gc.get_freeze_count() > 0))
sys.argv = ["minuncert", *{argv!r}, "--out", sys.argv[1]]
try:
    runpy.run_module("minuncert.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code)
"""
    lines = run_fresh(code, str(tmp_path / "table.csv")).split()
    assert lines == ["0", str(status), "True"]


_EVERY_COMMAND_KIND = [
    (["--command", "verify"], 0),
    (["--command", "scan", "--parties", "2", "--xi", "0.5"], 0),
    (["--command", "scan", "--parties", "4", "--xi", "0.5"], 0),
    (["--command", "scan", "--parties", "6", "--xi", "0.5"], 0),
    (["--command", "profile", "--parties", "2", "--order", "5"], 0),
    (["--command", "profile", "--parties", "6", "--xi", "0.5", "--order", "5"], 0),
    (["--command", "minimize-q", "--order", "40"], 0),
    (["--command", "fock"], 0),
    (["--command", "overlap"], 0),
    (["--command", "scan", "--xi", "1e-300"], 1),
    (["--command", "minimize-q", "--order", "1"], 2),
]


@pytest.mark.parametrize("argv,status", _EVERY_COMMAND_KIND,
                         ids=[" ".join(argv[1:4]) for argv, _ in _EVERY_COMMAND_KIND])
def test_main_with_argv_never_freezes(argv, status, tmp_path):
    # pytest and the traced benchmark child call main(argv) in a process
    # that goes on: a heap frozen there would keep its cycles for good
    frozen = gc.get_freeze_count()
    assert cli.main(argv + ["--out", str(tmp_path / "table.csv")]) == status
    assert gc.get_freeze_count() == frozen


# --- verify ---------------------------------------------------------------


def test_verify_passes(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "verify"]) == 0
    header, rows = read_csv(tmp_path / "verify.csv")
    assert header == ["check", "value", "reference", "tolerance", "passed"]
    by_name = {row[0]: row for row in rows}
    assert all(row[4] == "true" for row in rows)
    lam = float(by_name["q_min_eigenvalue"][1])
    assert lam == pytest.approx(LAMBDA_MIN_200, abs=1e-12)
    assert by_name["shell_identity_check"][1] == "1"
    assert "alpha_beta_certificate" in by_name
    for name in ("bipartite_route_agreement", "z4_shortcut_agreement", "z6_shortcut_agreement"):
        assert float(by_name[name][3]) == 1e-12
    assert len(rows) >= 25


def test_verify_angular_pass_radii(tmp_path, monkeypatch):
    # verify makes one angular pass, at every 32nd radius of radial_rule(0.5)
    # (13 radii), which f_closed and the mesh's closed r f' are both checked
    # against.  No product or norm reads the angular pass: route B's f and
    # r f' are the mesh's closed forms.  The count changes only with the
    # radial rule or the battery
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    radii = []
    real = bipartite._angular_kernel_integral

    def counted(xi, r, order):
        radii.append(np.size(r))
        return real(xi, r, order)

    monkeypatch.setattr(bipartite, "_angular_kernel_integral", counted)
    assert cli.main(["--command", "verify"]) == 0
    assert radii == [13]


def test_verify_reports_a_raising_angular_pass_as_red_rows(tmp_path, monkeypatch, capsys):
    # the battery's one angular pass feeds the two rows that check the
    # closed f and r f' against f's definition, and no other
    def broken(*args):
        raise RuntimeError("angular pass unavailable")

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(bipartite, "_angular_kernel_integral", broken)
    assert cli.main(["--command", "verify"]) == 1
    assert "angular pass unavailable" in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "verify.csv")
    assert [row[0] for row in rows if row[4] == "false"] == ["f_route_agreement",
                                                              "rf_route_agreement"]
    assert len(rows) == 31


def test_verify_negative_control(tmp_path, monkeypatch, capsys):
    # corrupt one exact coefficient table entry; the battery must go red
    # and name the failing check
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    real = b_coefficients
    fake2 = OperatorCoefficients(
        b=(Fraction(1), Fraction(201, 100)),
        prefactor=Fraction(1, 30),
    )

    def patched(n):
        return fake2 if n == 2 else real(n)

    monkeypatch.setattr(multipartite, "b_coefficients", patched)
    assert cli.main(["--command", "verify"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err
    assert "b_coefficients" in err
    header, rows = read_csv(tmp_path / "verify.csv")
    by_name = {row[0]: row for row in rows}
    # the table, P_n at the integers and P_n at its roots all read b_2
    for name in ("b_coefficients", "pascal_inverse", "pochhammer_roots"):
        assert by_name[name][4] == "false"


def test_verify_shell_row_reads_the_coefficients(tmp_path, monkeypatch, capsys):
    # the shell identity sums the squared coefficients of each shell
    # n + m = 4N against the closed shell sum: coefficients off by 1e-6
    # beyond the vacuum must turn that row red, and no other
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    real = checks.fock_coeff

    def scaled(n, m, xi):
        return real(n, m, xi) * (1.0 + 1e-6 if n + m >= 4 else 1.0)

    monkeypatch.setattr(checks, "fock_coeff", scaled)
    assert cli.main(["--command", "verify"]) == 1
    assert "FAILED shell_sum_structure\n" in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "verify.csv")
    assert [row[0] for row in rows if row[4] == "false"] == ["shell_sum_structure"]


def test_verify_vacuum_row_reads_the_coefficients(tmp_path, monkeypatch, capsys):
    # the vacuum coefficient c(0, 0) = c0 meets <f, vacuum> on the radial
    # rule: c0 off by 1e-9 in the coefficients turns that row red, and
    # the shell row that sums the same coefficients, and no other
    real = bipartite._fock_coeff

    def perturbed(n, m, v, c0, central):
        return real(n, m, v, c0 * (1.0 + 1e-9), central)

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(bipartite, "_fock_coeff", perturbed)
    assert cli.main(["--command", "verify"]) == 1
    _, rows = read_csv(tmp_path / "verify.csv")
    assert [row[0] for row in rows if row[4] == "false"] == ["overlap_vacuum",
                                                              "shell_sum_structure"]


def test_verify_vacuum_row_reads_k(tmp_path, monkeypatch):
    # the vacuum row divides <f, vacuum> by the rule's own ||f||, so its
    # quadrature side is free of K while c0 = sqrt(pi / (2K)) is not: K off
    # by 1e-6 everywhere, f on the radial rule included (fresh caches),
    # turns it red with the other rows that read K on one side only, among
    # them ||f||^2 = 1 on the rule, as f is proportional to 1 / sqrt(K)
    real = bipartite.ellip_k

    def scaled(*args, **kwargs):
        return real(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(bipartite, "ellip_k", scaled)
    for module, name in ((bipartite, "_radial_mesh"), (bipartite, "_mellin_density"),
                         (multipartite, "_chain")):
        monkeypatch.setattr(module, name, lru_cache(maxsize=32)(getattr(module, name).__wrapped__))
    assert cli.main(["--command", "verify"]) == 1
    _, rows = read_csv(tmp_path / "verify.csv")
    red = {row[0]: float(row[1]) for row in rows if row[4] == "false"}
    assert list(red) == ["bipartite_route_agreement", "f_norm_rule", "overlap_identity",
                         "overlap_vacuum", "z4_shortcut_agreement", "z6_shortcut_agreement"]
    assert red["overlap_vacuum"] > 4e-7
    assert red["f_norm_rule"] == pytest.approx(1.0 / (1.0 + 1e-6), rel=1e-12)


# the rows that read a family norm on route A: the products; the identity
# rows read route B's rows alone
_FAMILY_ROWS = {"z4_above_infimum", "z4_below_bound", "z4_shortcut_agreement",
                "z6_above_infimum", "z6_below_bound", "z6_shortcut_agreement"}
# the rows that read route B's chains
_RADIAL_ROWS = {"g_identity_a2", "g_identity_a32", "h_identity", "z4_shortcut_agreement",
                "z6_shortcut_agreement"}


def test_verify_reports_a_raising_layer_as_red_rows(tmp_path, monkeypatch, capsys):
    # a layer that raises fails only the rows that read it: the battery
    # still runs every other check and writes its table
    def broken(*args):
        raise RuntimeError("family norms unavailable")

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(multipartite, "_family_norms", broken)
    assert cli.main(["--command", "verify"]) == 1
    assert "family norms unavailable" in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "verify.csv")
    red = {row[0] for row in rows if row[4] == "false"}
    assert red == _FAMILY_ROWS
    assert len(rows) == 31


def test_verify_reports_a_raising_radial_pass_as_red_rows(tmp_path, monkeypatch, capsys):
    # route B's pass feeds the identity rows and route B of the products only
    def broken(*args):
        raise RuntimeError("radial pass unavailable")

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(multipartite, "_chain", broken)
    assert cli.main(["--command", "verify"]) == 1
    assert "radial pass unavailable" in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "verify.csv")
    assert {row[0] for row in rows if row[4] == "false"} == _RADIAL_ROWS


@pytest.mark.parametrize("key", [(2, 1), (3, 1), (3, 2)])
def test_identity_row_sees_a_perturbed_sibling(key, tmp_path, monkeypatch, capsys):
    # the sibling row (D - k/n) v of a chain's pass off by 1e-9 relative
    # must turn the identity row of that family red, and no row but the
    # identities that read the same row (each chain holds its own f, so f
    # is the sibling of g_2 alone in chain 2 and of g_3/2 alone in chain 3;
    # g_3/2's key is h's sibling)
    names = {multipartite.Poles(*k): name for k, name in [
        ((2, 1), "g_identity_a2"), ((3, 1), "g_identity_a32"), ((3, 2), "h_identity")]}
    key = multipartite.Poles(*key)
    real = multipartite._chain

    def perturbed(xi, n, order):
        rows = list(real(xi, n, order))
        if n == key.n:
            rows[key.k - 1] = tuple(y * (1.0 + 1e-9) for y in rows[key.k - 1])
        return tuple(rows)

    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(multipartite, "_chain", perturbed)
    assert cli.main(["--command", "verify"]) == 1
    _, rows = read_csv(tmp_path / "verify.csv")
    red = {row[0] for row in rows if row[4] == "false"}
    assert names[key] in red
    assert red == {name for k, name in names.items() if key.sibling in (k, k.sibling)}


# --- scan -----------------------------------------------------------------


def test_scan_two_party(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "scan", "--xi", "0.1:0.9:0.2"]) == 0
    header, rows = read_csv(tmp_path / "scan.csv")
    assert header == [
        "xi", "product", "separable_bound", "infimum",
        "violation_ratio", "r_value", "q0",
    ]
    assert len(rows) == 5
    products = [float(r[1]) for r in rows]
    assert all(0.125 < p < 0.25 for p in products)
    assert products == sorted(products, reverse=True)
    for r in rows:
        assert float(r[2]) == 0.25
        assert float(r[4]) == pytest.approx(0.25 / float(r[1]), rel=1e-12)
        # product reconstructs from the stored r_value
        assert float(r[1]) == pytest.approx(0.25 + 0.25 * float(r[5]), rel=1e-12)


def test_scan_four_party_above_infimum(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main([
        "--command", "scan", "--parties", "4", "--xi", "0.2:0.8:0.3",
    ]) == 0
    header, rows = read_csv(tmp_path / "scan.csv")
    assert "r_value" not in header
    for r in rows:
        assert float(r[1]) > 1.0 / 30.0
        assert float(r[2]) == 1.0 / 16.0


@pytest.mark.parametrize("parties, n, infimum", [(4, 2, 1.0 / 30.0), (6, 3, 35.0 / 4096.0)],
                         ids=["z4", "z6"])
def test_scan_default_grid_meets_nested_route(parties, n, infimum, tmp_path, monkeypatch):
    # over the default grid (19 xi) the products of route A fall strictly,
    # stay above the infimum and meet the nested route B to 4e-15
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "scan", "--parties", str(parties)]) == 0
    _, rows = read_csv(tmp_path / "scan.csv")
    xis = [float(r[0]) for r in rows]
    products = [float(r[1]) for r in rows]
    assert xis == [round(0.05 * k, 2) for k in range(1, 20)]
    assert all(a > b for a, b in zip(products, products[1:]))
    assert products[-1] > infimum
    for xi, product in zip(xis, products):
        assert product == pytest.approx(multipartite.functional_z(n, xi), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("parties", [8, 10])
def test_scan_beyond_six_parties_meets_nested_route(parties, tmp_path):
    # every even N up to route B's cap: each row is route A's z_product and
    # meets route B's functional_z to 1e-13 through both ends of the xi range
    n = parties // 2
    grid = [1e-12, 0.5, 0.9, 1.0 - 1e-12]
    out = tmp_path / "scan.csv"
    argv = ["--command", "scan", "--parties", str(parties), "--out", str(out)]
    assert cli.main(argv + [arg for xi in grid for arg in ("--xi", repr(xi))]) == 0
    _, rows = read_csv(out)
    assert [float(row[0]) for row in rows] == grid
    for xi, *cells in ([float(v) for v in row] for row in rows):
        rep = multipartite.z_product(n, xi)
        assert cells == [rep.product, rep.separable_bound, rep.infimum, rep.violation_ratio]
        assert rep.product == pytest.approx(multipartite.functional_z(n, xi), rel=1e-13, abs=0)


@pytest.mark.parametrize("parties", [8, 10])
def test_profile_beyond_six_parties_is_the_family(parties, tmp_path):
    # each column is v_n / ||v_n|| at r^N, sign fixed at the origin, times
    # the front factor: finite, positive at r = 0
    n = parties // 2
    out = tmp_path / "profile.csv"
    assert cli.main(["--command", "profile", "--parties", str(parties), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["r", "psi_xi=0.1", "psi_xi=0.5", "psi_xi=0.9"]
    cells = np.array(rows, dtype=float)
    front = math.sqrt(math.factorial(n) / math.pi**n)
    for x, column in zip((0.1, 0.5, 0.9), cells[:, 1:].T):
        assert np.all(np.isfinite(column)) and column[0] > 0.0
        value = multipartite.family(n, x).value(cells[:, 0] ** parties)
        assert np.array_equal(column, front * (value if value[0] >= 0.0 else -value))


def test_scan_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    argv = ["--command", "scan", "--xi", "0.3", "--xi", "0.6"]
    assert cli.main(argv) == 0
    first = (tmp_path / "scan.csv").read_bytes()
    assert cli.main(argv) == 0
    second = (tmp_path / "scan.csv").read_bytes()
    assert first == second


def test_scan_json_document(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main([
        "--command", "scan", "--xi", "0.4", "--format", "json",
    ]) == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["command"] == "scan"
    assert doc["parties"] == 2
    assert doc["columns"][0] == "xi"
    assert len(doc["rows"]) == 1
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["xi"] == 0.4
    assert 0.125 < row["product"] < 0.25


# --- profile --------------------------------------------------------------


def test_profile_small_xi_is_gaussian(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main([
        "--command", "profile", "--xi", "0.0001", "--order", "41",
    ]) == 0
    header, rows = read_csv(tmp_path / "profile.csv")
    assert header[0] == "r"
    assert len(rows) == 41
    for row in rows[::8]:
        r = float(row[0])
        psi = float(row[1])
        gauss = math.exp(-0.5 * r * r) / math.sqrt(math.pi)
        assert psi == pytest.approx(gauss, abs=2e-4)


def test_profile_origin_grows_with_xi(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main([
        "--command", "profile", "--xi", "0.1", "--xi", "0.5", "--xi", "0.9",
        "--order", "9",
    ]) == 0
    header, rows = read_csv(tmp_path / "profile.csv")
    first = rows[0]
    assert float(first[0]) == 0.0
    vals = [float(v) for v in first[1:]]
    assert vals[0] < vals[1] < vals[2]
    # spot value against the wave function on the axis
    r1 = rows[2]
    assert float(r1[2]) == pytest.approx(
        wavefunction(float(r1[0]), 0.0, 0.5), rel=1e-9
    )


def test_profile_headers_name_each_xi_exactly(tmp_path):
    # 15 significant digits: xi values that agree to 6 digits keep apart,
    # and one just below 1 is not printed as 1
    out = tmp_path / "profile.csv"
    for xis, names in (
        (("0.1234561", "0.1234562"), ["psi_xi=0.1234561", "psi_xi=0.1234562"]),
        (("0.999999999999",), ["psi_xi=0.999999999999"]),
        # 15 digits would print "1"; the last float below 1 keeps all of its
        (("0.9999999999999999",), ["psi_xi=0.9999999999999999"]),
    ):
        argv = ["--command", "profile", "--order", "3", "--out", str(out)]
        for x in xis:
            argv += ["--xi", x]
        assert cli.main(argv) == 0
        header, _ = read_csv(out)
        assert header == ["r"] + names


def test_two_party_profile_one_call_per_column(tmp_path, monkeypatch):
    # the closed form is elementwise, so each xi column is one call
    calls = []
    kernel = bipartite.log_i0e

    def counted(z):
        calls.append(np.size(z))
        return kernel(z)

    monkeypatch.setattr(bipartite, "log_i0e", counted)
    assert cli.main([
        "--command", "profile", "--parties", "2", "--xi", "0.1", "--xi", "0.5",
        "--order", "4001", "--out", str(tmp_path / "profile.csv"),
    ]) == 0
    assert calls == [4001, 4001]


def test_two_party_profile_near_xi_one(tmp_path):
    # up to the last float below 1 the two-party table exits 0 with every
    # cell on scipy's i0e arrangement of f, to the bound of the closed form
    xis = ["0.5", "0.999", "0.999999", "0.999999999", "0.999999999999", "0.9999999999999999"]
    out = tmp_path / "profile.csv"
    argv = ["--command", "profile", "--parties", "2", "--order", "81", "--out", str(out)]
    for x in xis:
        argv += ["--xi", x]
    assert cli.main(argv) == 0
    header, rows = read_csv(out)
    assert header == ["r"] + [f"psi_xi={x}" for x in xis]
    cells = np.array(rows, dtype=float)
    r = np.linspace(0.0, 4.0, 81)
    assert np.array_equal(cells[:, 0], r)
    for col, x in enumerate(xis, start=1):
        ref = f_scipy(float(x), r**2) / math.sqrt(math.pi)
        assert np.all(np.abs(cells[:, col] - ref) <= 1e-11 * ref)


def test_profile_higher_families_positive_at_origin(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    for parties in (4, 6):
        assert cli.main([
            "--command", "profile", "--parties", str(parties),
            "--xi", "0.5", "--order", "5",
        ]) == 0
        _, rows = read_csv(tmp_path / "profile.csv")
        assert float(rows[0][1]) > 0.0
        assert len(rows) == 5


@pytest.mark.parametrize("xi", ["1e-12", "0.999999999999", "0.9999999999999999"])
@pytest.mark.parametrize("parties", [4, 6])
def test_profile_sweep_rule_orders_agree(tmp_path, xi, parties):
    # at the ends of the xi range the four- and six-party profiles come
    # out, and every cell, norm included, matches front v / ||v|| of v_n
    # taken by the layers at a second rule order (the Laplace pass and the
    # Mellin density, each kept per rule order) to a few ulps of the
    # column maximum
    out = tmp_path / "profile.csv"
    assert cli.main(["--command", "profile", "--parties", str(parties), "--xi", xi,
                     "--order", "41", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    lo = np.array([float(row[1]) for row in rows])
    n = parties // 2
    key = multipartite._v_key(n)
    v = multipartite._laplace(float(xi), np.linspace(0.0, 4.0, 41) ** parties, key, 24)[0]
    v = v / math.sqrt(multipartite._family_norms(float(xi), key, 24))
    hi = math.sqrt(math.factorial(n) / math.pi**n) * (v if v[0] >= 0.0 else -v)
    assert np.all(np.isfinite(lo)) and lo[0] > 0.0
    assert np.max(np.abs(lo - hi)) <= 5e-15 * np.max(np.abs(lo))


# --- the ends of the xi range --------------------------------------------

_LIBRARY_PRODUCT = {2: bipartite.uncertainty_product,
                    **{2 * n: partial(multipartite.z_product, n) for n in range(2, 6)}}


@pytest.mark.parametrize("xi", [1e-12, 1.0 - 1e-15, 0.9999999999999999])
@pytest.mark.parametrize("parties", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("command", ["scan", "profile"])
def test_xi_sweep_tables_are_finite(command, parties, xi, tmp_path):
    # at both ends of the xi range each table comes out with every cell
    # finite, and each scan product is the library's own, above its infimum
    out = tmp_path / "table.csv"
    assert cli.main(["--command", command, "--parties", str(parties), "--xi", repr(xi),
                     "--out", str(out)]) == 0
    header, rows = read_csv(out)
    if header[-1] == "q0":
        # left unasserted: q0 = c2 - hypot(c1, c2) cancels to exactly 0.0
        # for xi >= 1 - 1e-9, and its fix moves the q0 column of the
        # benchmark's reference tables, so it waits for their re-record
        rows = [row[:-1] for row in rows]
    cells = [[float(v) for v in row] for row in rows]
    assert all(math.isfinite(v) for row in cells for v in row)
    if command == "scan":
        x, product, _, infimum = cells[0][:4]
        rep = _LIBRARY_PRODUCT[parties](xi)
        assert (x, product, infimum) == (xi, rep.product, rep.infimum)
        assert product > infimum
    else:
        assert len(cells) == 81 and cells[0][1] > 0.0


@pytest.mark.parametrize("xi", [1e-12, 1.0 - 1e-15, 0.9999999999999999])
@pytest.mark.parametrize("command", ["overlap", "fock"])
def test_xi_sweep_overlap_and_fock_tables(command, xi, tmp_path):
    # the same ends of the xi range for the two remaining tables: each
    # comes out with every cell finite and equal to the library's own
    # overlap or number-basis coefficient at its row
    out = tmp_path / "table.csv"
    assert cli.main(["--command", command, "--xi", repr(xi), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    cells = [[float(v) for v in row] for row in rows]
    assert cells and all(math.isfinite(v) for row in cells for v in row)
    for row in cells:
        if command == "overlap":
            a, b, value = row
            assert (a, b, value) == (xi, xi, overlap(a, b))
        else:
            x, n, m, _, value = row
            assert x == xi and value == fock_coeff(int(n), int(m), x)


def test_fock_table_past_the_float_range_of_the_binomials(tmp_path):
    # from n + m = 1032 on the central binomials exceed a double; the
    # table still comes out whole, every cell positive and finite
    out = tmp_path / "fock.csv"
    assert cli.main(["--command", "fock", "--order", "1100", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 76176
    assert all(0.0 < float(row[-1]) < 1.0 for row in rows)
    x, n, m, _, value = rows[-1]
    assert (int(n) + int(m), float(value)) == (1100, fock_coeff(int(n), int(m), float(x)))


# --- the remaining commands -----------------------------------------------


def test_minimize_q_routes_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "minimize-q", "--format", "json"]) == 0
    doc = json.loads((tmp_path / "minimize-q.json").read_text())
    rows = {r[0]: dict(zip(doc["columns"], r)) for r in doc["rows"]}
    assert set(rows) == {"eigen", "closed_form"}
    assert abs(rows["eigen"]["q_min"] - rows["closed_form"]["q_min"]) < 1e-4
    assert rows["eigen"]["order"] == 200
    assert rows["closed_form"]["xi_min"] == pytest.approx(0.318674, abs=1e-4)
    for r in rows.values():
        assert r["product"] == pytest.approx(0.25 + r["q_min"], rel=1e-12)


def test_fock_table(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "fock", "--order", "6"]) == 0
    header, rows = read_csv(tmp_path / "fock.csv")
    assert header == ["xi", "n", "m", "mod4_class", "coeff"]
    pairs = {(int(r[1]), int(r[2])) for r in rows}
    assert pairs == {(0, 0), (0, 4), (2, 2), (4, 0)}
    by_pair = {(int(r[1]), int(r[2])): float(r[4]) for r in rows}
    assert by_pair[(0, 0)] == pytest.approx(C00_HALF, rel=1e-12)
    assert by_pair[(0, 4)] == by_pair[(4, 0)]
    for (n, m), v in by_pair.items():
        assert v == pytest.approx(fock_coeff(n, m, 0.5), rel=1e-13)


def test_overlap_table(tmp_path, monkeypatch):
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "overlap"]) == 0
    header, rows = read_csv(tmp_path / "overlap.csv")
    assert header == ["xi_a", "xi_b", "overlap"]
    # upper triangle of a 5-point grid
    assert len(rows) == 15
    table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert table[(0.3, 0.7)] == pytest.approx(OVERLAP_03_07, rel=1e-12)
    for (a, b), v in table.items():
        assert v == pytest.approx(overlap(a, b), rel=1e-13)
        if a == b:
            assert v == pytest.approx(1.0, abs=1e-13)


def test_overlap_table_is_overlap_bit_for_bit(monkeypatch):
    # run_overlap takes K once per grid value; every cell must still be
    # exactly the value overlap(a, b) returns
    written = []
    monkeypatch.setattr(cli, "write_table", lambda config, columns, rows: written.extend(rows))
    grid = (1e-9, 0.1, 0.3, 0.5, 0.7, 0.999, 1.0 - 1e-12)
    config = cli.RunConfig("overlap", 2, grid, None, "overlap.csv", "csv")
    assert cli.run_overlap(config) == 0
    expected = [[a, b, overlap(a, b)] for i, a in enumerate(grid) for b in grid[i:]]
    assert written == expected


@pytest.mark.parametrize("rows", [
    [[-0.0, 0.0, float("nan"), float("inf"), -float("inf")],
     [5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]],
    [[None, True, False, 3, -0.0], ["name", 1e300, 10**20, float("nan"), None]],
    [[0.5, 7], [0.25, 0.125]],
    [[0.5, 0.25], [0.125]],
    [[0.5, 7, 10**20], [-0.0, -3, 0]],
    [[True, 1], [False, 2]],
])
def test_csv_rows_match_per_cell_formatting(rows, tmp_path):
    # a table of floats and ints whose full rows share the first row's
    # cell types takes one format call, any other one _cell per value;
    # either way the bytes are those of the per-cell join
    out = tmp_path / "table.csv"
    config = cli.RunConfig("scan", 2, (0.5,), None, str(out), "csv")
    columns = [f"c{i}" for i in range(len(rows[0]))]
    cli.write_table(config, columns, rows)
    lines = [",".join(columns)] + [",".join(cli._cell(v) for v in row) for row in rows]
    assert out.read_text(encoding="ascii") == "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["--command", command] for command in cli._COMMAND_TABLE] + [
    ["--command", command, "--parties", parties]
    for command in ("scan", "profile") for parties in ("4", "6")] + [
    ["--command", "fock", "--order", "1100"]], ids=" ".join)
def test_command_tables_match_per_cell_formatting(argv, monkeypatch):
    # each command's default table, and the int columns of a large fock
    # table, come out of _csv_text as the per-cell join would write them
    tables = []
    monkeypatch.setattr(cli, "write_table", lambda config, columns, rows: tables.append(
        (columns, rows)))
    cli.main(argv)
    [(columns, rows)] = tables
    lines = [",".join(columns)] + [",".join(cli._cell(v) for v in row) for row in rows]
    assert cli._csv_text(columns, rows) == "\n".join(lines) + "\n"


def test_csv_floats_roundtrip(tmp_path, monkeypatch):
    # %.17g must reproduce the doubles bit for bit
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "overlap", "--xi", "0.3", "--xi", "0.7"]) == 0
    _, rows = read_csv(tmp_path / "overlap.csv")
    val = [float(r[2]) for r in rows if r[0] != r[1]][0]
    assert val == overlap(0.3, 0.7)


def test_operator_at_sees_a_corrupted_entry(monkeypatch):
    # P_n of the b table meets C(jn, n) at j = 0..n and vanishes at its
    # roots j/n; one wrong entry b_k, the first or the last, must break both
    real = b_coefficients
    for n in (1, 5, 12):
        assert [checks._operator_at(n, j) for j in range(n + 1)] == [
            math.comb(j * n, n) for j in range(n + 1)]
        assert all(checks._operator_at(n, Fraction(j, n)) == 0 for j in range(n))
    for n, k in ((5, 0), (5, 4), (12, 11)):
        b = list(real(n).b)
        b[k] += Fraction(1, 10**6)
        bad = real(n)._replace(b=tuple(b))
        monkeypatch.setattr(multipartite, "b_coefficients",
                            lambda m, n=n, bad=bad: bad if m == n else real(m))
        assert any(checks._operator_at(n, j) != math.comb(j * n, n) for j in range(n + 1))
        assert any(checks._operator_at(n, Fraction(j, n)) != 0 for j in range(n))
