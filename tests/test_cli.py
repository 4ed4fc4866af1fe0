import csv
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

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


def run_fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = str(Path(minuncert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


def test_import_builds_no_kernel_table():
    # nothing is built at import: the Gauss-Legendre nodes and the cached
    # radial rows are built on first use, so commands that never touch
    # them pay nothing for them (numpy.polynomial alone costs ~5 ms to
    # import)
    code = ("import sys, minuncert.cli, minuncert.multipartite as m, minuncert.quadrature as q; "
            "print(*(f.cache_info().currsize for f in (q._gauss_legendre, m._radial_family_rows, "
            "m._p_rule)), 'numpy.polynomial' in sys.modules)")
    assert run_fresh(code).split() == ["0", "0", "0", "False"]


# numpy's compiled core, under its numpy 2 and numpy 1 names: sys.modules
# holds the lazily bound 'numpy' itself before it is loaded
_NUMPY_CORE = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def _numpy_loaded_after(commands, out):
    """Run ``commands`` in turn in one fresh interpreter; after the import
    and after each command, whether numpy's core is loaded and which
    modules of the package have run.

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
print("import", loaded(), ran())
for argv in {commands!r}:
    status = cli.main(["--command", *argv, "--out", out])
    print(argv[0], status, loaded(), ran())
"""
    lines = run_fresh(code, out).splitlines()
    return [line.rsplit(" ", 1)[0] for line in lines], [line.rsplit(" ", 1)[1] for line in lines]


def test_closed_form_commands_never_load_numpy(tmp_path):
    # numpy is bound lazily, so the two-party closed forms and the
    # tridiagonal eigen-solve run on math alone; the first array operation
    # (here the profile grid, or verify's quadratures) loads it
    out = str(tmp_path / "table.csv")
    commands = [["scan", "--parties", "2", "--xi", "0.1:0.9:0.1"], ["overlap"], ["fock"],
                ["minimize-q", "--order", "4000"], ["profile", "--parties", "2", "--order", "5"]]
    assert _numpy_loaded_after(commands, out)[0] == [
        "import False", "scan 0 False", "overlap 0 False", "fock 0 False",
        "minimize-q 0 False", "profile 0 True"]
    assert _numpy_loaded_after([["verify"]], out)[0] == ["import False", "verify 0 True"]


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
]


@pytest.mark.parametrize("argv,modules", _COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) for argv, _ in _COMMAND_MODULES])
def test_each_command_runs_only_the_modules_it_calls(argv, modules, tmp_path):
    # the import runs the package, the loader and the front end only; each
    # command then runs the modules it calls, and none it does not
    _, ran = _numpy_loaded_after([argv], str(tmp_path / "table.csv"))
    assert ran == ["_lazy,cli,minuncert", "_lazy," + modules]


def test_verify_runs_every_module(tmp_path):
    _, ran = _numpy_loaded_after([["verify"]], str(tmp_path / "table.csv"))
    every = sorted(info.name for info in pkgutil.iter_modules(minuncert.__path__))
    assert ran[1] == ",".join(sorted(every + ["minuncert"]))


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
     ("parties", "xi", "product", "separable_bound", "infimum", "violation_ratio", "route"),
     (2, XiParameter(0.5), 0.2, 0.25, 0.125, 1.25, "closed_form")),
    (cli.RunConfig,
     ("command", "parties", "xi_grid", "truncation", "output_path", "format"),
     ("scan", 4, (0.5,), 200, "scan.csv", "csv")),
    (OperatorCoefficients, ("n", "b", "prefactor"),
     (2, (Fraction(1), Fraction(2)), Fraction(1, 30))),
    (SimpleStateSolution, ("xi", "phi", "q_value", "coefficients", "tail_norm_sq"),
     (XiParameter(0.3), 0.1, -0.04, (0.9, 0.1), 1e-17)),
    (BandedSymmetricForm, ("order", "diagonal", "off_diagonal"),
     (3, np.arange(3.0), np.ones(2))),
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
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("minuncert: ") and err.count("\n") == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.parse_args(["--command", "explode"])


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
    assert len(rows) >= 25


def test_verify_angular_pass_radii(tmp_path, monkeypatch):
    # the angular passes of verify, cold: one pass on radial_rule(0.5)
    # (416 radii) for the rows of f that the nested norms of g_2, g_3/2 and
    # h share, one for the nested norm of f on radial_rule(0.7) (432) and
    # one point value of f; the count changes only with the radial rule or
    # the battery
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    radii = []
    real = bipartite._angular_kernel_integral

    def counted(xi, r, ks):
        radii.append(np.size(r))
        return real(xi, r, ks)

    monkeypatch.setattr(bipartite, "_angular_kernel_integral", counted)
    multipartite._radial_family_rows.cache_clear()
    try:
        assert cli.main(["--command", "verify"]) == 0
    finally:
        multipartite._radial_family_rows.cache_clear()
    assert sum(radii) == 849


def test_verify_negative_control(tmp_path, monkeypatch, capsys):
    # corrupt one exact coefficient table entry; the battery must go red
    # and name the failing check
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    real = b_coefficients
    fake2 = OperatorCoefficients(
        n=2,
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
    assert by_name["b_coefficients"][4] == "false"


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


def _clear_family_caches():
    multipartite._g2_norm.cache_clear()
    multipartite._cube_root_norms.cache_clear()


@pytest.mark.parametrize("xi", ["1e-12", "0.999999999999", "0.9999999999999999"])
@pytest.mark.parametrize("parties", [4, 6])
def test_profile_sweep_rule_orders_agree(tmp_path, xi, parties, monkeypatch):
    # at the ends of the xi range the four- and six-party profiles come
    # out, and every cell, norm included, matches the one of a second
    # rule order to a few ulps of the column maximum
    out = tmp_path / "profile.csv"
    argv = ["--command", "profile", "--parties", str(parties), "--xi", xi,
            "--order", "41", "--out", str(out)]
    columns = []
    try:
        for order in (16, 24):
            monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", order)
            _clear_family_caches()
            assert cli.main(argv) == 0
            _, rows = read_csv(out)
            columns.append(np.array([float(row[1]) for row in rows]))
    finally:
        _clear_family_caches()
    lo, hi = columns
    assert np.all(np.isfinite(lo)) and lo[0] > 0.0
    assert np.max(np.abs(lo - hi)) <= 5e-15 * np.max(np.abs(lo))


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
    config = cli.RunConfig("overlap", 2, grid, 200, "overlap.csv", "csv")
    assert cli.run_overlap(config) == 0
    expected = [[a, b, overlap(a, b)] for i, a in enumerate(grid) for b in grid[i:]]
    assert written == expected


@pytest.mark.parametrize("rows", [
    [[-0.0, 0.0, float("nan"), float("inf"), -float("inf")],
     [5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]],
    [[None, True, False, 3, -0.0], ["name", 1e300, 10**20, float("nan"), None]],
    [[0.5, 7], [0.25, 0.125]],
    [[0.5, 0.25], [0.125]],
])
def test_csv_rows_match_per_cell_formatting(rows, tmp_path):
    # an all-float table of full rows takes one format call, any other
    # one _cell per value; either way the bytes are those of the per-cell join
    out = tmp_path / "table.csv"
    config = cli.RunConfig("scan", 2, (0.5,), 200, str(out), "csv")
    columns = [f"c{i}" for i in range(len(rows[0]))]
    cli.write_table(config, columns, rows)
    lines = [",".join(columns)] + [",".join(cli._cell(v) for v in row) for row in rows]
    assert out.read_text(encoding="ascii") == "\n".join(lines) + "\n"


def test_csv_floats_roundtrip(tmp_path, monkeypatch):
    # %.17g must reproduce the doubles bit for bit
    monkeypatch.setenv("MINUNCERT_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["--command", "overlap", "--xi", "0.3", "--xi", "0.7"]) == 0
    _, rows = read_csv(tmp_path / "overlap.csv")
    val = [float(r[2]) for r in rows if r[0] != r[1]][0]
    assert val == overlap(0.3, 0.7)


def test_pascal_check_counts_a_corrupted_entry():
    # the integer check of fwd @ inv must see one wrong entry, whether it
    # still scales to an integer or not
    assert checks._pascal_mismatches() == 0
    for n, which, (i, j), value in (
        (5, 0, (3, 1), Fraction(1, 3)),
        (5, 1, (4, 2), Fraction(1, 13)),
        (12, 0, (11, 0), Fraction(2, math.factorial(11))),
    ):
        pair = multipartite.pascal_matrix_pair(n)
        assert checks._pair_mismatches(*pair) == 0
        pair[which][i][j] = value
        assert checks._pair_mismatches(*pair) > 0
