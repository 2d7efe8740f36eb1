"""The command line. Each argv whose exit code, verdicts or stderr tell the
whole story is a row of the CLI case table (cli_cases.py), which the
installed console script runs too; a failing row of a sampled run is a row
of the bad-row table. The tests below read more of a report.
"""

import json
import re
import time

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
import tgeo.variation as variation
from tgeo.cli import RunConfig, UsageError, main

import bad_rows
import cli_cases
from conftest import printed_tests

globals().update(printed_tests(__name__, cli_cases.CASES + bad_rows.ROWS))


def run_cli(capsys, args, expect=None):
    code = main(args)
    out = capsys.readouterr().out
    if expect is not None:
        assert code == expect, out
    return code, out


def strip_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9eE.+-]+', '"wall_time_s": 0', text)


# -- config handling ------------------------------------------------------------


def test_runconfig_validation():
    """The checks on values; the choices of field, mode and format are
    checked where a flag or a config value is parsed (see
    test_config_value_outside_its_choices_exits_two)."""
    good = RunConfig(command="verify", suite="codazzi")
    good.validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", dim=1).validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", field="hopf", dim=4).validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", radius=0.0).validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", samples=0).validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", tol=-1.0).validate()


def test_meridian_even_dim_allowed():
    RunConfig(command="verify", field="meridian", dim=2).validate()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nfield = hopf\ndim = 5\nsamples=7\ntol = 1e-5\n")
    parsed = cli._parse_config_file(str(cfg), "verify")
    assert parsed == {"field": "hopf", "dim": 5, "samples": 7, "tol": 1e-5}
    cfg.write_text("fiber-steps = 80\nsamples = 8\n")
    assert cli._parse_config_file(str(cfg), "variation") == {"fiber_steps": 80,
                                                             "samples": 8}


def test_config_file_rejects_unknown_key(tmp_path):
    """A key that no command reads, the retired ``tol_fd`` spelling among
    them, is unknown to every command."""
    cfg = tmp_path / "bad.cfg"
    for text in ("warp_factor = 9\n", "tol_analytic = 1e-6\n", "tol_fd = 1e-5\n",
                 "tol-fd = 1e-5\n", "config = other.cfg\n"):
        cfg.write_text(text)
        for command in cli._READS:
            with pytest.raises(UsageError, match="unknown config key"):
                cli._parse_config_file(str(cfg), command)


def test_config_file_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("just some words\n", "dim = three\n"):
        cfg.write_text(text)
        with pytest.raises(UsageError):
            cli._parse_config_file(str(cfg), "verify")
    # a malformed value is a usage error (exit 2), not a failed verification
    assert main(["verify", "codazzi", "--config", str(cfg)]) == 2
    assert "dim" in capsys.readouterr().err


# -- each command takes the options it reads, and no other ------------------------


@pytest.mark.parametrize("command,reads", [
    ("verify", "field dim radius samples tol"),
    ("scan-curvature", "dim planes mode"),
    ("variation", "dim samples fiber-steps"),
    ("svd", "field dim radius theta"),
], ids=["verify", "scan-curvature", "variation", "svd"])
def test_help_lists_exactly_the_flags_a_command_reads(capsys, command, reads):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
    assert listed == {f"--{name}" for name in (*reads.split(), "seed", "out",
                                                "format", "config", "help")}


# -- exit codes -------------------------------------------------------------------


def test_verify_nonunit_radius_fails_with_pattern_report(capsys):
    code, out = run_cli(capsys, ["verify", "totally-geodesic", "--field", "hopf",
                                 "--dim", "3", "--radius", "2",
                                 "--samples", "5", "--seed", "42"])
    assert code == 1
    rep = json.loads(out)[0]
    assert rep["verdict"] == "fail"
    assert abs(rep["max_residual"] - 0.075) < 1e-4
    notes = " ".join(rep["notes"])
    # the report must say which closed form the value matched
    assert "matches: (1/2) K (1-K) / (1+K)" in notes


def test_verify_hopf_far_off_unit_radius_fails_below_tolerance(capsys):
    """At radius 1e4 the closed-form peak (1/2) K (1-K)/(1+K) is 5e-9, far
    inside the tolerance, yet the field is still not totally geodesic."""
    code, out = run_cli(capsys, ["verify", "totally-geodesic", "--radius",
                                 "1e4", "--samples", "5"])
    assert code == 1
    rep = json.loads(out)[0]
    assert rep["verdict"] == "fail"
    assert rep["max_residual"] <= rep["tolerance"]
    assert abs(rep["max_residual"] - 5e-9) < 1e-12
    assert "closed-form peak 5.000e-09 is nonzero" in rep["notes"][-1]


@pytest.mark.parametrize("argv", [
    ["verify", "jacobi", "--samples", "2"],
    ["scan-curvature", "--planes", "4", "--format", "csv"],
], ids=["verify", "scan"])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    """A report that cannot be written (a missing directory, a directory)
    exits 2, not 1 with a traceback."""
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write report: ")
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0  # the process's one parser, again
    assert capsys.readouterr().out.count("usage: tgeo") == 2


# -- one parser per process -------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_scan_mode_does_not_carry_over(capsys):
    run_cli(capsys, ["scan-curvature", "--mode", "bundle", "--planes", "5"],
            expect=0)
    _, out = run_cli(capsys, ["scan-curvature", "--planes", "5"], expect=0)
    rep = json.loads(out)[0]
    assert rep["name"] == "scan-submanifold"
    assert rep["parameters"]["mode"] == "submanifold"


def test_verify_field_does_not_carry_over(capsys):
    args = ["verify", "predicates", "--dim", "3", "--samples", "3"]
    run_cli(capsys, args + ["--field", "meridian"], expect=0)
    _, out = run_cli(capsys, args, expect=0)
    assert json.loads(out)[0]["parameters"]["field"] == "hopf"


def test_usage_error_then_valid_run(capsys):
    args = ["verify", "codazzi", "--samples", "3"]
    _, want = run_cli(capsys, args, expect=0)
    run_cli(capsys, ["verify", "codazzi", "--samples", "many"], expect=2)
    _, out = run_cli(capsys, args, expect=0)
    assert strip_wall_time(out) == strip_wall_time(want)
    assert json.loads(out)[0]["parameters"]["samples"] == 3


# -- suites over the cli ---------------------------------------------------------


def test_scan_curvature_both_times_each_scan(capsys):
    t0 = time.perf_counter()
    _, out = run_cli(capsys, ["scan-curvature", "--dim", "3", "--planes", "300",
                              "--mode", "both"], expect=0)
    elapsed = time.perf_counter() - t0
    times = [r["wall_time_s"] for r in json.loads(out)]
    assert len(times) == 2 and all(t > 0.0 for t in times)
    assert sum(times) <= elapsed


def test_scan_curvature_csv_rows(capsys):
    code, out = run_cli(capsys, ["scan-curvature", "--dim", "3",
                                 "--planes", "20", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "plane_id,type,curvature"
    # 20 planes + 2 designated sections + 2 summary rows
    assert len(lines) == 25
    for line in lines[1:21]:
        K = float(line.split(",")[2])
        assert 0.25 - 1e-9 <= K <= 1.25 + 1e-9


def test_scan_curvature_csv_summary_is_observed_range(capsys):
    """The summary rows are the range over the sampled planes that the JSON
    report states; the designated sections (1/4 and 5/4) are rows of
    their own, outside it."""
    argv = ["scan-curvature", "--dim", "3", "--planes", "200", "--mode", "both"]
    _, out = run_cli(capsys, argv + ["--format", "csv"], expect=0)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    _, out = run_cli(capsys, argv, expect=0)
    notes = {r["name"]: r["notes"][0] for r in json.loads(out)}
    for kind in ("submanifold", "bundle"):
        ks = [float(K) for pid, k, K in rows if k == kind and pid.isdigit()]
        assert len(ks) == 200
        summary = {stat: float(K) for pid, stat, K in rows
                   if pid == f"summary-scan-{kind}"}
        assert summary == {"min": min(ks), "max": max(ks)}
        assert f"[{min(ks):.9f}, {max(ks):.9f}]" in notes[f"scan-{kind}"]
    sections = {pid: float(K) for pid, _, K in rows if pid.endswith("-section")}
    lo, hi = (float(K) for pid, _, K in rows if pid == "summary-scan-submanifold")
    assert sections["xi-section"] < lo and hi < sections["phi-section"]


def test_variation_report_times_its_quadrature(capsys, monkeypatch):
    real = variation.integrate_over_sphere

    def slow(*args):
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(variation, "integrate_over_sphere", slow)
    _, out = run_cli(capsys, ["variation", "--dim", "5", "--samples", "8"],
                     expect=0)
    assert json.loads(out)[0]["wall_time_s"] >= 0.2


def test_svd_tolerance_scales_with_lambda(capsys):
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--dim", "3",
                              "--theta", "0.0011"], expect=0)
    rep = json.loads(out)[0]
    lam_max = 1.0 / np.tan(0.0011)  # cot(theta) / r at unit radius
    assert rep["tolerance"] == pytest.approx(fields.TOLERANCES.analytic * lam_max,
                                             rel=1e-8)
    assert rep["tolerance"] == pytest.approx(1e-6 * 909.09, rel=1e-5)
    # a unit spectrum keeps the unscaled tolerance
    for args in (["--field", "hopf", "--dim", "7"],
                 ["--field", "meridian", "--dim", "2", "--theta",
                  str(np.pi / 4)]):
        _, out = run_cli(capsys, ["svd", *args], expect=0)
        assert json.loads(out)[0]["tolerance"] == fields.TOLERANCES.analytic


@pytest.mark.parametrize("theta", ["1.5707963267948966", "1.5707963"])
@pytest.mark.parametrize("dim", ["2", "3", "5"])
def test_svd_meridian_equator_has_no_pairs(capsys, monkeypatch, dim, theta):
    """At the equator lambda = cot(theta) is within the Killing bound, so
    the field passes the Killing check with no positive pair. Both frames are then
    completed from xi alone: every left slot of the singular frames, and
    every kernel row of the canonical frames."""
    completed = []
    real = fields._complete_frame

    def spy(assigned, candidates, total):
        completed.append((len(assigned), total))
        return real(assigned, candidates, total)

    monkeypatch.setattr(fields, "_complete_frame", spy)
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--dim", dim,
                              "--theta", theta], expect=0)
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"
    assert any(n.startswith("killing canonical pairing: 0 pairs")
               for n in rep["notes"])
    assert completed == [(1, int(dim))] * 2


@pytest.mark.parametrize("radius", ["1e-3", "1", "2", "1e4"])
def test_svd_meridian_just_off_the_equator_pairs_nothing(capsys, monkeypatch,
                                                         radius):
    """At theta 1.5707961, lambda = cot(theta) / r is 2.3e-7 / r and the
    skewness twice that: within the Killing bound 1e-6 / r. Both frames take
    lambda as zero, as the Killing check does: the canonical frames pair
    nothing and pass their frame check, and the singular frames complete
    their left slots from xi alone, as the canonical frames their kernel
    rows, at every radius."""
    completed = []
    real = fields._complete_frame

    def spy(assigned, candidates, total):
        completed.append((len(assigned), total))
        return real(assigned, candidates, total)

    monkeypatch.setattr(fields, "_complete_frame", spy)
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--radius", radius,
                              "--theta", "1.5707961"], expect=0)
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"
    assert rep["notes"][-1].startswith("killing canonical pairing: 0 pairs")
    assert completed == [(1, 3)] * 2


# -- determinism and precedence -----------------------------------------------


def test_json_byte_determinism(capsys):
    args = ["verify", "totally-geodesic", "--samples", "5", "--seed", "9"]
    _, out1 = run_cli(capsys, args, expect=0)
    _, out2 = run_cli(capsys, args, expect=0)
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_radius_range_keeps_the_studied_radii():
    for radius in (1e-3, 0.01, 1.0, 1e3, 1e4):
        RunConfig(command="verify", radius=radius).validate()
    for radius in (9.99e-4, 1.001e4):
        with pytest.raises(UsageError, match="radius must lie in"):
            RunConfig(command="verify", radius=radius).validate()


def test_out_flag_writes_file(capsys, tmp_path):
    dst = tmp_path / "report.json"
    code, out = run_cli(capsys, ["svd", "--dim", "3", "--out", str(dst)])
    assert code == 0
    assert out == ""
    data = json.loads(dst.read_text())
    assert data[0]["name"] == "svd"
    assert data[0]["schema"] == "tgeo-report/1"


# -- the tolerance table ------------------------------------------------------------

# One command per entry of tgeo.fields.TOLERANCES that the entry judges, and
# the note whose presence it decides, if the exit code and verdicts cannot
# show it (the Hopf field off unit radius fails whatever the pattern match).
TABLE_RUNS = {
    "analytic": ("verify jacobi --samples 2", None),
    "assembly": ("svd", None),
    "fd": ("verify totally-geodesic --radius 2 --samples 2",
           "matches: (1/2) K (1-K) / (1+K)"),
    "scan": ("scan-curvature --mode bundle --planes 20", None),
    "section": ("scan-curvature --planes 20", None),
    "cross": ("scan-curvature --planes 20", None),
    "fiber": ("variation --dim 5 --samples 2", None),
    "verdict": ("variation --dim 3 --samples 2", None),
}


def table_outcome(capsys, argv, note):
    """The verdicts of the reports, or the exit code where none is printed
    (exit 2 or 3), and whether ``note`` is printed. The exit code of a
    printed report is left out: ``VerificationReport.ok`` rejudges the
    residual against the report's tolerance, which would hide a verdict
    judged by a literal."""
    code = main(argv.split())
    out = capsys.readouterr().out
    return ([r["verdict"] for r in json.loads(out)] if out else code,
            note is not None and note in out)


def test_table_runs_cover_every_entry():
    assert set(TABLE_RUNS) == set(vars(fields.TOLERANCES))


@pytest.mark.parametrize("entry", TABLE_RUNS)
def test_each_tolerance_entry_decides_its_run(capsys, monkeypatch, entry):
    """Every judging site reads the table at call time: an entry set to -1
    changes its command's verdicts, exit code or named note, so a literal
    left at a judging site fails its entry here."""
    argv, note = TABLE_RUNS[entry]
    unpatched = table_outcome(capsys, argv, note)
    monkeypatch.setattr(fields.TOLERANCES, entry, -1.0)
    assert table_outcome(capsys, argv, note) != unpatched
