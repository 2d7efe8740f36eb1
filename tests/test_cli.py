import json
import re
import time

import numpy as np
import pytest

import tgeo.cli as cli
from tgeo import QuadratureFailure, SphereSpec
from tgeo.cli import RunConfig, UsageError, main


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
        RunConfig(command="verify", tol_fd=-1.0).validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", format="yaml").validate()
    with pytest.raises(UsageError):
        RunConfig(command="verify", field="dipole").validate()


def test_meridian_even_dim_allowed():
    RunConfig(command="verify", field="meridian", dim=2).validate()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nfield = hopf\ndim = 5\nsamples=7\ntol = 1e-5\n")
    parsed = cli._parse_config_file(str(cfg))
    assert parsed == {"field": "hopf", "dim": 5, "samples": 7, "tol_fd": 1e-5}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for text in ("warp_factor = 9\n", "tol_analytic = 1e-6\n"):
        cfg.write_text(text)
        with pytest.raises(UsageError, match="unknown config key"):
            cli._parse_config_file(str(cfg))


def test_config_file_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("just some words\n", "dim = three\n"):
        cfg.write_text(text)
        with pytest.raises(UsageError):
            cli._parse_config_file(str(cfg))
    # a malformed value is a usage error (exit 2), not a failed verification
    assert main(["verify", "codazzi", "--config", str(cfg)]) == 2
    assert "dim" in capsys.readouterr().err


# -- exit codes -------------------------------------------------------------------


def test_verify_pass_exit_zero(capsys):
    run_cli(capsys, ["verify", "totally-geodesic", "--field", "hopf",
                     "--dim", "3", "--radius", "1", "--samples", "10",
                     "--seed", "42"], expect=0)


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


def test_verify_meridian_fails(capsys):
    code, out = run_cli(capsys, ["verify", "totally-geodesic", "--field",
                                 "meridian", "--dim", "2", "--radius", "1",
                                 "--samples", "5"])
    assert code == 1


def test_usage_errors_exit_two(capsys):
    run_cli(capsys, ["verify", "totally-geodesic", "--dim", "4"], expect=2)
    run_cli(capsys, ["verify", "totally-geodesic", "--radius", "-2"], expect=2)
    run_cli(capsys, ["verify", "nonsense"], expect=2)
    run_cli(capsys, ["variation", "--field", "meridian", "--dim", "2"], expect=2)
    run_cli(capsys, ["verify", "jacobi", "--field", "meridian", "--dim", "2",
                     "--samples", "3"], expect=2)


def test_numerical_failure_exit_three(capsys, monkeypatch):
    def boom(config):
        raise QuadratureFailure("synthetic failure")
    monkeypatch.setitem(cli._COMMANDS, "variation", boom)
    run_cli(capsys, ["variation", "--dim", "5"], expect=3)


def test_failing_check_on_sampled_plane_exits_three(capsys, monkeypatch):
    real = SphereSpec.stacked_frames

    def bend_last_batch_row_3(self, draws):
        p, frames = real(self, draws)
        if len(draws) < cli._SCAN_CHUNK:
            frames = frames.copy()
            frames[3, 1] += 1e-3 * p[3]
        return p, frames

    monkeypatch.setattr(SphereSpec, "stacked_frames", bend_last_batch_row_3)
    planes = cli._SCAN_CHUNK + 4
    assert main(["scan-curvature", "--planes", str(planes)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: vector is not tangent to the sphere" in err
    k = planes - 1
    assert f"submanifold plane {k}, seed tuple (0, {k})" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# -- suites over the cli ---------------------------------------------------------


@pytest.mark.parametrize("suite", ["predicates", "codazzi", "jacobi", "obstruction"])
def test_suites_pass_on_unit_hopf(capsys, suite):
    code, out = run_cli(capsys, ["verify", suite, "--samples", "5"])
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"


def test_predicates_meridian_expected_profile(capsys):
    code, out = run_cli(capsys, ["verify", "predicates", "--field", "meridian",
                                 "--dim", "2", "--samples", "5"])
    assert code == 0
    notes = " ".join(json.loads(out)[0]["notes"])
    assert "killing" in notes and "expected nonzero" in notes


def test_obstruction_meridian_closed_form(capsys):
    code, out = run_cli(capsys, ["verify", "obstruction", "--field", "meridian",
                                 "--dim", "3", "--samples", "5"])
    assert code == 0
    notes = " ".join(json.loads(out)[0]["notes"])
    assert "closed-form" in notes


def test_scan_curvature_json(capsys):
    code, out = run_cli(capsys, ["scan-curvature", "--dim", "3",
                                 "--planes", "200", "--mode", "both"])
    assert code == 0
    reps = json.loads(out)
    assert {r["name"] for r in reps} == {"scan-submanifold", "scan-bundle"}
    assert all(r["verdict"] == "pass" for r in reps)


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


def test_variation_command_s5(capsys):
    code, out = run_cli(capsys, ["variation", "--dim", "5", "--samples", "32"])
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["verdict"] == "unstable"
    assert any("Monte Carlo" in n for n in rep["notes"])


def test_variation_fiber_steps_below_64_rejected(capsys):
    code = main(["variation", "--dim", "5", "--fiber-steps", "16"])
    assert code == 2
    assert "fiber-steps must be >= 64" in capsys.readouterr().err
    _, out = run_cli(capsys, ["variation", "--dim", "5", "--samples", "8",
                              "--fiber-steps", "80"], expect=0)
    rep = json.loads(out)[0]
    assert rep["parameters"]["fiber_steps"] == 80
    assert rep["samples"] == 81


def test_variation_command_s3(capsys):
    code, out = run_cli(capsys, ["variation", "--dim", "3", "--samples", "5"])
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "stable"


def test_svd_examples(capsys):
    _, out = run_cli(capsys, ["svd", "--field", "hopf", "--dim", "5"], expect=0)
    notes = " ".join(json.loads(out)[0]["notes"])
    assert "(0, 1, 1, 1, 1)" in notes
    _, out = run_cli(capsys, ["svd", "--field", "hopf", "--dim", "3",
                              "--radius", "2"], expect=0)
    notes = " ".join(json.loads(out)[0]["notes"])
    assert "(0, 0.5, 0.5)" in notes
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--dim", "2",
                              "--theta", str(np.pi / 4)], expect=0)
    notes = " ".join(json.loads(out)[0]["notes"])
    assert "(0, 1)" in notes and "no canonical pairing" in notes


def test_svd_theta_pole_rejected(capsys):
    run_cli(capsys, ["svd", "--field", "meridian", "--dim", "2",
                     "--theta", "0.0"], expect=2)


# -- determinism and precedence -----------------------------------------------


def test_json_byte_determinism(capsys):
    args = ["verify", "totally-geodesic", "--samples", "5", "--seed", "9"]
    _, out1 = run_cli(capsys, args, expect=0)
    _, out2 = run_cli(capsys, args, expect=0)
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("TGEO_SEED", "11")
    _, out = run_cli(capsys, ["verify", "codazzi", "--samples", "3"], expect=0)
    assert json.loads(out)[0]["parameters"]["seed"] == 11


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TGEO_SEED", "11")
    _, out = run_cli(capsys, ["verify", "codazzi", "--samples", "3",
                              "--seed", "4"], expect=0)
    assert json.loads(out)[0]["parameters"]["seed"] == 4


def test_config_beats_env_and_flag_beats_config(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TGEO_SEED", "11")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 5\nsamples = 3\n")
    _, out = run_cli(capsys, ["verify", "codazzi", "--config", str(cfg)],
                     expect=0)
    assert json.loads(out)[0]["parameters"]["seed"] == 5
    _, out = run_cli(capsys, ["verify", "codazzi", "--config", str(cfg),
                              "--seed", "2"], expect=0)
    assert json.loads(out)[0]["parameters"]["seed"] == 2


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("TGEO_SEED", "not-a-number")
    run_cli(capsys, ["verify", "codazzi", "--samples", "3"], expect=2)


def test_out_flag_writes_file(capsys, tmp_path):
    dst = tmp_path / "report.json"
    code, out = run_cli(capsys, ["svd", "--dim", "3", "--out", str(dst)])
    assert code == 0
    assert out == ""
    data = json.loads(dst.read_text())
    assert data[0]["name"] == "svd"
    assert data[0]["schema"] == "tgeo-report/1"


def test_csv_report_format(capsys):
    _, out = run_cli(capsys, ["verify", "codazzi", "--samples", "3",
                              "--format", "csv"], expect=0)
    assert out.splitlines()[0].startswith("name,verdict,samples")
