import json
import re
import time

import numpy as np
import pytest

import tgeo.cli as cli
import tgeo.fields as fields
import tgeo.variation as variation
from tgeo import (DecompositionFailure, DegenerateInputError, PreconditionError,
                  PropagationFailure, SphereSpec, UnitVectorField)
from tgeo.fields import TOL_ANALYTIC
from tgeo.manifold import _STREAM_CHUNK
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


# Every (command, option) pair that the command does not read, with a small
# run, so that a command that took the option would finish quickly.
_UNREAD = [
    (["verify", "totally-geodesic", "--samples", "2"], "--fiber-steps", "64"),
    (["scan-curvature", "--planes", "4"], "--field", "hopf"),
    (["scan-curvature", "--planes", "4"], "--radius", "1"),
    (["scan-curvature", "--planes", "4"], "--samples", "5"),
    (["scan-curvature", "--planes", "4"], "--fiber-steps", "64"),
    (["scan-curvature", "--planes", "4"], "--tol", "1e-4"),
    (["variation", "--samples", "2"], "--field", "hopf"),
    (["variation", "--samples", "2"], "--radius", "1"),
    (["variation", "--samples", "2"], "--tol", "1e-4"),
    (["svd"], "--samples", "5"),
    (["svd"], "--fiber-steps", "64"),
    (["svd"], "--tol", "1e-4"),
]


@pytest.mark.parametrize("argv,flag,value", _UNREAD,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in _UNREAD])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_option_a_command_does_not_read_exits_two(capsys, tmp_path, argv, flag,
                                                  value, source):
    """Given as a flag or as a config key, an option the command does not
    read is a usage error naming it, not a value silently ignored."""
    key = flag[2:].replace("-", "_")
    if source == "flag":
        args = [*argv, flag, value]
        want = flag
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args = [*argv, "--config", str(cfg)]
        want = f"config key {key!r} is not read by {argv[0]}"
    assert main(args) == 2
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_jacobi_refuses_tol(capsys, tmp_path, source):
    """The jacobi suite judges against the fixed TOL_ANALYTIC, so a --tol
    given to it would change nothing."""
    args = ["verify", "jacobi", "--samples", "2"]
    if source == "flag":
        args += ["--tol", "1e-300"]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol = 1e-300\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert "verify jacobi does not read tol" in capsys.readouterr().err
    # the other suites read it
    assert main(["verify", "codazzi", "--samples", "2", "--tol", "1e-300"]) == 1


@pytest.mark.parametrize("short,full", [
    (["svd", "--field", "meridian", "--t", "0.5"],
     ["svd", "--field", "meridian", "--theta", "0.5"]),
    (["scan-curvature", "--p", "5", "--m", "bundle"],
     ["scan-curvature", "--planes", "5", "--mode", "bundle"]),
    (["verify", "codazzi", "--sa", "3"],
     ["verify", "codazzi", "--samples", "3"]),
], ids=["svd", "scan-curvature", "verify"])
def test_abbreviated_flags_exit_two(capsys, short, full):
    """A flag is spelled in full: a prefix of a declared flag is refused by
    name, and the full spelling runs."""
    assert main(short) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and short[-2] in err
    assert main(full) == 0


@pytest.mark.parametrize("argv,key,value", [
    (["scan-curvature", "--planes", "4"], "mode", "auto"),
    (["verify", "codazzi", "--samples", "2"], "field", "dipole"),
    (["svd"], "format", "yaml"),
], ids=["mode", "field", "format"])
def test_config_value_outside_its_choices_exits_two(capsys, tmp_path, argv, key,
                                                    value):
    """A config value meets the choices its flag's parser enforces."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# {key}\n{key} = {value}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert f"config line 2: bad value for {key}: {value!r}" in capsys.readouterr().err


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
    run_cli(capsys, ["svd", "--field", "hopf", "--theta", "0.5"], expect=2)
    run_cli(capsys, ["variation", "--mode", "auto", "--samples", "1"], expect=2)


def test_numerical_failure_exit_three(capsys, monkeypatch):
    def boom(config):
        raise PropagationFailure("synthetic failure")
    monkeypatch.setitem(cli._COMMANDS, "variation", boom)
    run_cli(capsys, ["variation", "--dim", "5"], expect=3)


def test_failing_check_on_sampled_plane_exits_three(capsys, monkeypatch):
    real = SphereSpec.stacked_frames

    def bend_last_batch_row_3(self, draws):
        p, frames = real(self, draws)
        if len(draws) < _STREAM_CHUNK:
            frames = frames.copy()
            frames[3, 1] += 1e-3 * p[3]
        return p, frames

    monkeypatch.setattr(SphereSpec, "stacked_frames", bend_last_batch_row_3)
    planes = _STREAM_CHUNK + 4
    assert main(["scan-curvature", "--planes", str(planes)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: vector is not tangent to the sphere" in err
    k = planes - 1
    assert f"submanifold plane {k}, seed tuple (0, {k})" in err


def _failing_at_sample_3(monkeypatch, exc, row=3):
    """Make the verify suites' stacked singular decomposition raise ``exc``
    for the first chunk, at its fourth sample: ``.row`` is set to 3 unless
    ``row`` is None (a failure that names no sample)."""
    def decompose(xi, points):
        assert len(points) == 6  # one call for the whole chunk
        if row is not None:
            exc.row = row
        raise exc

    monkeypatch.setattr(cli, "singular_decomposition", decompose)


def test_verify_names_the_failing_sample(capsys, monkeypatch):
    _failing_at_sample_3(monkeypatch, DecompositionFailure("frames drifted"))
    assert main(["verify", "totally-geodesic", "--samples", "6",
                 "--seed", "7"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: frames drifted: sample 3, seed tuple (7, 3)" in err

    _failing_at_sample_3(monkeypatch,
                         DegenerateInputError("vector is not tangent to the sphere"))
    assert main(["verify", "obstruction", "--samples", "6"]) == 3
    assert "sphere: sample 3, seed tuple (0, 3)" in capsys.readouterr().err


def test_verify_precondition_without_row_still_exits_two(capsys, monkeypatch):
    _failing_at_sample_3(monkeypatch, PreconditionError("needs a geodesic field"),
                         row=None)
    assert main(["verify", "obstruction", "--samples", "6"]) == 2
    err = capsys.readouterr().err
    assert "error: needs a geodesic field" in err
    assert "sample" not in err


@pytest.mark.parametrize("samples,call,row", [(4, 0, 1), (cli._SAMPLE_CHUNK + 3, 1, 1)],
                         ids=["first-chunk", "second-chunk"])
def test_verify_non_finite_residual_exits_three(capsys, monkeypatch, samples,
                                                call, row):
    """A NaN in one sample's Omega is a numerical failure naming that
    sample, not a residual that max() drops."""
    real = cli.second_form_lemma
    calls = []

    def poisoned(xi, coords, sds):
        om = real(xi, coords, sds)
        calls.append(om)
        if len(calls) == call + 1:
            om = om.copy()
            om[row, 0, 1, 0] = np.nan
        return om

    monkeypatch.setattr(cli, "second_form_lemma", poisoned)
    assert main(["verify", "totally-geodesic", "--dim", "3", "--samples",
                 str(samples)]) == 3
    err = capsys.readouterr().err
    idx = call * cli._SAMPLE_CHUNK + row
    assert "non-finite lemma residual" in err
    assert f"sample {idx}, seed tuple (0, {idx})" in err


def test_verify_non_finite_per_sample_residual_exits_three(capsys, monkeypatch):
    real = cli.jacobi_relation_residual

    def poisoned(xi, coords):
        resid = real(xi, coords).copy()
        resid[2] = np.inf
        return resid

    monkeypatch.setattr(cli, "jacobi_relation_residual", poisoned)
    assert main(["verify", "jacobi", "--samples", "5"]) == 3
    err = capsys.readouterr().err
    assert "non-finite jacobi residual" in err
    assert "sample 2, seed tuple (0, 2)" in err


def test_verify_non_finite_shape_matrix_exits_three(capsys, monkeypatch):
    """A NaN in one sample's shape matrix is a numerical failure naming that
    sample, not an SVD that fails to converge."""
    real = cli.build_field

    def nan_at_row_2(config):
        xi = real(config)

        def jacobian(q):
            jac = np.array(np.broadcast_to(xi.jacobian_fn(q), q.shape + q.shape[-1:]))
            if q.ndim == 2:
                jac[2] = np.nan
            return jac

        return UnitVectorField(xi.sphere, xi.value_fn, jacobian, name=xi.name)

    monkeypatch.setattr(cli, "build_field", nan_at_row_2)
    assert main(["verify", "jacobi", "--samples", "5"]) == 3
    err = capsys.readouterr().err
    assert "non-finite shape matrix" in err
    assert "sample 2, seed tuple (0, 2)" in err


def _poison_row(monkeypatch, name, size, row):
    """Make ``cli.<name>`` return NaN in ``row`` of its calls on ``size`` rows."""
    real = getattr(cli, name)

    def poisoned(*args, **kwargs):
        K = real(*args, **kwargs)
        if len(K) == size:
            K = K.copy()
            K[row] = np.nan
        return K

    monkeypatch.setattr(cli, name, poisoned)


@pytest.mark.parametrize("mode,name,message,plane", [
    ("submanifold", "submanifold_plane_curvature_array", "non-finite curvature",
     "submanifold plane {k}, seed tuple (0, {k})"),
    ("submanifold", "bundle_sectional_curvature_array",
     "non-finite bundle-route curvature",
     "submanifold plane {k}, seed tuple (0, {k})"),
    ("bundle", "bundle_sectional_curvature_array", "non-finite curvature",
     "bundle plane {k}, seed tuple (0, {s})"),
], ids=["submanifold", "cross-check", "bundle"])
def test_scan_non_finite_curvature_exits_three(capsys, monkeypatch, mode, name,
                                               message, plane):
    """A NaN curvature, or a NaN on the cross-checking route, is a numerical
    failure naming the plane, not a value that min()/max() drop."""
    extra = 8
    _poison_row(monkeypatch, name, extra, 5)
    assert main(["scan-curvature", "--mode", mode, "--planes",
                 str(_STREAM_CHUNK + extra)]) == 3
    err = capsys.readouterr().err
    k = _STREAM_CHUNK + 5
    assert message in err
    assert plane.format(k=k, s=10 ** 9 + k) in err


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


@pytest.mark.parametrize("mode", ["submanifold", "bundle", "both"])
@pytest.mark.parametrize("radius", ["0.5", "2"])
def test_scan_curvature_needs_unit_radius(capsys, tmp_path, mode, radius):
    """The bounds [1/4, 5/4] and [0, 5/4] the scans judge by hold at r = 1
    only, so scan-curvature reads no radius: no mode runs off unit radius,
    whether the radius comes as a flag or from a config file."""
    argv = ["scan-curvature", "--mode", mode, "--planes", "10"]
    assert main([*argv, "--radius", radius]) == 2
    assert "unrecognized arguments: --radius" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"radius = {radius}\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert ("config key 'radius' is not read by scan-curvature"
            in capsys.readouterr().err)


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


def test_variation_report_times_its_quadrature(capsys, monkeypatch):
    real = variation.integrate_over_sphere

    def slow(*args):
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(variation, "integrate_over_sphere", slow)
    _, out = run_cli(capsys, ["variation", "--dim", "5", "--samples", "8"],
                     expect=0)
    assert json.loads(out)[0]["wall_time_s"] >= 0.2


def test_variation_s3_non_finite_integrand_exits_three(capsys, monkeypatch):
    """A NaN in one field's integrand fails the run, naming the field, the
    sample and the seed tuple, where min and max would have dropped it."""
    real = variation.reduced_integrand
    calls = []

    def poisoned(*args):
        red = real(*args)
        calls.append(red)
        if len(calls) == 1:  # all 100 fields' rows, field-major
            assert len(red) == 100 * 6
            red = red.copy()
            red[2 * 6 + 4] = np.nan
        return red

    monkeypatch.setattr(variation, "reduced_integrand", poisoned)
    assert main(["variation", "--dim", "3", "--samples", "6"]) == 3
    err = capsys.readouterr().err
    assert ("numerical failure: non-finite second-variation integrand: field 2, "
            "sample 4, seed tuple (0, 2)") in err


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


def test_svd_near_pole_at_small_radius_passes(capsys):
    # lambda is about 90,909 here; the assembly residual 4.8e-6 is 5e-11 of it
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--dim", "3",
                              "--radius", "0.01", "--theta", "0.0011"], expect=0)
    assert json.loads(out)[0]["verdict"] == "pass"


def test_svd_tolerance_scales_with_lambda(capsys):
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--dim", "3",
                              "--theta", "0.0011"], expect=0)
    rep = json.loads(out)[0]
    lam_max = 1.0 / np.tan(0.0011)  # cot(theta) / r at unit radius
    assert rep["tolerance"] == pytest.approx(TOL_ANALYTIC * lam_max, rel=1e-8)
    assert rep["tolerance"] == pytest.approx(1e-6 * 909.09, rel=1e-5)
    # a unit spectrum keeps the unscaled tolerance
    for args in (["--field", "hopf", "--dim", "7"],
                 ["--field", "meridian", "--dim", "2", "--theta",
                  str(np.pi / 4)]):
        _, out = run_cli(capsys, ["svd", *args], expect=0)
        assert json.loads(out)[0]["tolerance"] == TOL_ANALYTIC


@pytest.mark.parametrize("theta", ["1.5707963267948966", "1.5707963"])
@pytest.mark.parametrize("dim", ["2", "3", "5"])
def test_svd_meridian_equator_has_no_pairs(capsys, monkeypatch, dim, theta):
    """At the equator lambda = cot(theta) is below SV_ZERO_TOL, so the field
    passes the Killing check with no positive pair. Both frames are then
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


def test_svd_far_meridian_near_equator_has_no_canonical_pairing(capsys):
    """At radius 1e4 and theta 1.57 the skewness 2 cot(theta) / r is about
    1.6e-7: under an absolute 1e-6 but over the Killing bound 1e-6 / r that
    the canonical pairing applies, so svd notes that there is no pairing
    instead of asking for it and being refused."""
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--radius", "1e4",
                              "--theta", "1.57"], expect=0)
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"
    assert rep["notes"][-1].endswith(": no canonical pairing")


@pytest.mark.parametrize("radius", ["1e-3", "1", "2"])
def test_svd_meridian_just_off_the_equator_pairs_nothing(capsys, radius):
    """At theta 1.5707961, lambda = cot(theta) / r is 2.3e-7 / r and the
    skewness twice that: within the Killing bound 1e-6 / r, though lambda
    is above SV_ZERO_TOL. The canonical frames take lambda as zero, as the
    Killing check does, so they pair nothing and pass their frame check."""
    _, out = run_cli(capsys, ["svd", "--field", "meridian", "--radius", radius,
                              "--theta", "1.5707961"], expect=0)
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"
    assert rep["notes"][-1].startswith("killing canonical pairing: 0 pairs")


def test_predicates_hopf_off_unit_radius_expects_sasakian_residual(capsys):
    _, out = run_cli(capsys, ["verify", "predicates", "--radius", "2",
                              "--samples", "5"], expect=0)
    rep = json.loads(out)[0]
    assert rep["verdict"] == "pass"
    assert any(re.fullmatch(r"sasakian: residual \S+ \(expected nonzero\) ok", n)
               for n in rep["notes"])


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


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_negative_seed_is_usage_error(capsys, monkeypatch, tmp_path, source):
    args = ["verify", "codazzi", "--samples", "3"]
    if source == "flag":
        args += ["--seed", "-1"]
    elif source == "env":
        monkeypatch.setenv("TGEO_SEED", "-3")
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = -1\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("field,key,value", [
    ("hopf", "radius", "inf"),
    ("hopf", "radius", "1e200"),
    ("hopf", "radius", "1e-200"),
    ("meridian", "radius", "1e300"),
    ("meridian", "tol", "inf"),
])
def test_unrepresentable_radius_or_tolerance_is_usage_error(
        capsys, tmp_path, source, field, key, value):
    """Radii and tolerances the numerics cannot resolve are refused before
    any sampling: without the check these ran into a frame collapse, a point
    check failing on every draw, an OverflowError, or a negative control
    that passed."""
    args = ["verify", "totally-geodesic", "--field", field, "--samples", "2"]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert {"radius": "radius must lie in [0.001, 10000]",
            "tol": "tolerances must be positive and finite"}[key] \
        in capsys.readouterr().err


def test_radius_range_keeps_the_studied_radii():
    for radius in (1e-3, 0.01, 1.0, 1e3, 1e4):
        RunConfig(command="verify", radius=radius).validate()
    for radius in (9.99e-4, 1.001e4):
        with pytest.raises(UsageError, match="radius must lie in"):
            RunConfig(command="verify", radius=radius).validate()


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
