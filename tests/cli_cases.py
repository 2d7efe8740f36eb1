"""The CLI case table: argv, the exit code it must give, and optionally the
verdicts of its reports, the text of a config file it reads (passed as
``--config``), patterns its stdout and its stderr must contain, and a
``TGEO_SEED``.

The tests run each row in process through ``tgeo.cli.main``; run as a
script, ``python tests/cli_cases.py``, it runs each row through the
installed ``tgeo`` console script and exits 1 if any row fails. A new case
is one row.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    test: str           # the test it is printed under, "<module>::<name>[<case>]"
    argv: tuple
    code: int
    verdicts: tuple = None
    config: str = None
    err: str = None     # a regular expression that stderr must contain
    seed_env: str = None
    out: str = None     # a regular expression that stdout must contain

    def run(self, command=None):
        """(exit code, stdout, stderr): through ``command`` (the console
        script) in a subprocess, or in process when it is None."""
        env = {k: v for k, v in os.environ.items() if k != "TGEO_SEED"}
        if self.seed_env is not None:
            env["TGEO_SEED"] = self.seed_env
        with tempfile.TemporaryDirectory() as tmp:
            argv = list(self.argv)
            if self.config is not None:
                path = os.path.join(tmp, "c.cfg")
                with open(path, "w") as cfg:
                    cfg.write(self.config)
                argv += ["--config", path]
            if command is not None:
                proc = subprocess.run([command, *argv], env=env, capture_output=True,
                                      text=True)
                return proc.returncode, proc.stdout, proc.stderr
            import tgeo.cli
            saved = dict(os.environ)
            out, err = io.StringIO(), io.StringIO()
            try:
                os.environ.clear()
                os.environ.update(env)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = tgeo.cli.main(argv)
            finally:
                os.environ.clear()
                os.environ.update(saved)
            return code, out.getvalue(), err.getvalue()

    def failure(self, code, out, err):
        """What the run got wrong, or None."""
        if code != self.code:
            return f"exit {code}, expected {self.code}: {err.strip()[-300:]}"
        if self.verdicts is not None:
            got = tuple(report["verdict"] for report in json.loads(out))
            if got != self.verdicts:
                return f"verdicts {got}, expected {self.verdicts}"
        for name, pattern, text in (("stderr", self.err, err),
                                    ("stdout", self.out, out)):
            if pattern is not None and not re.search(pattern, text, re.S):
                return f"{name} {text[-500:]!r} does not match {pattern!r}"
        return None

    def check(self):
        problem = self.failure(*self.run())
        assert problem is None, problem


def verify(*args):
    return ("verify", *args)


# The cases of the installed entry point, one a line: the exit code, the argv
# and, after "->", the verdicts of the reports. Each is printed under its argv.
ENTRY_POINT = """
0 variation --dim 5 --samples 8 -> unstable
0 variation --dim 15 --samples 8 --fiber-steps 130 -> unstable
0 variation --dim 3 --samples 50 -> stable
# a quadrature in one run at S^15 (test_variation_batches crosses runs)
0 variation --dim 15 --samples 300 -> unstable
# a report that cannot be written is a usage error
2 verify jacobi --samples 2 --out /nonexistent/r.json
2 svd --field hopf --theta 0.5
0 svd --field meridian --theta 1.5707963267948966
# just off the equator lambda is zero as the Killing check sees it, at both
# ends of the radius range
0 svd --field meridian --radius 1e-3 --theta 1.5707961
0 svd --field meridian --radius 1e4 --theta 1.5707961
# one point through the stacked frames, routes and predicates
0 svd --dim 7
0 svd --dim 5 --radius 2
0 verify jacobi --dim 7 --samples 5
1 verify totally-geodesic --radius 2 --samples 3
0 verify totally-geodesic --dim 15 --samples 3
0 verify totally-geodesic --dim 7 --samples 70
0 verify obstruction --dim 7 --samples 5
1 verify totally-geodesic --field meridian --dim 3 --samples 5
0 verify obstruction --field meridian --dim 3 --samples 5
0 verify obstruction --field meridian --dim 3 --samples 70
0 verify totally-geodesic --dim 31 --samples 4
# 65 points in one run (a last run of one point through both routes and the
# obstruction: test_point_stacks' maxima tests)
0 verify totally-geodesic --dim 7 --samples 65
1 verify totally-geodesic --field meridian --dim 3 --samples 65
0 verify obstruction --field meridian --dim 3 --samples 65
# the connection route's widest direction axis in two one-point runs, and
# the Hopf field off unit radius, which always fails
0 verify totally-geodesic --dim 63 --samples 2
1 verify totally-geodesic --dim 7 --radius 1e4 --samples 3
0 verify predicates --field meridian --dim 3 --samples 5
0 verify predicates --field meridian --dim 3 --samples 70
0 verify codazzi --dim 3 --samples 5
0 verify codazzi --dim 7 --samples 70
0 verify jacobi --dim 5 --samples 70
# a two-word seed, codazzi's frame rows and cap replays
0 verify codazzi --dim 7 --samples 70 --seed 4294967296
0 verify predicates --field meridian --dim 3 --samples 130 --seed 4294967296
2 verify jacobi --field meridian
# a command refuses a flag or config key it does not read: scans take no
# radius (their bounds hold at r = 1), jacobi takes no --tol
2 scan-curvature --mode bundle --radius 2 --planes 10
2 scan-curvature --tol 1e-9
2 verify jacobi --samples 2 --tol 1e-9
2 variation --radius 2
# flags are spelled in full: a prefix is refused
2 svd --field meridian --t 0.5
# radii outside [1e-3, 1e4] are usage errors
2 verify totally-geodesic --radius inf --samples 2
2 verify totally-geodesic --radius 1e200 --samples 2
0 scan-curvature --mode both --planes 600 --seed 4294967296 -> pass pass
0 scan-curvature --mode both --planes 600 --seed 4294967296 --format csv
"""


def entry_point_cases(table):
    for line in table.splitlines():
        if line and not line.startswith("#"):
            head, _, verdicts = line.partition(" -> ")
            code, *argv = head.split()
            name = re.sub(r"[^\w.]+", "-", " ".join(argv)).strip("-")
            yield Case(f"test_cli::test_entry_point_case[{name}]", tuple(argv),
                       int(code), tuple(verdicts.split()) or None)


CASES = list(entry_point_cases(ENTRY_POINT))
# a config key that the command does not read
CASES.append(Case("test_cli::test_entry_point_case[verify-codazzi-config]",
                  verify("codazzi"), 2, config="planes = 10\n"))

tc = "test_cli::test_"
CASES += [
    Case(tc + "verify_pass_exit_zero", verify("totally-geodesic", "--field", "hopf",
         "--dim", "3", "--radius", "1", "--samples", "10", "--seed", "42"), 0),
    Case(tc + "verify_meridian_fails", verify("totally-geodesic", "--field", "meridian",
         "--dim", "2", "--radius", "1", "--samples", "5"), 1, ("fail",)),
    Case(tc + "svd_theta_pole_rejected",
         ("svd", "--field", "meridian", "--dim", "2", "--theta", "0.0"), 2),
    # lambda is about 90,909 here; the assembly residual 4.8e-6 is 5e-11 of it
    Case(tc + "svd_near_pole_at_small_radius_passes", ("svd", "--field", "meridian",
         "--dim", "3", "--radius", "0.01", "--theta", "0.0011"), 0, ("pass",)),
    Case(tc + "variation_command_s3", ("variation", "--dim", "3", "--samples", "5"), 0,
         ("stable",)),
    Case(tc + "bad_env_seed", verify("codazzi", "--samples", "3"), 2,
         seed_env="not-a-number"),
    Case(tc + "predicates_meridian_expected_profile", verify(
         "predicates", "--field", "meridian", "--dim", "2", "--samples", "5"), 0,
         out='"killing: [^"]*expected nonzero'),
    Case(tc + "obstruction_meridian_closed_form", verify(
         "obstruction", "--field", "meridian", "--dim", "3", "--samples", "5"), 0,
         out="closed-form"),
    Case(tc + "predicates_hopf_off_unit_radius_expects_sasakian_residual", verify(
         "predicates", "--radius", "2", "--samples", "5"), 0, ("pass",),
         out=r'"sasakian: residual \S+ \(expected nonzero\) ok"'),
    Case(tc + "scan_curvature_json", ("scan-curvature", "--dim", "3", "--planes", "200",
         "--mode", "both"), 0, ("pass", "pass"),
         out='"name": "scan-submanifold".*"name": "scan-bundle"'),
    Case(tc + "variation_command_s5", ("variation", "--dim", "5", "--samples", "32"), 0,
         ("unstable",), out="Monte Carlo"),
    Case(tc + "variation_fiber_steps_below_64_rejected",
         ("variation", "--dim", "5", "--fiber-steps", "16"), 2,
         err="fiber-steps must be >= 64"),
    Case(tc + "variation_fiber_steps_below_64_rejected",
         ("variation", "--dim", "5", "--samples", "8", "--fiber-steps", "80"), 0,
         out='"fiber_steps": 80.*"samples": 81'),
    Case(tc + "svd_examples", ("svd", "--field", "hopf", "--dim", "5"), 0,
         out=r"\(0, 1, 1, 1, 1\)"),
    Case(tc + "svd_examples", ("svd", "--field", "hopf", "--dim", "3", "--radius",
         "2"), 0, out=r"\(0, 0\.5, 0\.5\)"),
    Case(tc + "svd_examples", ("svd", "--field", "meridian", "--dim", "2", "--theta",
         "0.7853981633974483"), 0, out=r"\(0, 1\).*no canonical pairing"),
    # at radius 1e4 and theta 1.57 the skewness 2 cot(theta) / r is about
    # 1.6e-7: under an absolute 1e-6 but over the Killing bound 1e-6 / r that
    # the canonical pairing applies, so svd notes that there is no pairing
    # instead of asking for it and being refused
    Case(tc + "svd_far_meridian_near_equator_has_no_canonical_pairing",
         ("svd", "--field", "meridian", "--radius", "1e4", "--theta", "1.57"), 0,
         ("pass",), out=r': no canonical pairing"\s*\]'),
    # --samples is described without one command's figures; the variation
    # summary says what it counts on S^3 (test_family_size_is_a_constant
    # ties its figure to FAMILY_FIELDS)
    Case(tc + "samples_help_per_command[verify]", verify("--help"), 0,
         out=r"\A(?!.*fields).*--samples SAMPLES\s+sample points\n"),
    Case(tc + "samples_help_per_command[variation]", ("variation", "--help"), 0,
         out=r"on\s+S\^3,\s+--samples\s+points\s+on\s+each\s+of\s+\d+\s+fields"),
    Case(tc + "csv_report_format", (*verify("codazzi", "--samples", "3"), "--format",
         "csv"), 0, out="^name,verdict,samples"),
    # a config file beats TGEO_SEED, and a flag beats both
    Case(tc + "env_seed_default", verify("codazzi", "--samples", "3"), 0,
         seed_env="11", out=r'"seed": 11\b'),
    Case(tc + "flag_beats_env", verify("codazzi", "--samples", "3", "--seed", "4"), 0,
         seed_env="11", out=r'"seed": 4\b'),
    Case(tc + "config_beats_env_and_flag_beats_config", verify("codazzi"), 0,
         config="seed = 5\nsamples = 3\n", seed_env="11", out=r'"seed": 5\b'),
    Case(tc + "config_beats_env_and_flag_beats_config",
         verify("codazzi", "--seed", "2"), 0, config="seed = 5\nsamples = 3\n",
         seed_env="11", out=r'"seed": 2\b'),
]
CASES += [Case(tc + "usage_errors_exit_two", argv, 2) for argv in [
    verify("totally-geodesic", "--dim", "4"),
    verify("totally-geodesic", "--radius", "-2"),
    verify("nonsense"),
    ("variation", "--field", "meridian", "--dim", "2"),
    verify("jacobi", "--field", "meridian", "--dim", "2", "--samples", "3"),
    ("svd", "--field", "hopf", "--theta", "0.5"),
    ("variation", "--mode", "auto", "--samples", "1")]]
CASES += [Case(f"{tc}suites_pass_on_unit_hopf[{suite}]",
               verify(suite, "--samples", "5"), 0, ("pass",))
          for suite in ("predicates", "codazzi", "jacobi", "obstruction")]

# Every (command, option) pair that the command does not read, with a small
# run, so that a command that took the option would finish quickly. Given as
# a flag or as a config key, the option is a usage error naming it, not a
# value silently ignored.
for argv, flag, value in [
        (verify("totally-geodesic", "--samples", "2"), "--fiber-steps", "64"),
        (("scan-curvature", "--planes", "4"), "--field", "hopf"),
        (("scan-curvature", "--planes", "4"), "--radius", "1"),
        (("scan-curvature", "--planes", "4"), "--samples", "5"),
        (("scan-curvature", "--planes", "4"), "--fiber-steps", "64"),
        (("scan-curvature", "--planes", "4"), "--tol", "1e-4"),
        (("variation", "--samples", "2"), "--field", "hopf"),
        (("variation", "--samples", "2"), "--radius", "1"),
        (("variation", "--samples", "2"), "--tol", "1e-4"),
        (("svd",), "--samples", "5"),
        (("svd",), "--fiber-steps", "64"),
        (("svd",), "--tol", "1e-4")]:
    key = flag[2:].replace("-", "_")
    test = tc + "option_a_command_does_not_read_exits_two[{}-" + argv[0] + flag + "]"
    CASES += [Case(test.format("flag"), (*argv, flag, value), 2, err=flag),
              Case(test.format("config"), argv, 2, config=f"{key} = {value}\n",
                   err=f"config key {key!r} is not read by {argv[0]}")]
# the jacobi suite judges against the fixed TOLERANCES.analytic, so a --tol
# would change nothing; the other suites read it
for source, args, config in [("flag", ("--tol", "1e-300"), None),
                             ("config", (), "tol = 1e-300\n")]:
    CASES += [Case(f"{tc}verify_jacobi_refuses_tol[{source}]",
                   verify("jacobi", "--samples", "2", *args), 2, config=config,
                   err="verify jacobi does not read tol"),
              Case(f"{tc}verify_jacobi_refuses_tol[{source}]",
                   verify("codazzi", "--samples", "2", "--tol", "1e-300"), 1)]
# a flag is spelled in full: a prefix of a declared flag is refused by name,
# and the full spelling runs
for case, short, full in [
        ("svd", ("svd", "--field", "meridian", "--t", "0.5"),
         ("svd", "--field", "meridian", "--theta", "0.5")),
        ("scan-curvature", ("scan-curvature", "--p", "5", "--m", "bundle"),
         ("scan-curvature", "--planes", "5", "--mode", "bundle")),
        ("verify", verify("codazzi", "--sa", "3"),
         verify("codazzi", "--samples", "3"))]:
    CASES += [Case(f"{tc}abbreviated_flags_exit_two[{case}]", short, 2,
                   err=f"unrecognized arguments.*{short[-2]}"),
              Case(f"{tc}abbreviated_flags_exit_two[{case}]", full, 0)]
# a config value meets the choices its flag's parser enforces
for argv, key, value in [(("scan-curvature", "--planes", "4"), "mode", "auto"),
                         (verify("codazzi", "--samples", "2"), "field", "dipole"),
                         (("svd",), "format", "yaml")]:
    CASES.append(Case(f"{tc}config_value_outside_its_choices_exits_two[{key}]", argv, 2,
                      config=f"# {key}\n{key} = {value}\n",
                      err=f"config line 2: bad value for {key}: {value!r}"))
# the bounds [1/4, 5/4] and [0, 5/4] the scans judge by hold at r = 1 only,
# so scan-curvature reads no radius, from a flag or from a config file
for radius in ("0.5", "2"):
    for mode in ("submanifold", "bundle", "both"):
        argv = ("scan-curvature", "--mode", mode, "--planes", "10")
        test = f"{tc}scan_curvature_needs_unit_radius[{radius}-{mode}]"
        CASES += [Case(test, (*argv, "--radius", radius), 2,
                       err="unrecognized arguments: --radius"),
                  Case(test, argv, 2, config=f"radius = {radius}\n",
                       err="config key 'radius' is not read by scan-curvature")]
codazzi3 = verify("codazzi", "--samples", "3")
CASES += [
    Case(tc + "negative_seed_is_usage_error[flag]", (*codazzi3, "--seed", "-1"), 2,
         err="seed must be >= 0"),
    Case(tc + "negative_seed_is_usage_error[env]", codazzi3, 2, err="seed must be >= 0",
         seed_env="-3"),
    Case(tc + "negative_seed_is_usage_error[config]", codazzi3, 2, config="seed = -1\n",
         err="seed must be >= 0"),
]
# radii and tolerances the numerics cannot resolve are refused before any
# sampling: without the check these ran into a frame collapse, a point check
# failing on every draw, an OverflowError, or a negative control that passed
for field, key, value in [("hopf", "radius", "inf"), ("hopf", "radius", "1e200"),
                          ("hopf", "radius", "1e-200"), ("meridian", "radius", "1e300"),
                          ("meridian", "tol", "inf")]:
    argv = verify("totally-geodesic", "--field", field, "--samples", "2")
    err = re.escape({"radius": "radius must lie in [0.001, 10000]",
                     "tol": "tolerances must be positive and finite"}[key])
    test = (f"{tc}unrepresentable_radius_or_tolerance_is_usage_error"
            f"[{field}-{key}-{value}-")
    CASES += [Case(test + "flag]", (*argv, f"--{key}", value), 2, err=err),
              Case(test + "config]", argv, 2, config=f"{key} = {value}\n", err=err)]


def main(command="tgeo"):
    failed = 0
    for case in CASES:
        problem = case.failure(*case.run(command))
        failed += problem is not None
        print(f"{'FAIL' if problem else 'ok'}  {command} {' '.join(case.argv)}"
              + (f" [config: {case.config.strip()}]" if case.config else "")
              + (f"\n      {problem}" if problem else ""))
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
