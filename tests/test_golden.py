"""The golden report corpus: each command of CASES against the report it
printed when the corpus was written, stored under tests/golden/ minus
``wall_time_s``, and against its exit code in tests/golden/exit_codes.json.

Where the interpreter, numpy and CPU are those the benchmark digests were
recorded with (``RECORDED_ENV`` of perfbench/workloads.py), a report must
match its file byte for byte. Elsewhere the exit codes, the verdicts and
all other text must match exactly, and each number to RTOL relative, or
within ATOL: residuals at the finite-difference or roundoff level move by
that much between numpy releases. A mismatch names each moved field.

Run as a script, ``python tests/test_golden.py`` reruns the corpus and
prints a field-level diff for each command that moved: JSON path (for CSV,
row and column), old value, new value and relative change. With
``--rewrite`` it also writes the new reports and exit codes, for a change
that moves a report on purpose, and deletes the report files and exit
codes of commands no longer in CASES.
"""

import argparse
import contextlib
import csv
import functools
import importlib.util
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script: this checkout's sources
    sys.path.insert(0, str(ROOT / "src"))

import pytest

import tgeo.cli as cli
from tgeo import hopf_field
from conftest import run_lengths, set_run

GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
# a config file that sets mode, dim and planes; its case is named by the
# file's name, not its directory
SCAN_CONFIG = ROOT / "tests" / "scan_config.cfg"

RTOL = 1e-6
ATOL = 1e-9

PLANES = 40
SCANS = [("scan-curvature", "--mode", "both", "--dim", str(dim), "--planes",
          str(PLANES), "--seed", str(seed), "--format", fmt)
         for dim in (3, 7, 15) for fmt in ("json", "csv") for seed in (0, 2 ** 32)]
# the Hopf field across radii, and the meridian field's sample point at its
# default polar angle, just inside the equator and on it
SVD = ([("svd", "--dim", str(dim), "--radius", radius)
        for dim in (3, 5, 7) for radius in ("1e-3", "2", "1e4")]
       + [("svd", "--field", "meridian", "--radius", radius, *theta)
          for radius in ("1e-3", "1e4")
          for theta in ((), ("--theta", "1.5707961"),
                        ("--theta", "1.5707963267948966"))])
# the meridian field at radius 1e4 passes totally-geodesic: its max |Omega|
# is about 9.2e-8, under the absolute default tolerance
VERIFY = [("verify", "totally-geodesic", "--radius", "1e4"),
          ("verify", "totally-geodesic", "--field", "meridian", "--radius", "1e4",
           "--samples", "20"),
          ("verify", "codazzi", "--field", "meridian", "--samples", "20"),
          ("verify", "totally-geodesic", "--dim", "31", "--samples", "16"),
          ("verify", "jacobi"),
          ("verify", "jacobi", "--format", "csv"),
          ("verify", "codazzi", "--dim", "5"),
          ("verify", "obstruction", "--dim", "5"),
          ("variation", "--dim", "7")]
# the second variation: the S^3 stable family and the fiber witness on S^5
# and S^15
VARIATION = [("variation", "--dim", dim, "--samples", samples)
             for dim, samples in (("3", "2"), ("5", "8"), ("15", "8"))]
# the predicates suite: the Hopf field across dimensions and off unit radius,
# where the Sasakian residual is expected nonzero, and the meridian field
PREDICATES = [("verify", "predicates", *args, "--samples", "8")
              for args in (("--dim", "3"), ("--dim", "5"), ("--dim", "7"),
                           ("--radius", "2"),
                           ("--field", "meridian", "--dim", "5"),
                           ("--field", "meridian", "--dim", "3", "--radius", "1e-3"))]
CASES = (SCANS + [("scan-curvature", "--config", str(SCAN_CONFIG))] + SVD + VERIFY
         + VARIATION + PREDICATES)

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def case_name(argv):
    return "_".join(os.path.basename(arg).lstrip("-") for arg in argv)


def report_format(argv):
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def golden_path(argv):
    return GOLDEN / f"{case_name(argv)}.{report_format(argv)}"


@functools.cache
def recorded_env():
    """Whether this environment is the benchmark's recorded one, as
    perfbench/workloads.py states it; that file is loaded by path, without
    writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(workloads)
        env = workloads.environment()
    finally:
        sys.modules.pop(spec.name)
        sys.dont_write_bytecode = dont_write
    return {k: env[k] for k in workloads.RECORDED_ENV} == workloads.RECORDED_ENV


def run(argv):
    """The exit code of ``argv`` and its report minus ``wall_time_s``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    text = buf.getvalue()
    if report_format(argv) == "json":
        reports = json.loads(text)
        for report in reports:
            report.pop("wall_time_s")
        return code, json.dumps(reports, sort_keys=True, indent=2) + "\n"
    rows = list(csv.reader(io.StringIO(text)))
    if "wall_time_s" in rows[0]:  # a report table, not a scan's plane rows
        col = rows[0].index("wall_time_s")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(r[:col] + r[col + 1:]
                                                       for r in rows)
        text = buf.getvalue()
    return code, text


def flatten(text, fmt):
    """Each leaf of a report as {path: value}: JSON paths, or for CSV
    ``[row].column`` over the data rows."""
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {f"[{i}].{col}": cell for i, row in enumerate(rows)
                for col, cell in zip(header, row)}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        else:
            out[path] = node

    walk(json.loads(text), "")
    return out


def numbers(leaf):
    """A leaf as its text with each number replaced by '#', and the
    numbers; a boolean or a missing leaf is text."""
    if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
        return "#", [float(leaf)]
    if not isinstance(leaf, str):
        return repr(leaf), []
    return NUMBER.sub("#", leaf), [float(x) for x in NUMBER.findall(leaf)]


def relative_change(old, new):
    """The largest relative change among the numbers of two leaves of the
    same text, or None when the text differs."""
    (t_old, n_old), (t_new, n_new) = numbers(old), numbers(new)
    if t_old != t_new:
        return None
    return max((abs(b - a) / max(abs(a), abs(b)) for a, b in zip(n_old, n_new)
                if a != b), default=0.0)


def close(old, new):
    (t_old, n_old), (t_new, n_new) = numbers(old), numbers(new)
    return t_old == t_new and all(abs(b - a) <= RTOL * max(abs(a), abs(b)) + ATOL
                                  for a, b in zip(n_old, n_new))


def field_diff(old_text, new_text, fmt):
    """(path, old, new) for each leaf that is not the same in both."""
    old, new = flatten(old_text, fmt), flatten(new_text, fmt)
    return [(path, old.get(path), new.get(path)) for path in {**old, **new}
            if old.get(path) != new.get(path)]


def describe(moved):
    """One line per (path, old, new); None is a leaf or exit code that one
    side does not have (no report holds a JSON null)."""
    lines = []
    for path, old, new in moved:
        if old is None or new is None:
            change = "new" if old is None else "removed"
        else:
            rel = relative_change(old, new)
            change = "text changed" if rel is None else f"relative {rel:.3e}"
        lines.append(f"  {path}: {old!r} -> {new!r} ({change})")
    return "\n".join(lines)


def stale_entries(codes):
    """The report files under GOLDEN and the keys of ``codes`` (the exit
    codes) that belong to no command of CASES."""
    files = set(GOLDEN.iterdir()) - {EXIT_CODES, *map(golden_path, CASES)}
    return sorted(files), sorted(set(codes) - set(map(case_name, CASES)))


def check(argv, code, text):
    assert code == json.loads(EXIT_CODES.read_text())[case_name(argv)]
    want = golden_path(argv).read_text(encoding="utf-8")
    moved = field_diff(want, text, report_format(argv))
    if recorded_env():
        assert text == want, describe(moved)
    else:
        assert all(close(old, new) for _, old, new in moved), describe(moved)


@pytest.mark.parametrize("argv", CASES, ids=case_name)
def test_report_matches_golden(argv):
    check(argv, *run(argv))


def test_corpus_holds_exactly_the_cases():
    """Each command of CASES has its own name, and no report file or exit
    code is left behind by a renamed or dropped command."""
    assert len(set(map(case_name, CASES))) == len(CASES)
    assert stale_entries(json.loads(EXIT_CODES.read_text())) == ([], [])


def test_rewrite_deletes_stale_entries(monkeypatch, tmp_path, capsys):
    """``--rewrite`` on a corpus of one command deletes, and prints, the
    report file and exit code of a command no longer in CASES."""
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "CASES", [("svd", "--dim", "3", "--radius", "2")])
    monkeypatch.setattr(this, "GOLDEN", tmp_path)
    monkeypatch.setattr(this, "EXIT_CODES", tmp_path / "codes.json")
    (tmp_path / "svd_dropped.json").write_text("[]\n")
    (tmp_path / "codes.json").write_text('{"svd_dropped": 0}\n')
    assert main(["--rewrite"]) == 0
    out = capsys.readouterr().out
    assert "deleted stale report svd_dropped.json" in out
    assert "deleted stale exit code svd_dropped" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "codes.json", "svd_dim_3_radius_2.json"]
    assert json.loads((tmp_path / "codes.json").read_text()) == {
        "svd_dim_3_radius_2": 0}


def test_run_boundary_moves_no_bit(monkeypatch):
    """Both scans cut into runs of a few rows give the uncut planes."""
    argv = ("scan-curvature", "--mode", "both", "--dim", "7", "--planes",
            str(PLANES), "--seed", "0", "--format", "csv")
    set_run(monkeypatch, 16, cli._submanifold_row_bytes(hopf_field(3).sphere))
    runs = run_lengths(monkeypatch)
    result = run(argv)
    assert max(runs) < PLANES and sum(runs) == 2 * PLANES
    check(argv, *result)


def test_tolerance_reads_numbers_and_keeps_text():
    assert close(0.25, 0.25 * (1 + 1e-9))
    assert close("max gap 2.220e-16 on 40 planes", "max gap 4.441e-16 on 40 planes")
    assert not close("range [0.25, 1.25]", "range [0.25, 1.26]")
    assert not close("pass", "fail")
    assert not close(1.0, None)
    moved = field_diff('[{"a": [1.0, "x 2.0"]}]', '[{"a": [1.0, "x 3.0"]}]', "json")
    assert moved == [("[0].a[1]", "x 2.0", "x 3.0")]
    assert describe(moved) == "  [0].a[1]: 'x 2.0' -> 'x 3.0' (relative 3.333e-01)"
    # a leaf or exit code on one side only
    moved = field_diff('[{"a": 1.0}]', '[{"b": "x"}]', "json")
    assert describe(sorted(moved) + [("exit code", None, 0)]) == (
        "  [0].a: 1.0 -> None (removed)\n  [0].b: None -> 'x' (new)\n"
        "  exit code: None -> 0 (new)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rewrite", action="store_true",
                        help="write the new reports and exit codes")
    args = parser.parse_args(argv)
    old_codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    codes, moved = {}, 0
    for case in CASES:
        name, path = case_name(case), golden_path(case)
        codes[name], text = run(case)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        rows = [] if old is None else field_diff(old, text, report_format(case))
        if codes[name] != old_codes.get(name):
            rows.insert(0, ("exit code", old_codes.get(name), codes[name]))
        if old is None or rows:
            moved += 1
            print(" ".join(case) + (" (new)" if old is None else ""))
            if rows:
                print(describe(rows))
        if args.rewrite:
            path.write_text(text, encoding="utf-8")
    files, keys = stale_entries(old_codes)
    verb = "deleted stale" if args.rewrite else "stale"
    for path in files:
        print(f"{verb} report {path.name}")
        if args.rewrite:
            path.unlink()
    for name in keys:
        print(f"{verb} exit code {name}")
    if args.rewrite:
        EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    print(f"{moved} of {len(CASES)} reports moved"
          + (", corpus rewritten" if args.rewrite else ""))
    return 1 if (moved or files or keys) and not args.rewrite else 0


if __name__ == "__main__":
    sys.exit(main())
