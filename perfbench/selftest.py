"""Tests of the benchmark itself (not of tgeo).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test discovery.
"""

import json
import os
import subprocess
import threading
from pathlib import Path

import run
import tracer as tr
import workloads as wl

cli = wl.import_cli()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 7]; b again [11, 12]
    t = tr.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 7, 8, 10, 11, 12]))
    a = t.enter("a")
    b = t.enter("b")
    t.exit(b)
    c = t.enter("c")
    d = t.enter("d")
    t.exit(d)
    t.exit(c)
    t.exit(a)
    b2 = t.enter("b")
    t.exit(b2)
    s = tr.summarize(t.take())
    assert {k: (v["calls"], v["self_s"]) for k, v in s.items()} == {
        "a": (1, 4), "b": (2, 3), "c": (1, 2), "d": (1, 2)}
    assert dict(s["d"]["parents"]) == {"c": 1}
    assert dict(s["b"]["parents"]) == {"a": 1, None: 1}
    assert t.spans == []


def test_install_rebinds_every_import_and_restore_undoes_it():
    import numpy as np
    import tgeo
    import tgeo.fields
    import tgeo.sasaki
    half_curvature = tgeo.fields.half_curvature
    default_rng = np.random.default_rng
    post_init = tgeo.TangentVector.__dict__["__post_init__"]
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        assert tgeo.cli.half_curvature is tgeo.sasaki.half_curvature
        assert tgeo.cli.half_curvature is not half_curvature
        assert tgeo.half_curvature is tgeo.fields.half_curvature
        assert np.random.default_rng is not default_rng
        run_tiny = wl.Command("tg_hopf_s3_r2", ("verify", "totally-geodesic",
                                                "--samples", "2"), 0, ("pass",))
        assert wl.run_command(cli, run_tiny, 0).code == 0
        names = {span[0] for span in t.take()}
        assert {"cli.main", "fields.half_curvature", "cli.rng_streams",
                "manifold.TangentVector", "sasaki.second_form_direct"} <= names
    finally:
        tr.restore(undo)
    for mod in (tgeo, tgeo.fields, tgeo.sasaki, tgeo.cli):
        assert mod.half_curvature is half_curvature
    assert np.random.default_rng is default_rng
    assert tgeo.TangentVector.__dict__["__post_init__"] is post_init


def _report_text(key="tg_hopf_s3_r2"):
    run_ = wl.run_command(cli, wl.COMMANDS[key], 0)
    return run_.code, run_.text


def test_digest_ignores_wall_time_and_nothing_else():
    _, text = _report_text()
    base = wl.report_digest(text)
    rep = json.loads(text)
    rep[0]["wall_time_s"] = 123.0
    assert wl.report_digest(json.dumps(rep)) == base
    for key, value in json.loads(text)[0].items():
        if key == "wall_time_s":
            continue
        rep = json.loads(text)
        rep[0][key] = [value, "changed"]
        assert wl.report_digest(json.dumps(rep)) != base, key
    rep = json.loads(text)
    rep[0]["notes"][-1] += " "
    assert wl.report_digest(json.dumps(rep)) != base


def test_gate_flags_exit_code_verdict_and_closed_form():
    cmd = wl.COMMANDS["tg_hopf_s3_r2"]
    code, text = _report_text()
    assert wl.check_report(cmd, code, text) == []
    assert "exit code 0" in wl.check_report(cmd, 0, text)[0]

    rep = json.loads(text)
    rep[0]["verdict"] = "pass"
    assert "verdicts" in wl.check_report(cmd, code, json.dumps(rep))[0]

    rep = json.loads(text)
    rep[0]["notes"] = [n.replace("= 0.075000,", "= 0.075200,")
                       for n in rep[0]["notes"]]
    problems = wl.check_report(cmd, code, json.dumps(rep))
    assert len(problems) == 1 and "drifted" in problems[0]

    assert wl.check_report(cmd, 3, "numerical failure") == [
        "exit code 3, expected 1", "report is not JSON"]


def test_gate_counts_digest_changes_between_passes_and_records():
    code, text = _report_text()
    gate = wl.Gate(seed=wl.DEFAULT_SEED, recorded={})
    gate.record(wl.CommandRun("tg_hopf_s3_r2", code, text, 0.0))
    assert gate.failures == [("tg_hopf_s3_r2",
                              ["report digest differs from the recorded one"])]
    gate = wl.Gate(seed=5)
    gate.record(wl.CommandRun("tg_hopf_s3_r2", code, text, 0.0))
    rep = json.loads(text)
    rep[0]["max_residual"] *= 2
    gate.record(wl.CommandRun("tg_hopf_s3_r2", code, json.dumps(rep), 0.0))
    assert (gate.attempted, gate.failed) == (2, 1)


def test_recorded_digests_match_every_command():
    assert set(wl.RECORDED_DIGESTS) == set(wl.COMMANDS)


def test_load_comes_from_one_process_within_nproc_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pass must not start processes")
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    tiny = wl.Workload("tiny", (
        wl.Command("tg_hopf_s7", ("verify", "totally-geodesic", "--dim", "7",
                                  "--samples", "2"), 0, ("pass",)),
        wl.Command("scan_both_s3", ("scan-curvature", "--mode", "both",
                                    "--planes", "20"), 0, ("pass", "pass")),
    ))
    runs = wl.run_pass(cli, tiny, 0)
    assert [r.code for r in runs] == [0, 0]
    assert threading.active_count() == 1
    tasks = Path("/proc/self/task")
    if tasks.is_dir():
        assert len(list(tasks.iterdir())) <= os.cpu_count()


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(wl, "SRC", tmp_path / "src")
    assert run.main(["--workload", "variation", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
