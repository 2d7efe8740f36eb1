import json

import pytest

from tgeo import VerificationReport, reports_from_json, reports_to_csv, reports_to_json


def make_report(**kw):
    base = dict(name="demo", parameters={"dim": 3, "seed": 0}, samples=10,
                max_residual=1e-9, tolerance=1e-4, verdict="pass",
                notes=["all good"], wall_time_s=0.25)
    base.update(kw)
    return VerificationReport(**base)


def test_roundtrip_json():
    rep = make_report()
    text = reports_to_json([rep])
    [back] = reports_from_json(text)
    assert back.name == rep.name
    assert back.parameters == rep.parameters
    assert back.max_residual == rep.max_residual
    assert back.verdict == "pass"


def test_json_is_sorted_and_schema_tagged():
    text = reports_to_json([make_report()])
    [data] = json.loads(text)
    assert data["schema"] == "tgeo-report/1"
    keys = list(data.keys())
    assert keys == sorted(keys)


def test_reports_list_roundtrip():
    reps = [make_report(name="a"), make_report(name="b", verdict="fail")]
    text = reports_to_json(reps)
    back = reports_from_json(text)
    assert [r.name for r in back] == ["a", "b"]
    assert back[1].verdict == "fail"


def test_ok_property():
    assert make_report().ok
    assert not make_report(verdict="fail").ok
    # residual above tolerance is not ok even with a non-fail verdict
    assert not make_report(max_residual=1.0).ok
    assert make_report(verdict="unstable").ok


def test_verdict_validation():
    with pytest.raises(ValueError):
        make_report(verdict="maybe")


def test_schema_mismatch_rejected():
    data = json.loads(reports_to_json([make_report()]))
    data[0]["schema"] = "something-else/9"
    with pytest.raises(ValueError):
        reports_from_json(json.dumps(data))


def test_csv_layout():
    reps = [make_report(name="r1"), make_report(name="r2", max_residual=0.5,
                                                verdict="fail")]
    text = reports_to_csv(reps)
    lines = text.splitlines()
    assert lines[0].startswith("name,verdict,samples,max_residual")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "r1"
    assert "fail" in lines[2]


def test_csv_float_precision():
    rep = make_report(max_residual=1.0 / 3.0)
    text = reports_to_csv([rep])
    assert "0.33333333333333331" in text
