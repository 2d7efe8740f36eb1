"""The verify suites' sample loop against the per-sample loop it replaced.

Sample idx of a verify run draws from its own stream default_rng((seed,
idx)): its point, redrawn out of a meridian field's polar caps, then, for
``verify codazzi``, the rows of its random frame. The loop draws each run
of samples in one ``stream_normals`` call and replays on its own generator
only a sample whose first draw lands in a cap. ``ref_sample_inputs`` is the
loop before that: one generator and one point draw per sample. Every stacked
``measure`` call must get the same bits from both. A zero draw is a row of
the bad-row table.
"""

from functools import lru_cache

import numpy as np
import pytest

import tgeo.cli as cli
from tgeo import SphereSpec

import bad_rows
from conftest import assert_identical, printed_tests, set_run

globals().update(printed_tests(__name__, bad_rows.ROWS))

SEEDS = [0, 2 ** 32, 2 ** 200 + 5]


def runs_of_64(monkeypatch, suite):
    """Runs of 64 samples: the budget set to 64 rows of the suite's S^3 row
    bytes, so that the sample counts below fall on both sides of a run's
    end."""
    return set_run(monkeypatch, 64, cli._sample_row_bytes(suite, SphereSpec(4)))


def ref_sample_point(xi, rng):
    """The sampler one sample at a time: a point, redrawn while a meridian
    field's point lies in a polar cap."""
    sphere = xi.sphere
    while True:
        p = sphere.random_point(rng)
        if xi.name != "meridian":
            return p
        if abs(float(p.coords[0])) / sphere.radius < 0.95:
            return p


def ref_sample_inputs(xi, seed, samples, extra, run):
    """Per run of ``run`` samples, the (coordinates, rows) the per-sample
    loop measured: each sample's own generator gives its point, then its
    ``extra`` rows. The suites that draw no rows share them."""
    return _sample_inputs(xi.name, seed, samples, extra, run)


@lru_cache(maxsize=None)
def _sample_inputs(field, seed, samples, extra, run):
    xi = cli.build_field(cli.RunConfig(command="verify", field=field))
    runs = []
    for start in range(0, samples, run):
        coords, rows = [], []
        for idx in range(start, min(start + run, samples)):
            rng = np.random.default_rng((seed, idx))
            coords.append(ref_sample_point(xi, rng).coords)
            rows.append(rng.standard_normal((extra, xi.sphere.ambient_dim)))
        runs.append((np.array(coords), np.array(rows)))
    return runs


def first_draw_caps(xi, seed, samples):
    """The samples whose first draw a meridian field's sampler redraws."""
    return [idx for idx in range(samples)
            if abs(float(xi.sphere.random_point(np.random.default_rng(
                (seed, idx))).coords[0])) / xi.sphere.radius >= 0.95]


def measured_inputs(monkeypatch, argv):
    """Run the CLI; return its exit code, the sample loop's field and extra
    row count, the (coordinates, rows) of each measure call, and the number
    of _sample_point calls."""
    loops, calls, replays = [], [], []
    real_loop, real_point = cli._sample_maxima, cli._sample_point

    def loop(xi, config, measure, extra=0):
        def record(coords, rows):
            calls.append((coords.copy(), rows.copy()))
            return measure(coords, rows)
        loops.append((xi, extra))
        return real_loop(xi, config, record, extra)

    def point(xi, rng):
        replays.append(rng)
        return real_point(xi, rng)

    monkeypatch.setattr(cli, "_sample_maxima", loop)
    monkeypatch.setattr(cli, "_sample_point", point)
    code = cli.main(argv)
    assert len(loops) == 1
    return code, loops[0], calls, len(replays)


def assert_same_inputs(calls, want):
    for (coords, rows), (want_coords, want_rows) in zip(calls, want):
        assert_identical(coords, want_coords)
        assert np.array_equal(rows, want_rows)


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "2^32", "2^200+5"])
@pytest.mark.parametrize("samples", [63, 64, 65, 130])
@pytest.mark.parametrize("field", ["hopf", "meridian"])
@pytest.mark.parametrize("suite", ["totally-geodesic", "predicates", "codazzi",
                                   "jacobi", "obstruction"])
def test_stacked_draws_match_per_sample_loop(suite, field, samples, seed,
                                             monkeypatch, capsys):
    run = runs_of_64(monkeypatch, suite)
    code, (xi, extra), calls, replays = measured_inputs(monkeypatch, [
        "verify", suite, "--field", field, "--samples", str(samples),
        "--seed", str(seed)])
    capsys.readouterr()
    assert extra == (xi.sphere.dim if suite == "codazzi" else 0)
    want = ref_sample_inputs(xi, seed, samples, extra, run)
    if suite == "jacobi" and field == "meridian":
        # the first run's measure refuses the field: a usage error
        assert code == 2 and len(calls) == 1
    else:
        assert code in (0, 1) and len(calls) == len(want)
    assert_same_inputs(calls, want)
    caps = first_draw_caps(xi, seed, samples) if field == "meridian" else []
    assert replays == len([idx for idx in caps if idx < run * len(calls)])


@pytest.mark.parametrize("suite", ["codazzi", "totally-geodesic"])
def test_cap_draw_is_replayed_on_its_own_stream(suite, monkeypatch, capsys):
    """A meridian sample whose first draw lands in a polar cap is redrawn by
    _sample_point on its own generator, which then draws its frame rows."""
    xi = cli.build_field(cli.RunConfig(command="verify", field="meridian"))
    seed, caps = next((s, c) for s in range(2 ** 32, 2 ** 32 + 50)
                      if (c := first_draw_caps(xi, s, 130)))
    samples = caps[0] + 2
    run = runs_of_64(monkeypatch, suite)
    code, (_, extra), calls, replays = measured_inputs(monkeypatch, [
        "verify", suite, "--field", "meridian", "--samples", str(samples),
        "--seed", str(seed)])
    capsys.readouterr()
    assert code in (0, 1)
    assert replays == len([idx for idx in caps if idx < samples]) >= 1
    assert_same_inputs(calls, ref_sample_inputs(xi, seed, samples, extra, run))


def test_verify_seeds_each_chunk_in_one_call(monkeypatch, capsys):
    """130 samples are three runs: one default_rng call each (the stream
    helper's check of the run's first stream)."""
    run = runs_of_64(monkeypatch, "totally-geodesic")
    real = np.random.default_rng
    calls = []

    def counted(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert cli.main(["verify", "totally-geodesic", "--samples", "130",
                     "--seed", "6"]) == 0
    capsys.readouterr()
    assert calls == [(6, start) for start in range(0, 130, run)]
    assert len(calls) == 3


def test_meridian_predicates_seed_chunks_and_replays(monkeypatch, capsys):
    """Per run: its stream check, a generator per cap replay, then the
    predicates' own two default_rng(0) draws of directions (the triples of
    both normality checks, then the Sasakian pairs); 130 samples are three
    runs."""
    run = runs_of_64(monkeypatch, "predicates")
    xi = cli.build_field(cli.RunConfig(command="verify", field="meridian"))
    seed = 2 ** 32
    caps = first_draw_caps(xi, seed, 130)
    assert caps
    real = np.random.default_rng
    calls = []

    def counted(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert cli.main(["verify", "predicates", "--field", "meridian",
                     "--samples", "130", "--seed", str(seed)]) == 0
    capsys.readouterr()
    want = []
    for start in range(0, 130, run):
        want += [(seed, start)]
        want += [(seed, idx) for idx in caps if start <= idx < start + run]
        want += [0, 0]
    assert calls == want
    assert calls.count(0) == 2 * 3
