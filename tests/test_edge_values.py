"""Edge values on every option a command reads: each run ends in one of the
documented exit codes (0, 1, 2 or 3), with no traceback, and a numpy
RuntimeWarning fails it. The sizes stay bounded: the swept option comes
after bounded ``--samples``, ``--planes``, ``--dim`` and ``--fiber-steps``
flags, and a bad value of those is refused before anything runs.
"""

import math
import warnings

import pytest

import tgeo.cli as cli
from tgeo.fields import MIN_FIBER_STEPS

EDGES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "x")

# per option, the values tried on top of EDGES
EXTRA = {
    "seed": (str(2 ** 64),),
    # the svd sample point at and just inside the poles, and at the equator
    "theta": tuple(str(t) for t in (0.001, 0.0010000000000002, 0.0011,
                                    math.pi / 2, math.pi - 0.0011,
                                    math.pi - 0.001, math.pi)),
}

BOUNDED = {"samples": "2", "planes": "4", "dim": "3",
           "fiber_steps": str(MIN_FIBER_STEPS)}

# svd reads theta for the meridian field only
BASES = ([["verify", suite] for suite in cli._SUITE_RUNNERS]
         + [["scan-curvature"], ["variation"], ["svd", "--field", "meridian"]])


def flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("base", BASES, ids=lambda base: "-".join(
    arg for arg in base if not arg.startswith("-")))
def test_edge_values_exit_cleanly(base, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out writes a file named by the value
    reads = cli._READS[base[0]]
    bounded = [arg for name in reads if name in BOUNDED
               for arg in (flag(name), BOUNDED[name])]
    bad = []
    for name in reads:
        for value in EDGES + EXTRA.get(name, ()):
            argv = base + bounded + [flag(name), value]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(argv)
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3) or "Traceback" in err:
                bad.append((argv, code, err))
    assert bad == []
