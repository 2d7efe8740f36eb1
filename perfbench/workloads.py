"""Workloads of the tgeo benchmark and the correctness gate on their reports.

A workload is a fixed list of ``tgeo`` CLI commands. Each command carries
the exit code and verdicts it must produce, closed forms read back out of
its report notes, and the SHA-256 of its report recorded at DEFAULT_SEED.
This module imports neither numpy nor tgeo, so fresh-interpreter probes can
start their clock before those imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The seed the CLI itself defaults to; the recorded digests are taken there.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class NoteValue:
    """A number read from the notes of report ``report`` by ``pattern`` (one
    regex group), which must lie within ``tol`` of ``expected``."""

    report: int
    pattern: str
    expected: float
    tol: float


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    exit_code: int
    verdicts: tuple
    closed_forms: tuple = ()

    def argv_for(self, seed: int) -> list:
        return [*self.argv, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple


_HALF_OMEGA = (
    NoteValue(0, r"max \|Omega\| half-curvature route: (\S+)", 0.5, 1e-4),
    NoteValue(0, r"max \|Omega\| connection route: +(\S+)", 0.5, 1e-4),
)

# Sizes are evaluation counts per pass. `variation --dim 3 --samples N`
# evaluates 100 * N points (field_count is fixed at 100 inside tgeo).
WORKLOADS = {w.name: w for w in (
    Workload("hopf_second_form", (
        Command("tg_hopf_s7", ("verify", "totally-geodesic", "--dim", "7",
                               "--samples", "40"), 0, ("pass",)),
        Command("tg_hopf_s15", ("verify", "totally-geodesic", "--dim", "15",
                                "--samples", "6"), 0, ("pass",)),
        Command("tg_hopf_s3_r2", ("verify", "totally-geodesic", "--dim", "3",
                                  "--radius", "2", "--samples", "60"), 1,
                ("fail",),
                (NoteValue(0, r"pattern peak \|Omega_\(s\|m\+s,0\)\| = (\S+),",
                           0.075, 1e-4),)),
    )),
    Workload("meridian_control", (
        Command("predicates_meridian", ("verify", "predicates", "--field",
                                        "meridian", "--dim", "3",
                                        "--samples", "30"), 0, ("pass",)),
        Command("obstruction_meridian", ("verify", "obstruction", "--field",
                                         "meridian", "--dim", "3",
                                         "--samples", "60"), 0, ("pass",),
                (NoteValue(0, r"max \|obstruction\| over samples: (\S+)",
                           0.5, 1e-4),)),
        Command("tg_meridian", ("verify", "totally-geodesic", "--field",
                                "meridian", "--dim", "3", "--samples", "60"),
                1, ("fail",), _HALF_OMEGA),
    )),
    Workload("curvature_scan", (
        Command("scan_both_s3", ("scan-curvature", "--mode", "both", "--dim",
                                 "3", "--planes", "800"), 0, ("pass", "pass"),
                (NoteValue(0, r"designated sections: xi-plane (\S+),", 0.25,
                           1e-9),
                 NoteValue(0, r"phi-plane (\S+)$", 1.25, 1e-9))),
        Command("scan_bundle_s7", ("scan-curvature", "--mode", "bundle",
                                   "--dim", "7", "--planes", "800"), 0,
                ("pass",)),
    )),
    Workload("variation", (
        Command("variation_s3", ("variation", "--dim", "3", "--samples", "6"),
                0, ("stable",)),
        Command("variation_s15", ("variation", "--dim", "15", "--samples",
                                  "120"), 0, ("unstable",),
                (NoteValue(0, r"witness integrand ratio target (\S+);", -11.5,
                           1e-9),)),
    )),
)}

COMMANDS = {c.key: c for w in WORKLOADS.values() for c in w.commands}

# SHA-256 of each report at DEFAULT_SEED, wall_time_s removed (report_digest).
# A change that alters a report on purpose re-records these in a
# benchmark-only change.
RECORDED_DIGESTS = {
    "tg_hopf_s7":
        "9f8d4a0c4851d3e07f708f26f89ec4fa02425fa5abe6bc8ce5a956a84e541745",
    "tg_hopf_s15":
        "4ca9a131a99106dd9fa906c00c87bea213b5812c819835b0bf603035a2333402",
    "tg_hopf_s3_r2":
        "63cd7a6c1e73c05c85ebdc07b6cac4df13ae0dfe10a6966528ad9b41bbb89aa5",
    "predicates_meridian":
        "686409340b2279a4bbd45a00119bb0f59715be756a0dbd1050f7f491aff98745",
    "obstruction_meridian":
        "43df992671dfd3e68b717ffafd083388b86d5a5f72668a97296405cefdb8d269",
    "tg_meridian":
        "96ab47d2a7e3f0a214c98d746f860b926de70b4ba47af7291fa3d667cb868759",
    "scan_both_s3":
        "8c348326611c5c5d3cacc8855cfe3e023834f66070de998665ff9c41e0f185eb",
    "scan_bundle_s7":
        "492bf724df7733e67600f96cce49f51cd3947e5175f406763e1b51f938f50103",
    "variation_s3":
        "a3abb18c5e42e284c48440935257ff0ae1da1a4ce37b670bd89a45f86ea55cc3",
    "variation_s15":
        "71da78c4c89b974f131c3befc67e0bc1fd177e191e9a4f994995d2828eb95816",
}

# The interpreter, numpy and the CPU's SIMD kernels decide the last bits of
# floating-point results, so the recorded digests are checked only where
# environment() matches these entries.
RECORDED_ENV = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64",
                "simd": ["avx", "avx2", "avx512f", "fma"]}


def environment() -> dict:
    """Interpreter, numpy, CPU and BLAS thread settings of this machine."""
    import numpy as np
    info = {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            info.setdefault(key.strip(), value.strip())
    threads = {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                          "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "cpu": info.get("model name", "unknown"),
            "simd": sorted(set(info.get("flags", "").split())
                           & {"avx", "avx2", "fma", "avx512f"}),
            "blas_threads": threads}


def import_cli():
    """Import tgeo.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "tgeo" / "cli.py").is_file():
        raise FileNotFoundError(f"no tgeo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tgeo.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "tgeo":
        raise ImportError(f"tgeo was imported from {cli.__file__}")
    return cli


# -- running -----------------------------------------------------------------


@dataclass
class CommandRun:
    key: str
    code: int
    text: str
    seconds: float
    cpu: float = 0.0  # CPU seconds of this process during the command


def run_command(cli, cmd: Command, seed: int) -> CommandRun:
    """One command through ``cli.main``, timed from outside; its report is
    captured from stdout."""
    buf = io.StringIO()
    argv = cmd.argv_for(seed)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        code = -1
        buf.write(traceback.format_exc())
    return CommandRun(cmd.key, code, buf.getvalue(), time.perf_counter() - t0,
                      time.process_time() - c0)


def run_pass(cli, workload: Workload, seed: int) -> list:
    """All commands of a workload once, in order."""
    return [run_command(cli, cmd, seed) for cmd in workload.commands]


# -- the correctness gate ------------------------------------------------------


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report list with only ``wall_time_s`` removed."""
    reports = json.loads(text)
    for rep in reports:
        rep.pop("wall_time_s", None)
    canon = json.dumps(reports, sort_keys=True, indent=2)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def check_report(cmd: Command, code: int, text: str) -> list:
    """Problems with one command's exit code, verdicts and closed forms."""
    problems = []
    if code != cmd.exit_code:
        problems.append(f"exit code {code}, expected {cmd.exit_code}")
    try:
        reports = json.loads(text)
    except json.JSONDecodeError:
        return problems + ["report is not JSON"]
    verdicts = tuple(r.get("verdict") for r in reports)
    if verdicts != cmd.verdicts:
        problems.append(f"verdicts {verdicts}, expected {cmd.verdicts}")
    for nv in cmd.closed_forms:
        notes = reports[nv.report]["notes"] if nv.report < len(reports) else []
        found = [m.group(1) for n in notes
                 if (m := re.search(nv.pattern, n)) is not None]
        if len(found) != 1:
            problems.append(f"no unique note matches {nv.pattern!r}")
            continue
        value = float(found[0])
        if not abs(value - nv.expected) <= nv.tol:
            problems.append(f"closed form {value} drifted from {nv.expected} "
                            f"(tolerance {nv.tol})")
    return problems


@dataclass
class Gate:
    """Checks every command run of one benchmark run and counts failures.

    Digests must agree across passes. At DEFAULT_SEED they must also equal
    the recorded ones, when ``recorded`` is given (see RECORDED_ENV).
    """

    seed: int
    recorded: dict | None = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def record(self, run: CommandRun) -> None:
        self.attempted += 1
        problems = check_report(COMMANDS[run.key], run.code, run.text)
        try:
            digest = report_digest(run.text)
        except (json.JSONDecodeError, AttributeError, TypeError):
            digest = None
        first = self.digests.setdefault(run.key, digest)
        if digest != first:
            problems.append("report digest differs between passes")
        if (self.recorded is not None and self.seed == DEFAULT_SEED
                and digest != self.recorded.get(run.key)):
            problems.append("report digest differs from the recorded one")
        if problems:
            self.failures.append((run.key, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)
