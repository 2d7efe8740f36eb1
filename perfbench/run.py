"""Benchmark of the tgeo CLI: time to verdict per workload, spans per kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.WORKLOADS, or ``all`` to run each in turn. Commands
run in this process through ``tgeo.cli.main``, one after another (a closed
loop with one client), and are timed from outside; no report's own
``wall_time_s`` is read.

--trace 0  end-to-end metrics, with no wrappers installed:
           wall_s       median over passes of the wall seconds of one pass
                        over the workload, scaled to the reference speed
           setup_s      median over fresh interpreters of importing numpy and
                        tgeo.cli and building the parser and fields, scaled
                        by the numpy import time in the same interpreter
           peak_rss_mb  peak resident memory of a fresh process doing one pass
--trace 1  per-layer metrics: untraced passes alternate with passes in which
           every kernel in tracer.TARGETS is wrapped; the spans of the first
           traced pass go to .perfbench/spans-<workload>.csv.

A fixed reference kernel runs between commands; its time measures how fast
the shared machine is at that moment, and a scaled command time is the raw
time multiplied by REF_S over the mean reference time around it.

Every command run passes the correctness gate in workloads.py. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
SPAN_DIR = wl.ROOT / ".perfbench"

SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

# A shared machine changes speed by tens of percent within seconds, so
# times are scaled to a fixed machine speed (see README). wall_s is scaled
# to a machine on which reference_kernel takes REF_S seconds, setup_s to
# one on which `import numpy`, the first step of every tgeo start, takes
# NUMPY_REF_S; both are about their times on the recording machine.
REF_S = 0.06
NUMPY_REF_S = 0.1


def per_layer_units() -> dict:
    units = {}
    for name in tr.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for key in wl.COMMANDS:
        units[f"cli.{key}.wall_s"] = "s"
    units["cli.cpu_s"] = "s"
    units["cli.sample_accept_ratio"] = "ratio"
    units["raw_wall_s"] = "s"
    units["reference_s"] = "s"
    units["tracing_overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def probe(mode: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "fresh.py"), mode, workload, str(seed)],
        cwd=wl.ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@dataclass(frozen=True)
class _Checked:
    """A validated small vector, built like tgeo's TangentVector."""

    base: object
    vec: object

    def __post_init__(self):
        import numpy as np
        vec = np.array(self.vec, dtype=float)
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)
        if abs(float(vec @ self.base)) > 1e-9 * max(1.0, float(np.linalg.norm(vec))):
            raise ValueError("not orthogonal")


def reference_kernel() -> float:
    """Seconds for fixed work in the style of tgeo's kernels: Python loops of
    small numpy calls, validated small objects and small LAPACK calls. It
    never changes, so its time tracks how fast the machine is right now."""
    import numpy as np
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(600):
        v = rng.standard_normal(8)
        q, _ = np.linalg.qr(np.outer(v, v) + np.eye(8))
        acc += float(np.linalg.norm(q @ v)) + sum(float(x) for x in v[:4])
    for _ in range(300):
        p = rng.standard_normal(4)
        p /= np.linalg.norm(p)
        raw = rng.standard_normal((3, 4))
        raw -= np.outer(raw @ p, p)
        rows = [_Checked(p, r).vec for r in raw]
        q, _ = np.linalg.qr(np.vstack(rows).T)
        acc += sorted(float(x) for x in q.ravel())[0]
    return time.perf_counter() - t0


@dataclass
class Pass:
    runs: list
    refs: list          # reference kernel seconds before and after each command
    spans: list | None  # traced passes only

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.runs)

    @property
    def scaled_wall(self) -> float:
        """Each command's time scaled by the reference time around it."""
        return sum(r.seconds * 2 * REF_S / (self.refs[i] + self.refs[i + 1])
                   for i, r in enumerate(self.runs))


def measure(cli, workload, seed, seconds, gate, tracer=None) -> list:
    """Passes until ``seconds`` have gone by, at least MIN_PASSES of each
    kind, with the reference kernel before and after every command. With a
    tracer, untraced and traced passes alternate, so both see the same
    machine; wrappers are in place only while a command runs."""
    kinds = (False,) if tracer is None else (False, True)
    passes = []
    ref = reference_kernel()
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES * len(kinds) or time.perf_counter() < deadline:
        for traced in kinds:
            runs, refs = [], [ref]
            for cmd in workload.commands:
                undo = tr.install(tracer) if traced else []
                try:
                    runs.append(wl.run_command(cli, cmd, seed))
                finally:
                    tr.restore(undo)
                ref = reference_kernel()
                refs.append(ref)
            passes.append(Pass(runs, refs, tracer.take() if traced else None))
            for run in runs:
                gate.record(run)
    return passes


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


def end_to_end(cli, workload, seed, seconds, gate) -> dict:
    probes = [probe("setup", workload.name, seed) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] * NUMPY_REF_S / p["numpy_import_s"] for p in probes]
    fresh = probe("pass", workload.name, seed)
    for key, code, text in fresh["runs"]:
        gate.record(wl.CommandRun(key, code, text, 0.0))
    for run in wl.run_pass(cli, workload, seed):  # warm-up
        gate.record(run)
    passes = measure(cli, workload, seed, seconds, gate)
    print(f"  scaled wall seconds per pass: {spread([p.scaled_wall for p in passes])}")
    print(f"  raw wall seconds per pass: {spread([p.wall for p in passes])}")
    print(f"  reference kernel seconds: {spread([r for p in passes for r in p.refs])}")
    print(f"  raw setup seconds: {spread([p['setup_s'] for p in probes])}")
    print(f"  numpy import seconds: {spread([p['numpy_import_s'] for p in probes])}")
    return {"wall_s": statistics.median(p.scaled_wall for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": fresh["peak_rss_mb"]}


def per_layer(cli, workload, seed, seconds, gate) -> dict:
    for run in wl.run_pass(cli, workload, seed):  # warm-up
        gate.record(run)
    passes = measure(cli, workload, seed, seconds, gate, tr.Tracer())
    plain = [p for p in passes if p.spans is None]
    traced = [p for p in passes if p.spans is not None]
    SPAN_DIR.mkdir(exist_ok=True)  # one traced pass is enough to read from
    tr.write_spans(SPAN_DIR / f"spans-{workload.name}.csv", traced[0].spans)

    summaries = [tr.summarize(p.spans) for p in traced]
    metrics = {}
    for name in tr.SPAN_NAMES:
        calls = [s[name]["calls"] if name in s else 0 for s in summaries]
        if len(set(calls)) != 1:
            print(f"  warning: {name} calls differ between passes: {calls}")
        metrics[f"{name}.calls"] = calls[0]
        metrics[f"{name}.self_s"] = statistics.median(
            s[name]["self_s"] if name in s else 0.0 for s in summaries)
    for key in wl.COMMANDS:
        times = [r.seconds for p in plain for r in p.runs if r.key == key]
        metrics[f"cli.{key}.wall_s"] = statistics.median(times) if times else 0.0
    metrics["cli.cpu_s"] = statistics.median(p.cpu for p in plain)
    # Accepted sample points over the random_point draws made for them;
    # 0 where the workload samples no points through the CLI sampler.
    first = summaries[0]
    accepted = first["cli.sample_point"]["calls"] if "cli.sample_point" in first else 0
    draws = (first["manifold.random_point"]["parents"].get("cli.sample_point", 0)
             if "manifold.random_point" in first else 0)
    metrics["cli.sample_accept_ratio"] = accepted / draws if draws else 0.0
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["raw_wall_s"] = plain_wall
    metrics["reference_s"] = statistics.median(r for p in passes for r in p.refs)
    metrics["tracing_overhead_s"] = statistics.median(p.wall for p in traced) - plain_wall
    return metrics


def run_workload(cli, name, seed, seconds, trace, recorded) -> tuple:
    workload = wl.WORKLOADS[name]
    gate = wl.Gate(seed, recorded)
    print(f"workload {name}, seed {seed}, trace {trace}")
    if trace:
        values, units = per_layer(cli, workload, seed, seconds, gate), per_layer_units()
    else:
        values, units = end_to_end(cli, workload, seed, seconds, gate), END_TO_END_UNITS
    for key, problems in gate.failures:
        print(f"  FAILED {key}: {'; '.join(problems)}")
    print(f"  failed_share {gate.failed}/{gate.attempted} = "
          f"{gate.failed / gate.attempted:.6g} (share of command runs)")
    for metric, value in values.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    return gate, {m: {"value": v, "unit": units[m]} for m, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cli = wl.import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = wl.environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    numeric = {k: env[k] for k in wl.RECORDED_ENV}
    recorded = wl.RECORDED_DIGESTS if numeric == wl.RECORDED_ENV else None
    if recorded is None:
        print(f"recorded digests not checked: {numeric} is not {wl.RECORDED_ENV}")

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        gate, values = run_workload(cli, name, args.seed, args.seconds,
                                    args.trace, recorded)
        attempted += gate.attempted
        failed += gate.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
