"""Fresh-interpreter probe for run.py: set-up time, and peak memory of one pass.

    python3 perfbench/fresh.py setup WORKLOAD SEED
    python3 perfbench/fresh.py pass WORKLOAD SEED

Prints one JSON object. ``setup_s`` runs from just before ``import numpy``
and ``import tgeo.cli`` until the parser and every command's field are
built; ``numpy_import_s`` is the numpy part of it. ``pass`` then runs the
workload's commands once and adds the process's peak resident memory and the
command outputs, which run.py passes through its correctness gate.
"""

import json
import resource
import sys
import time

import workloads


def main(argv: list) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  the first import of any tgeo start; see run.py
    numpy_s = time.perf_counter() - t0
    cli = workloads.import_cli()
    # Private CLI helpers: the parser and config a command builds before it runs.
    parser = cli._build_parser()
    for cmd in workload.commands:
        cli.build_field(cli._build_config(parser.parse_args(cmd.argv_for(seed))))
    out = {"setup_s": time.perf_counter() - t0, "numpy_import_s": numpy_s}
    if mode == "pass":
        runs = workloads.run_pass(cli, workload, seed)
        # ru_maxrss is in KiB on Linux.
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["runs"] = [[r.key, r.code, r.text] for r in runs]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
