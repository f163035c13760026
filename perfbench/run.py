"""dsdl benchmark: seeded workloads, verdict-checked end-to-end metrics and a
separate traced run with per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload json-detect --seed 1 --seconds 25 --trace 0

The load is a closed loop: one caller in one process, each call starting
after the previous one returned; CLI runs are one child process at a time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dsdl" / "__init__.py").is_file():
        print(f"perfbench: no dsdl sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import dsdl
    import gen

    if Path(dsdl.__file__).resolve().parent != (SRC / "dsdl").resolve():
        print(f"perfbench: imported dsdl from {dsdl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2

    from pipeline import Checker

    mode = "trace" if args.trace else "plain"
    work = WORK / f"{args.workload}-{args.seed}-{mode}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    checker = Checker()
    try:
        manifest = gen.generate(args.workload, args.seed, data)
        if args.trace:
            import traced

            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics, notes = traced.run_traced(manifest, data, args.seconds, checker, trace_file)
        else:
            import untraced

            metrics, notes = untraced.run_untraced(manifest, data, args.seconds, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {mode} run, {args.seconds:g} s measured")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  failed_share = {share:.6g} ratio ({checker.failed} of {checker.attempted} operations)")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
