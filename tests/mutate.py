"""A seeded sample of AST mutants of ``src/dsdl``, each run against tier-1.

    python tests/mutate.py --seed 36 --per-file 2 src/dsdl/validation.py src/dsdl/schema.py

A mutant changes one site of one file: a comparison turned to its negation
(``<`` to ``>=``, ``==`` to ``!=``, ``in`` to ``not in``, ``is`` to ``is not``
and back), ``and`` turned to ``or`` and back, a ``not`` dropped, or an int
constant moved by one either way. The seed picks ``--per-file`` sites of each
file, the same ones on every run of the same sources.

Everything runs in a throwaway copy of the repository, made in the system's
temporary directory (``TMPDIR``), never in the tree the script lives in. A
control comes first: with every named file replaced by its ``ast.unparse``d,
unmutated source, the tier-1 tests must pass, or no mutant is run. Each
mutant then runs the tier-1 tests with ``-x`` in a child process group,
killed whole once it passes the ``--timeout`` cap.

Per file, the report gives the mutants made, failed (killed by a test), timed
out and survived, and each survivor's line and operator. The exit status is 0
when every mutant failed, 1 when one survived or timed out, and 2 when the
control failed. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
_UNCOPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")

_NEGATED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SYMBOLS = {
    ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}


class _Sites(ast.NodeTransformer):
    """Walks a module in a fixed order, listing each site a mutant may change
    as ``(line, operator)``; with ``pick`` set, it changes the ``pick``-th."""

    def __init__(self, pick: int | None = None):
        self.pick, self.sites = pick, []

    def _site(self, node: ast.AST, operator: str) -> bool:
        """Lists a site of ``node``; whether it is the one to change."""
        self.sites.append((node.lineno, operator))
        return len(self.sites) - 1 == self.pick

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            negated = _NEGATED[type(op)]
            if self._site(node, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[negated]}"):
                node.ops[i] = negated()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        other = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[other]}"):
            node.op = other()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not x -> x"):
            return node.operand
        return node

    def visit_Constant(self, node):
        changed = node
        if type(node.value) is int:
            for moved in (node.value + 1, node.value - 1):
                if self._site(node, f"{node.value} -> {moved}"):
                    changed = ast.copy_location(ast.Constant(moved), node)
        return changed


def _mutant(source: str, pick: int | None = None) -> str:
    """``source`` unparsed, with the ``pick``-th site changed when ``pick`` is set."""
    return ast.unparse(_Sites(pick).visit(ast.parse(source)))


def _tier_1(work: Path, timeout: float) -> tuple[str, float]:
    """Run the tier-1 tests in ``work``: ``("passed" | "failed" | "timed out", seconds)``.
    The child leads its own process group, which is killed whole on timeout."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    with open(work / "mutate.log", "w") as log:
        child = subprocess.Popen(TIER_1, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            status = "passed" if child.wait(timeout=timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            status = "timed out"
    return status, time.monotonic() - start


def run(files: list[Path], seed: int, per_file: int, timeout: float) -> int:
    sources = {file: file.read_text(encoding="utf-8") for file in files}
    work = Path(tempfile.mkdtemp(prefix="dsdl-mutate-")) / "repo"
    try:
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(*_UNCOPIED))
        copies = {file: work / file.relative_to(ROOT) for file in files}
        for file, source in sources.items():
            copies[file].write_text(_mutant(source), encoding="utf-8")
        status, seconds = _tier_1(work, timeout)
        print(f"control (unparsed sources): {status} in {seconds:.1f} s", flush=True)
        if status != "passed":
            print((work / "mutate.log").read_text(encoding="utf-8")[-4000:])
            return 2
        totals = dict.fromkeys(("made", "failed", "timed out", "survived"), 0)
        for file, source in sources.items():
            name = file.relative_to(ROOT).as_posix()
            sites = _Sites()
            sites.visit(ast.parse(source))
            picks = sorted(random.Random(f"{seed}/{name}").sample(range(len(sites.sites)), min(per_file, len(sites.sites))))
            counts, survivors = dict.fromkeys(totals, 0), []
            for pick in picks:
                line, operator = sites.sites[pick]
                copies[file].write_text(_mutant(source, pick), encoding="utf-8")
                status, seconds = _tier_1(work, timeout)
                outcome = "survived" if status == "passed" else status
                print(f"  {name}:{line} {operator}: {outcome} in {seconds:.1f} s", flush=True)
                counts["made"] += 1
                counts[outcome] += 1
                if outcome == "survived":
                    survivors.append(f"{name}:{line} {operator}")
            copies[file].write_text(_mutant(source), encoding="utf-8")
            print(f"{name}: " + ", ".join(f"{key} {value}" for key, value in counts.items()), flush=True)
            for survivor in survivors:
                print(f"  survivor: {survivor}")
            for key, value in counts.items():
                totals[key] += value
        print(f"seed {seed}: " + ", ".join(f"{key} {value}" for key, value in totals.items()))
        return 1 if totals["survived"] or totals["timed out"] else 0
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="source files to mutate, below the repository")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-file", type=int, default=2, help="mutants per file (default 2)")
    parser.add_argument("--timeout", type=float, default=300, help="seconds each tier-1 run may take (default 300)")
    args = parser.parse_args(argv)
    files = [file.resolve() for file in args.files]
    for file in files:
        if not file.is_file() or not file.is_relative_to(ROOT):
            parser.error(f"{file} is not a file below {ROOT}")
    return run(files, args.seed, args.per_file, args.timeout)


if __name__ == "__main__":
    raise SystemExit(main())
