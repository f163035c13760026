"""Shared pieces of the benchmark: the library pipeline, CLI children and
the checks that hold every result against the generator's manifest.

The caller puts the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from dsdl import (
    ClassRef,
    LibraryEnvironment,
    parse_document,
    resolve_schema,
    validate_dataset,
)
from dsdl.validation import Record

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE = HERE / "probe.py"


class Checker:
    """Counts operations and keeps every disagreement with its input."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def library_env() -> LibraryEnvironment:
    # DSDL_LIBRARY_PATH of the caller's shell must not change the inputs
    return LibraryEnvironment.from_environment(environ={})


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSDL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pipeline(desc: Path, fmt: str):
    """parse_document -> resolve_schema -> validate_dataset, as a library user
    runs it. Returns (report, resolve diagnostics, seconds)."""
    t0 = time.perf_counter()
    doc = parse_document(desc.read_text(encoding="utf-8"), format=fmt, source=str(desc))
    schema, diags = resolve_schema(doc, library_env(), source=desc)
    report = validate_dataset(schema, doc.data, base=desc.parent) if schema is not None else None
    return report, diags, time.perf_counter() - t0


CAL_REF_S = 0.010


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work (str, list and dict
    churn, about CAL_REF_S on the reference machine), with the GC off so the
    caller's heap does not change it. The work runs in five pieces and the
    median piece counts, so one preemption does not skew it. Timings divided
    by it, times CAL_REF_S, read as seconds on a machine of constant speed."""
    pieces = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            table = {}
            for i in range(8000):
                table[str(i)] = [i, i * 2]
            sum(pair[1] for pair in table.values())
            pieces.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return 5 * sorted(pieces)[2]


def _typed_at(samples: list, path: str):
    parts = path.split("/")[1:]
    node = samples
    for part in parts:
        if isinstance(node, Record):
            node = node.values.get(part)
        elif isinstance(node, list):
            node = node[int(part)] if int(part) < len(node) else None
        else:
            return None
    return node


def ref_problem(ref, entry: dict) -> str | None:
    """Compare a resolved label with the manifest entry; None when it agrees."""
    expect = entry["expect"]
    if isinstance(expect, dict):
        if ref is not None:
            return f"label {entry['raw']!r} at {entry['path']}: expected {expect['code']}, got {ref}"
        return None
    got = [ref.domain, list(ref.index_path), ref.path] if isinstance(ref, ClassRef) else None
    if got != expect:
        return f"label {entry['raw']!r} at {entry['path']}: expected {expect}, got {got}"
    return None


def verdict_problems(verdict: dict, sample_count: int, findings: list, exit_code: int | None = None) -> list[str]:
    problems = []
    if exit_code is not None and exit_code != verdict["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {verdict['exit_code']}")
    if sample_count != verdict["sample_count"]:
        problems.append(f"sample_count {sample_count}, expected {verdict['sample_count']}")
    got = sorted([code, path] for code, path in findings)
    if got != verdict["findings"]:
        extra = [f for f in got if f not in verdict["findings"]][:3]
        missing = [f for f in verdict["findings"] if f not in got][:3]
        problems.append(f"findings differ: unexpected {extra}, missing {missing}")
    return problems


def report_problems(manifest: dict, report, diags, verdict_key: str = "verdict") -> list[str]:
    """Check one library pipeline result: counts, findings and every label."""
    if report is None:
        return [f"schema did not resolve: {[d.format() for d in diags][:3]}"]
    problems = [f"resolve diagnostic {d.format()}" for d in diags]
    verdict = manifest[verdict_key]
    if report.counts_by_code() != verdict["counts_by_code"]:
        problems.append(f"counts_by_code {report.counts_by_code()}, expected {verdict['counts_by_code']}")
    problems += verdict_problems(verdict, report.sample_count, [(d.code, d.path) for d in report.diagnostics])
    if verdict_key == "verdict":
        for entry in manifest["labels"]:
            problem = ref_problem(_typed_at(report.samples, entry["path"]), entry)
            if problem:
                problems.append(problem)
    return problems


def spawn(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, stderr, wall s, peak RSS MB)."""
    err_path = cwd / f".stderr-{os.getpid()}"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return proc.returncode, out, stderr, wall, usage.ru_maxrss / 1024.0


def cli_argv(command: str, fmt: str, desc_name: str) -> list[str]:
    argv = [sys.executable, "-m", "dsdl.cli", command]
    if fmt == "json":
        argv += ["--format", "json"]
    return argv + [desc_name]


def cli_problems(kind: str, manifest: dict, code: int, out: bytes, err: bytes) -> list[str]:
    """Check one CLI run (``validate``, ``validate-json`` or ``summary``)."""
    verdict = manifest["verdict"]
    problems = [f"stderr: {err.decode(errors='replace')[-300:]}"] if err else []
    text = out.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if kind == "validate-json":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        if payload.get("counts_by_code") != verdict["counts_by_code"]:
            problems.append(f"counts_by_code {payload.get('counts_by_code')}, expected {verdict['counts_by_code']}")
        if (payload.get("errors"), payload.get("warnings")) != (verdict["errors"], verdict["warnings"]):
            problems.append(f"errors/warnings {payload.get('errors')}/{payload.get('warnings')}")
        findings = [(d["code"], d["path"]) for d in payload.get("diagnostics", [])]
        return problems + verdict_problems(verdict, payload.get("sample_count"), findings, code)
    if kind == "validate":
        expected = f"{verdict['sample_count']} samples validated, {verdict['errors']} errors, {verdict['warnings']} warnings"
        if not lines or lines[-1] != expected:
            problems.append(f"summary line {lines[-1:]!r}, expected {expected!r}")
        findings = [tuple(line.split(" ", 3)[1:3]) for line in lines[:-1]]
        return problems + verdict_problems(verdict, verdict["sample_count"], findings, code)
    # summary prints statistics on a clean dataset and the findings otherwise
    if verdict["errors"]:
        findings = [tuple(line.split(" ", 3)[1:3]) for line in lines]
        return problems + verdict_problems(verdict, verdict["sample_count"], findings, code)
    if code != verdict["exit_code"]:
        problems.append(f"exit code {code}, expected {verdict['exit_code']}")
    if not lines or lines[0] != f"samples: {verdict['sample_count']}":
        problems.append(f"first line {lines[:1]!r}")
    labels = {}
    if "labels:" in lines:
        for line in lines[lines.index("labels:") + 1:]:
            if not line.startswith("  "):
                break
            key, _, count = line.strip().rpartition(": ")
            labels[key] = int(count)
    if labels != manifest["label_counts"]:
        problems.append("label frequencies differ from the manifest")
    return problems
