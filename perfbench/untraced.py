"""The untraced run: end-to-end metrics, every result checked.

Rounds of every measured operation are interleaved, so that each metric
samples the whole run and a slow spell of the shared machine hits all of
them alike. A calibration loop runs between operations and each timing is
scaled by the calibrations around it, which cancels the machine's speed
phases. Each metric is the median over its rounds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from dsdl import parse_document, resolve_schema, validate_label
from pipeline import (
    CAL_REF_S,
    PROBE,
    SRC,
    cli_argv,
    calibrate,
    cli_problems,
    library_env,
    ref_problem,
    report_problems,
    run_pipeline,
    spawn,
)

MIN_ROUNDS = 3
CLI_KINDS = {  # kind: (command, --format, metric)
    "validate": ("validate", "text", "cli_validate_s"),
    "validate-json": ("validate", "json", "cli_json_s"),
    "summary": ("summary", "text", "cli_summary_s"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "cli_validate_s": "s",
    "cli_json_s": "s",
    "cli_summary_s": "s",
    "peak_rss_mb": "MB",
}


def _setup_probe(manifest: dict, data: Path, checker, what: str) -> float | None:
    """One fresh interpreter: import time plus the first resolve_schema."""
    argv = [sys.executable, str(PROBE), "setup", str(SRC), str(data / manifest["description"]), manifest["format"]]
    code, out, err, _, _ = spawn(argv, data)
    if code or err:
        checker.check(what, [f"exit code {code}", err.decode(errors="replace")[-300:]])
        return None
    result = json.loads(out)
    problems = [f"resolve diagnostic {d}" for d in result["diagnostics"]]
    if not result["resolved"]:
        problems.append("schema did not resolve")
    return result["import_s"] + result["resolve_s"] if checker.check(what, problems) else None


def _pipeline_rep(manifest: dict, data: Path, checker, what: str) -> float | None:
    """One warm run of the library pipeline; samples per second."""
    try:
        report, diags, seconds = run_pipeline(data / manifest["description"], manifest["format"])
        problems = report_problems(manifest, report, diags)
    except Exception as exc:  # a raising operation is a failed one
        report, problems = None, [f"raised {exc!r}"]
    return report.sample_count / seconds if checker.check(what, problems) else None


def _cli_run(kind: str, manifest: dict, data: Path, checker, first_out: dict, what: str) -> tuple[float, float]:
    """One ``dsdl`` child; (wall s, peak RSS MB). Output must repeat byte for byte."""
    command, fmt, _ = CLI_KINDS[kind]
    code, out, err, wall, peak = spawn(cli_argv(command, fmt, manifest["description"]), data)
    problems = cli_problems(kind, manifest, code, out, err)
    if first_out.setdefault(kind, out) != out:
        problems.append("stdout differs from the first run of the same command")
    checker.check(what, problems)
    return wall, peak


def check_labels(manifest: dict, data: Path, checker) -> None:
    """Resolve every generated label once through ``validate_label``."""
    desc = data / manifest["description"]
    doc = parse_document(desc.read_text(encoding="utf-8"), format=manifest["format"], source=str(desc))
    schema, _ = resolve_schema(doc, library_env(), source=desc)
    for entry in manifest["labels"]:
        try:
            ref, _ = validate_label(entry["raw"], schema.registry.get(entry["dom"]), path=entry["path"])
            problem = ref_problem(ref, entry)
        except Exception as exc:
            problem = f"label {entry['raw']!r} at {entry['path']} raised {exc!r}"
        checker.check(f"label {entry['path']}", [problem] if problem else [])


class _Scale:
    """Calibration runs between the timed operations. Each operation's figure
    is scaled by the mean of the calibrations just before and just after it,
    so that it reads as on a machine of constant speed."""

    def __init__(self):
        self.last = calibrate()
        self.runs = [self.last]

    def factor(self) -> float:
        now = calibrate()
        self.runs.append(now)
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


def run_untraced(manifest: dict, data: Path, seconds: float, checker) -> tuple[dict, list[str]]:
    """Rounds of every measured operation, interleaved so that each metric
    samples the whole run and a slow spell of the machine hits all alike.
    Timings are scaled by the calibration around them; the raw wall-clock
    medians are printed as notes."""
    _setup_probe(manifest, data, checker, "setup warm-up")  # writes bytecode caches
    _pipeline_rep(manifest, data, checker, "pipeline warm-up")  # lazy set-up, caches
    series: dict[str, list] = {name: [] for name in END_TO_END_UNITS}
    raw: dict[str, list] = {name: [] for name in END_TO_END_UNITS}

    def record(name: str, value: float | None, factor: float) -> None:
        if value is None:
            return
        raw[name].append(value)
        series[name].append(value / factor if name == "samples_per_s" else value * factor)

    first_out: dict[str, bytes] = {}
    scale = _Scale()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        setup = _setup_probe(manifest, data, checker, f"setup probe {rounds}")
        record("setup_s", setup, scale.factor())
        rate = _pipeline_rep(manifest, data, checker, f"pipeline rep {rounds}")
        record("samples_per_s", rate, scale.factor())
        for kind, (_, _, metric) in CLI_KINDS.items():
            wall, peak = _cli_run(kind, manifest, data, checker, first_out, f"dsdl {kind} run {rounds}")
            record(metric, wall, scale.factor())
            if kind == "validate":
                series["peak_rss_mb"].append(peak)
        rounds += 1
    check_labels(manifest, data, checker)
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = series[name]
        metrics[name] = {"value": statistics.median(values) if values else float("nan"), "unit": unit}
    notes = [
        f"each metric is the median of {rounds} rounds "
        f"over {manifest['verdict']['sample_count']} samples",
        f"timings scaled to a {CAL_REF_S * 1e3:g} ms calibration; the calibration took "
        f"{statistics.median(scale.runs) * 1e3:.4g} ms (median), "
        f"{min(scale.runs) * 1e3:.4g}-{max(scale.runs) * 1e3:.4g} ms",
        "raw wall-clock medians: " + ", ".join(
            f"{name} = {statistics.median(raw[name]):.6g}" for name in raw if raw[name]),
    ]
    return metrics, notes
