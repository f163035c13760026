"""The traced run: per-layer metrics from the benchmark's own calls.

The benchmark calls each layer's public function itself, one stage after
another, on the workload's inputs, and records a span (name, start, end,
parent) around every call. Spans stay in memory and are written to one
JSON file at the end. The lower layers that ``validate_value`` calls
(labels, locators) are timed by their own loops, and
``validation.self_s`` is the validation span minus those loops and the
external load. End-to-end metrics never come from this run; its own cost
is stated as ``trace.overhead_pct``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

from dsdl import (
    Diagnostic,
    DsdlError,
    LocatorError,
    Severity,
    ValidationReport,
    build_definitions,
    check_acyclic,
    instantiate_type,
    load_external_samples,
    lookup_class,
    parse_document,
    parse_locator,
    parse_sample_type_spec,
    resolve_imports,
    validate_label,
    validate_value,
)
from dsdl import cli
from dsdl.document import LOCAL_PATH
from dsdl.validation import Record

import gen
from pipeline import (
    PROBE,
    SRC,
    cli_problems,
    library_env,
    ref_problem,
    report_problems,
    run_pipeline,
    spawn,
    verdict_problems,
)

MIN_REPS = 3
LOOP_MIN_S = 0.05  # per-call loops repeat until they have run this long
PROBE_LABELS = 12
PROBE_FINDINGS = 256
DOMAIN_BUCKETS = {20: "c20", 1000: "c1k", 10000: "c10k"}

PER_LAYER_UNITS = {
    "document.parse_s": "s",
    "document.mb_per_s": "MB/s",
    "typeexpr.parse_us": "us",
    "typeexpr.specs": "count",
    "schema.build_s": "s",
    "schema.lookup_us.c20": "us",
    "schema.lookup_us.c1k": "us",
    "schema.lookup_us.c10k": "us",
    "schema.lookups": "count",
    "schema.lookup_failed": "count",
    "resolver.imports_s": "s",
    "resolver.files": "count",
    "resolver.acyclic_s": "s",
    "resolver.instantiate_s": "s",
    "validation.load_external_s": "s",
    "validation.sample_us.p50": "us",
    "validation.sample_us.p99": "us",
    "validation.label_us": "us",
    "validation.self_s": "s",
    "validation.values": "count",
    "validation.diagnostics": "count",
    "locator.parse_us": "us",
    "locator.count": "count",
    "diagnostics.format_us": "us",
    "diagnostics.jsonable_us": "us",
    "diagnostics.report_s": "s",
    "diagnostics.count": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_pct": "%",
    "growth.sample_us.quarter": "us",
    "growth.sample_us.full": "us",
}


class Tracer:
    """In-memory spans; ``span`` nests by the order calls are made."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                 for i, (n, s, e, p) in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": spans}) + "\n", encoding="utf-8")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _per_call(tracer: Tracer, name: str, fn, items: list) -> float:
    """Seconds per call of ``fn`` over ``items``, repeated for LOOP_MIN_S."""
    if not items:
        return float("nan")
    gc.collect()  # garbage left by earlier stages is not this loop's cost
    calls = 0
    start = time.perf_counter()
    with tracer.span(name):
        while True:
            for item in items:
                fn(item)
            calls += len(items)
            if time.perf_counter() - start >= LOOP_MIN_S:
                break
    return tracer.durations(name)[-1] / calls


def _count_values(value) -> int:
    if isinstance(value, Record):
        return 1 + sum(_count_values(v) for v in value.values.values())
    if isinstance(value, list):
        return 1 + sum(_count_values(v) for v in value)
    return 1


def _traced_pipeline(tracer: Tracer, manifest: dict, desc: Path):
    """The library pipeline as separate public stages, each in a span."""
    with tracer.span("pipeline"):
        with tracer.span("document"):
            text = desc.read_text(encoding="utf-8")
            doc = parse_document(text, format=manifest["format"], source=str(desc))
        with tracer.span("resolver.imports"):
            registry, diags = resolve_imports(doc, library_env(), desc)
        with tracer.span("resolver.acyclic"):
            diags += check_acyclic(registry)
        with tracer.span("resolver.instantiate"):
            ctype = instantiate_type(parse_sample_type_spec(doc.data.sample_type), {}, registry, diags=diags)
        findings: list[Diagnostic] = []
        samples = []
        with tracer.span("validation"):
            with tracer.span("validation.load_external"):
                if doc.data.sample_path == LOCAL_PATH:
                    raws = doc.data.samples
                else:
                    raws = load_external_samples(doc.data.sample_path, desc.parent)
            for i, raw in enumerate(raws):
                with tracer.span("validation.sample"):
                    value, found = validate_value(raw, ctype, f"samples/{i}")
                samples.append(value)
                findings += found
    return doc, registry, diags, samples, findings, len(text.encode("utf-8"))


def _probe_domain(seed: int, size: int):
    """Seeded stand-in domain for a size the workload does not have."""
    rng = random.Random(f"probe/{size}/{seed}")
    if size == 10000:
        domain = gen.DottedDomain("Probe", rng)
        syntaxes = gen.DOTTED_SYNTAXES
    else:
        domain = gen.FlatDomain("Probe", gen.class_names(rng, size, "q"))
        syntaxes = gen.FLAT_SYNTAXES
    registry, _ = build_definitions({"Probe": {"$def": "class_domain", "classes": domain.classes()}})
    selectors = [domain.label(rng.randrange(len(domain)), syntaxes[i % len(syntaxes)])[1]
                 for i in range(PROBE_LABELS)]
    return registry.get("Probe"), selectors


def _lookup_metrics(tracer, manifest, registry, metrics) -> None:
    buckets: dict[str, list] = {}
    failed = 0
    for entry in manifest["labels"]:
        dom = registry.get(entry["dom"])
        buckets.setdefault(DOMAIN_BUCKETS[len(dom)], []).append((dom, entry["selector"]))
    for dom, selector in (pair for pairs in buckets.values() for pair in pairs):
        try:
            lookup_class(dom, selector)
        except DsdlError:
            failed += 1

    def lookup(pair):
        try:
            lookup_class(*pair)
        except DsdlError:
            pass

    for size, bucket in DOMAIN_BUCKETS.items():
        pairs = buckets.get(bucket)
        if not pairs:
            dom, selectors = _probe_domain(manifest["seed"], size)
            pairs = [(dom, s) for s in selectors]
        metrics[f"schema.lookup_us.{bucket}"] = _per_call(tracer, f"schema.lookup.{bucket}", lookup, pairs) * 1e6
    metrics["schema.lookups"] = sum(len(p) for p in buckets.values())
    metrics["schema.lookup_failed"] = failed


def _raw_specs(doc, data: Path, manifest: dict) -> list:
    specs = [doc.data.sample_type]
    bodies = list(doc.defs.values())
    for name in manifest["imports"]:
        imported = parse_document((data / name).read_text(encoding="utf-8"), format=manifest["format"])
        bodies += imported.defs.values()
    for body in bodies:
        specs += list(body.get("$fields", {}).values())
    return specs


def _probe_findings() -> list[Diagnostic]:
    codes = gen.DEFECTS
    return [Diagnostic(codes[i % len(codes)], Severity.ERROR, f"samples/{i}/objects/0/bbox",
                       f"probe finding {i}") for i in range(PROBE_FINDINGS)]


def run_traced(manifest: dict, data: Path, seconds: float, checker, trace_file: Path):
    tracer = Tracer()
    desc = data / manifest["description"]
    fmt = manifest["format"]
    verdict = manifest["verdict"]
    metrics: dict[str, float] = {}
    budget = seconds / 4

    # untraced and traced pipeline repetitions, for trace.overhead_pct
    plain, last_report = [], None
    deadline = None
    while len(plain) <= MIN_REPS or time.perf_counter() < deadline:
        report, diags, elapsed = run_pipeline(desc, fmt)
        if checker.check(f"pipeline rep {len(plain)}", report_problems(manifest, report, diags)):
            last_report = report
        plain.append(elapsed)
        deadline = deadline or time.perf_counter() + budget
    plain = plain[1:]  # warm-up
    traced_reps = 0
    deadline = time.perf_counter() + budget
    while traced_reps < MIN_REPS or time.perf_counter() < deadline:
        doc, registry, diags, samples, findings, nbytes = _traced_pipeline(tracer, manifest, desc)
        problems = [f"resolve diagnostic {d.format()}" for d in diags]
        problems += verdict_problems(verdict, len(samples), [(d.code, d.path) for d in findings])
        checker.check(f"traced pipeline rep {traced_reps}", problems)
        traced_reps += 1

    n = verdict["sample_count"]
    traced_s = _median(tracer.durations("pipeline"))
    metrics["trace.overhead_pct"] = (traced_s / _median(plain) - 1.0) * 100.0
    metrics["document.parse_s"] = _median(tracer.durations("document"))
    metrics["document.mb_per_s"] = nbytes / 1e6 / metrics["document.parse_s"]
    metrics["resolver.imports_s"] = _median(tracer.durations("resolver.imports"))
    metrics["resolver.files"] = len(manifest["imports"])
    metrics["resolver.acyclic_s"] = _median(tracer.durations("resolver.acyclic"))
    metrics["resolver.instantiate_s"] = _median(tracer.durations("resolver.instantiate"))
    metrics["validation.load_external_s"] = _median(tracer.durations("validation.load_external"))
    per_sample = tracer.durations("validation.sample")
    metrics["validation.sample_us.p50"] = _median(per_sample) * 1e6
    metrics["validation.sample_us.p99"] = (
        statistics.quantiles(per_sample, n=100)[98] if len(per_sample) >= 100 else max(per_sample)) * 1e6
    metrics["validation.values"] = sum(_count_values(s) for s in samples)
    metrics["validation.diagnostics"] = len(findings)

    # per-call loops over the workload's own specs, labels, locators, findings
    specs = _raw_specs(doc, data, manifest)
    metrics["typeexpr.parse_us"] = _per_call(tracer, "typeexpr.parse", parse_sample_type_spec, specs) * 1e6
    metrics["typeexpr.specs"] = len(specs)
    metrics["schema.build_s"] = _per_call(tracer, "schema.build", build_definitions, [doc.defs])
    _lookup_metrics(tracer, manifest, registry, metrics)

    labels = [(e, registry.get(e["dom"])) for e in manifest["labels"]]
    refs = []
    gc.collect()
    with tracer.span("validation.label"):
        for entry, dom in labels:
            refs.append(validate_label(entry["raw"], dom, path=entry["path"])[0])
    label_s = tracer.durations("validation.label")[-1]
    metrics["validation.label_us"] = label_s / len(labels) * 1e6
    for (entry, _), ref in zip(labels, refs):
        problem = ref_problem(ref, entry)
        checker.check(f"label {entry['path']}", [problem] if problem else [])

    def parse_loc(text):
        try:
            return parse_locator(text).kind
        except LocatorError as exc:
            return exc.code

    locators = manifest["locators"]
    metrics["locator.parse_us"] = _per_call(tracer, "locator.parse", parse_loc, [t for t, _ in locators]) * 1e6
    for text, expect in locators:
        got = parse_loc(text)
        checker.check(f"locator {text!r}", [f"classified as {got}, expected {expect}"] if got != expect else [])
    metrics["locator.count"] = len(locators)
    locator_s = metrics["locator.parse_us"] * 1e-6 * len(locators)
    metrics["validation.self_s"] = (_median(tracer.durations("validation")) - metrics["validation.load_external_s"]
                                    - label_s - locator_s)

    timed_findings = findings or _probe_findings()
    metrics["diagnostics.format_us"] = _per_call(tracer, "diagnostics.format", Diagnostic.format, timed_findings) * 1e6
    metrics["diagnostics.jsonable_us"] = (
        _per_call(tracer, "diagnostics.jsonable", Diagnostic.to_jsonable, timed_findings) * 1e6)
    report = last_report or ValidationReport()
    metrics["diagnostics.report_s"] = _per_call(tracer, "diagnostics.report", ValidationReport.to_jsonable, [report])
    metrics["diagnostics.count"] = len(findings)

    # CLI: cold import in a fresh interpreter, then main() in this process
    imports = []
    for i in range(MIN_REPS + 1):
        with tracer.span("cli.import"):
            code, out, err, _, _ = spawn([sys.executable, str(PROBE), "cli", str(SRC)], data)
        if checker.check(f"cli import probe {i}", [f"exit {code} {err[-300:]!r}"] if code or err else []) and i:
            imports.append(json.loads(out)["import_s"])
    metrics["cli.import_s"] = _median(imports)
    # main() and the bare library pipeline alternate, so the overhead is a
    # median of paired differences rather than of two drifting series
    mains, overheads = [], []
    for i in range(MIN_REPS):
        buffer = io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(buffer):
            code = cli.main(["validate", str(desc)])
        mains.append(tracer.durations("cli.main")[-1])
        checker.check(f"cli.main run {i}", cli_problems("validate", manifest, code, buffer.getvalue().encode(), b""))
        overheads.append(mains[-1] - run_pipeline(desc, fmt)[2])
    metrics["cli.main_s"] = _median(mains)
    metrics["cli.overhead_s"] = _median(overheads)

    # growth: per-sample pipeline cost on the quarter-size twin and the full set
    quarter = data / manifest["quarter_description"]
    q_times = []
    for rep in range(MIN_REPS + 1):
        with tracer.span("growth.quarter"):
            report, diags, elapsed = run_pipeline(quarter, fmt)
        checker.check(f"quarter pipeline rep {rep}", report_problems(manifest, report, diags, "quarter_verdict"))
        if rep:
            q_times.append(elapsed)
    metrics["growth.sample_us.quarter"] = _median(q_times) / manifest["quarter_verdict"]["sample_count"] * 1e6
    metrics["growth.sample_us.full"] = _median(plain) / n * 1e6

    tracer.write(trace_file)
    pipeline_s = _median(plain)
    notes = [
        f"spans written to {trace_file.relative_to(trace_file.parent.parent)}",
        f"untraced pipeline {pipeline_s:.4g} s (median of {len(plain)}), traced {traced_s:.4g} s "
        f"(median of {traced_reps})",
        "share of the traced pipeline: " + ", ".join(
            f"{stage} {100 * _median(tracer.durations(stage)) / traced_s:.1f}%"
            for stage in ("document", "resolver.imports", "resolver.acyclic", "resolver.instantiate", "validation")),
    ]
    return {name: {"value": metrics[name] if unit == "count" else float(metrics[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}, notes
