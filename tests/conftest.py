"""Shared fixtures: corpus paths, pipeline helpers, CLI runner."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from dsdl import LibraryEnvironment, resolve_file, validate_dataset
from dsdl.cli import main as cli_main
from dsdl.diagnostics import Severity

CORPUS = Path(__file__).parent / "corpus"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# every conformance description file, with its expected inline/external sample count
CORPUS_FILES = {
    "get-started.json": 2,
    "get-started.yaml": 2,
    "optional-label.yaml": 4,
    "external-files/dataset.yaml": 4,
    "library-import.yaml": 2,
    "library-practice.yaml": 2,
    "examples/classification.yaml": 3,
    "examples/detection.yaml": 2,
    "examples/scene-detection.yaml": 2,
    "examples/segmentation.yaml": 3,
    "cifar10/set-train/train.yaml": 2,
    "voc/train.yaml": 2,
    "segmentation/semantic.yaml": 2,
    "segmentation/instance-map.yaml": 2,
    "segmentation/instance-polygon.yaml": 2,
    "segmentation/panoptic-map.yaml": 2,
    "segmentation/panoptic-polygon.yaml": 1,
    "keypoints/set-train/train.yaml": 1,
    "trackingnet/set-train/train.yaml": 1,
    "dota/set-train/train.yaml": 1,
    "synthtext/set-train/train.yaml": 1,
    "facade-paired/set-train/train.yaml": 1,
    "facade-unpaired/set-train/train.yaml": 2,
}


@pytest.fixture(autouse=True)
def _isolate_dsdl_env(monkeypatch):
    """Keep ambient DSDL_* variables from leaking into tests."""
    import os

    for key in [k for k in os.environ if k.startswith("DSDL_")]:
        monkeypatch.delenv(key)


@pytest.fixture
def library_env():
    return LibraryEnvironment.from_environment()


def load_perfbench(name: str):
    """A module of the benchmark, loaded from its file without adding
    ``perfbench`` to ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_corpus_doc(rel: str):
    path = CORPUS / rel
    return resolve_file(path, LibraryEnvironment.from_environment())[0], path


def run_corpus_pipeline(rel: str, *, strict: bool = False, extra_paths: tuple = ()):
    """parse -> resolve -> validate one corpus file; returns (schema, report, diags)."""
    path = CORPUS / rel
    doc, schema, diags = resolve_file(path, LibraryEnvironment.from_environment(tuple(extra_paths)))
    report = None
    if schema is not None:
        report = validate_dataset(schema, doc.data, base=path.parent, strict=strict)
    return schema, report, diags


def error_diags(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()
