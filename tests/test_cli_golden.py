"""Golden CLI output: stdout, stderr and exit code of a fixed command matrix.

The matrix is ``validate`` / ``inspect`` / ``summary`` x ``--format
text|json`` x {no flag, ``--strict``, ``--max-errors 1``} on every file
under ``tests/corpus`` and on a few broken inputs, plus a set of
``resolve-loc`` locators. The snapshot in ``golden/cli.json`` pins the
exact bytes, so a refactor of the CLI that changes any output fails here.
Absolute paths (the repository, the packaged library, the temporary
directory of the broken inputs) are replaced by placeholders.

Regenerate the snapshot after an intended output change with::

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import dsdl  # noqa: E402
from conftest import CORPUS, run_cli  # noqa: E402

SNAPSHOT = Path(__file__).parent / "golden" / "cli.json"
REPO = Path(__file__).resolve().parent.parent
LIBRARY = Path(dsdl.__file__).resolve().parent / "library"

COMMANDS = ("validate", "inspect", "summary")
FORMATS = ("text", "json")
FLAG_SETS = {"plain": (), "strict": ("--strict",), "max-errors-1": ("--max-errors", "1")}

# broken descriptions, written to a temporary directory
BROKEN = {
    "syntax.yaml": '$dsdl-version: "0.5.0"\nmeta: [unclosed\n',
    "cycle.yaml": (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  A:\n    $def: struct\n    $fields: {x: B}\n"
        "  B:\n    $def: struct\n    $fields: {y: A}\n"
    ),
    "bad-label.yaml": (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [a, b]\n"
        "  S:\n    $def: struct\n    $fields: {label: 'Label[dom=D]', n: Int}\n"
        "data:\n  sample-type: S\n  sample-path: $local\n"
        "  samples:\n    - {label: 9, n: 1}\n    - {label: c, n: x}\n    - {n: 2}\n"
    ),
    "unknown-type.yaml": '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Nope\n  sample-path: $local\n  samples: []\n',
    "latin.yaml": b'$dsdl-version: "0.5.0"\nmeta: {name: caf\xe9}\n',
    "missing.yaml": None,
}

LOCATORS = (
    ("abc/001.jpg",),
    ("abc/001.jpg", "--data-root", "/d"),
    ("$m/x.jpg", "--alias", "m=/mnt"),
    ("$nope/x.jpg",),
    ("::cuhk.ie::abcd1234xyz",),
    ("::a::",),
    ("$$bad",),
    ("../escape.jpg", "--data-root", "/d"),
)


def _corpus_files() -> list[str]:
    return sorted(p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*") if p.is_file())


def _normalise(text: str, tmp: Path) -> str:
    for path, marker in ((LIBRARY, "<library>"), (tmp, "<tmp>"), (REPO, "<repo>")):
        text = text.replace(str(path), marker)
    return text


def _cases(tmp: Path) -> dict[str, tuple[str, ...]]:
    inputs = {f"corpus/{rel}": str(CORPUS / rel) for rel in _corpus_files()}
    inputs.update({f"broken/{name}": str(tmp / name) for name in BROKEN})
    cases = {}
    for name, path in inputs.items():
        for command in COMMANDS:
            for fmt in FORMATS:
                for flag_name, flags in FLAG_SETS.items():
                    argv = (command, "--format", fmt, *flags, path)
                    cases[f"{command} {fmt} {flag_name} {name}"] = argv
    for args in LOCATORS:
        for fmt in FORMATS:
            cases[f"resolve-loc {fmt} {' '.join(args)}"] = ("resolve-loc", "--format", fmt, *args)
    return cases


def _write_broken(tmp: Path) -> None:
    for name, content in BROKEN.items():
        if isinstance(content, bytes):
            (tmp / name).write_bytes(content)
        elif content is not None:
            (tmp / name).write_text(content)


def _run_all(tmp: Path) -> dict[str, dict]:
    _write_broken(tmp)
    results = {}
    for case, argv in _cases(tmp).items():
        code, out, err = run_cli(*argv)
        results[case] = {"exit": code, "stdout": _normalise(out, tmp), "stderr": _normalise(err, tmp)}
    return results


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden_run, snapshot):
    assert sorted(golden_run) == sorted(snapshot)


@pytest.mark.parametrize("command", COMMANDS + ("resolve-loc",))
def test_cli_output_matches_snapshot(golden_run, snapshot, command):
    mismatched = [
        case
        for case, result in golden_run.items()
        if case.split(" ", 1)[0] == command and result != snapshot.get(case)
    ]
    assert not mismatched, f"{len(mismatched)} cases differ, first: {mismatched[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    import os

    for key in [k for k in os.environ if k.startswith("DSDL_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as tmp:
        results = _run_all(Path(tmp).resolve())
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {SNAPSHOT}")
