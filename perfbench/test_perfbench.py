"""Self-tests for the benchmark: the generator is deterministic, seeds
matter, and the manifest agrees with dsdl on a tiny instance of every
workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
from dsdl import cli, parse_document, resolve_schema, validate_label  # noqa: E402
from pipeline import cli_problems, library_env, ref_problem, report_problems, run_pipeline  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_files_and_manifest(self):
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = gen.generate(workload, 7, a, size="tiny")
                second = gen.generate(workload, 7, b, size="tiny")
                self.assertEqual(first, second, workload)
                self.assertEqual(_tree(Path(a)), _tree(Path(b)), workload)

    def test_other_seed_gives_other_data(self):
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = gen.generate(workload, 7, a, size="tiny")
                second = gen.generate(workload, 8, b, size="tiny")
                self.assertNotEqual(_tree(Path(a)), _tree(Path(b)), workload)
                self.assertNotEqual(first["labels"], second["labels"], workload)

    def test_sizes_are_fixed_per_seed(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = gen.generate("json-faulty", 1, a, size="tiny")
            second = gen.generate("json-faulty", 2, b, size="tiny")
        for key in ("sample_count", "counts_by_code", "exit_code"):
            self.assertEqual(first["verdict"][key], second["verdict"][key])
        self.assertEqual(len(first["labels"]), len(second["labels"]))


class ManifestAgreesWithDsdlTest(unittest.TestCase):
    def _each(self):
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp, self.subTest(workload=workload):
                yield gen.generate(workload, 3, tmp, size="tiny"), Path(tmp)

    def test_library_pipeline(self):
        for manifest, data in self._each():
            for key, verdict in (("description", "verdict"), ("quarter_description", "quarter_verdict")):
                report, diags, _ = run_pipeline(data / manifest[key], manifest["format"])
                self.assertEqual(report_problems(manifest, report, diags, verdict), [])

    def test_every_label_through_validate_label(self):
        for manifest, data in self._each():
            desc = data / manifest["description"]
            doc = parse_document(desc.read_text(encoding="utf-8"), format=manifest["format"], source=str(desc))
            schema, _ = resolve_schema(doc, library_env(), source=desc)
            for entry in manifest["labels"]:
                ref, _ = validate_label(entry["raw"], schema.registry.get(entry["dom"]), path=entry["path"])
                self.assertIsNone(ref_problem(ref, entry))

    def test_cli_output(self):
        for manifest, data in self._each():
            desc = str(data / manifest["description"])
            for kind, argv in (("validate", ["validate", desc]),
                               ("validate-json", ["validate", "--format", "json", desc]),
                               ("summary", ["summary", desc])):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
                self.assertEqual(cli_problems(kind, manifest, code, buffer.getvalue().encode(), b""), [], kind)

    def test_checks_catch_a_disagreement(self):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = gen.generate("json-faulty", 3, tmp, size="tiny")
            report, diags, _ = run_pipeline(Path(tmp) / manifest["description"], manifest["format"])
        manifest["verdict"]["findings"] = manifest["verdict"]["findings"][1:]
        manifest["labels"][0]["expect"] = ["DetDom", [99], "nope"]
        problems = report_problems(manifest, report, diags)
        self.assertTrue(any("findings differ" in p for p in problems))
        self.assertTrue(any("nope" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
