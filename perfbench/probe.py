"""Fresh-interpreter probes, run as a child of the benchmark.

    python3 probe.py setup SRC DESCRIPTION FORMAT
        time ``import dsdl`` and the first ``resolve_schema`` on the
        already-parsed description (parsing is not timed)
    python3 probe.py cli SRC
        time a cold ``import dsdl.cli``

Prints one JSON object. Nothing is imported before the timed import
except ``sys`` and ``time``.
"""

import sys
import time


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "cli":
        t0 = time.perf_counter()
        import dsdl.cli  # noqa: F401

        result = {"import_s": time.perf_counter() - t0}
    else:
        t0 = time.perf_counter()
        import dsdl

        import_s = time.perf_counter() - t0
        from pathlib import Path

        desc = Path(sys.argv[3])
        doc = dsdl.parse_document(desc.read_text(encoding="utf-8"), format=sys.argv[4], source=str(desc))
        env = dsdl.LibraryEnvironment.from_environment(environ={})
        t1 = time.perf_counter()
        schema, diags = dsdl.resolve_schema(doc, env, source=desc)
        resolve_s = time.perf_counter() - t1
        result = {
            "import_s": import_s,
            "resolve_s": resolve_s,
            "resolved": schema is not None,
            "diagnostics": [d.format() for d in diags],
        }
    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main()
