"""Loops that a fault would make spin rather than fail.

The placement sweep behind an index path (``schema._Placement.child``) and
the count of a YAML nest past ``_MAX_DEPTH`` (``document._count_past_max_depth``)
each loop until a condition on the input holds. Each case runs in a child
process with a time limit, so a loop that no longer ends fails this test
instead of holding the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src"
_LIMIT_S = 30

# each case prints one JSON line: its outcome, a value or a finding's code and message
_CHILD = r"""
import json, sys
from dsdl import ClassLookupError, DocumentError, build_definitions, lookup_class, parse_document

def outcome(call):
    try:
        return ["ok", call()]
    except (ClassLookupError, DocumentError) as exc:
        return [exc.diagnostic.code, exc.diagnostic.message]

case, arg = sys.argv[1], sys.argv[2]
if case == "index-path":
    classes = ["vehicle.car", "vehicle.bus", "animal.cat", "animal.dog", "food"]
    dom = build_definitions({"D": {"$def": "class_domain", "classes": classes}})[0].get("D")
    print(json.dumps(outcome(lambda: str(lookup_class(dom, arg)))))
else:
    depth = int(arg)
    text = '$dsdl-version: "0.5.0"\nmeta: {a: ' + "[" * depth + "]" * depth + "}\n"
    print(json.dumps(outcome(lambda: repr(parse_document(text, format="yaml").meta)[:12])))
"""

_CASES = {
    "an index path past a prefix's children": (
        ("index-path", "1.9"),
        ["CLASS_INDEX_RANGE", "index 9 out of range 1..2 at level 2"],
    ),
    "an index path past the top level": (("index-path", "9.1"), ["CLASS_INDEX_RANGE", "index 9 out of range 1..3 at level 1"]),
    "an index path within range": (("index-path", "2.2"), ["ok", "D::animal.dog"]),
    "a YAML nest past the event loop's bound": (("yaml-nest", "150"), ["ok", "{'a': [[[[[["]),
    "a YAML nest past the recursion limit": (
        ("yaml-nest", "100000"),
        ["SYNTAX_ERROR", "malformed YAML: nesting is too deep"],
    ),
}


@pytest.mark.parametrize("args, expected", list(_CASES.values()), ids=list(_CASES))
def test_a_loop_on_bad_input_ends_within_its_time_limit(args, expected):
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, *args], env=env, capture_output=True, text=True, timeout=_LIMIT_S
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(args)} ran past {_LIMIT_S} s")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == expected
