"""The counts ``dsdl summary`` prints, taken from built typed values.

``counts(schema, samples)`` walks the values that
``validate_dataset(..., build=True)`` keeps, the way ``dsdl summary``
counted before it folded its counts sample by sample. It is kept here
unchanged as the reference of ``test_summary_counts_match_the_typed_value_walk``.
"""

from __future__ import annotations

from dsdl.schema import StructClass
from dsdl.validation import ClassRef, MediaRef, Record, SampleCounts


def counts(schema, samples: list) -> SampleCounts:
    labels: dict[str, int] = {}
    fill: dict[tuple[str, str], list[int]] = {}
    locators: dict[str, int] = {}

    def visit(value) -> None:
        if isinstance(value, ClassRef):
            key = str(value)
            labels[key] = labels.get(key, 0) + 1
        elif isinstance(value, MediaRef):
            locators[value.locator.kind] = locators.get(value.locator.kind, 0) + 1
        elif isinstance(value, Record):
            struct = schema.registry.get(value.struct_name)
            optional = struct.optional if isinstance(struct, StructClass) else frozenset()
            for fname in optional:
                counts = fill.setdefault((value.struct_name, fname), [0, 0])
                counts[1] += 1
                if value.values.get(fname) is not None:
                    counts[0] += 1
            for item in value.values.values():
                visit(item)
        elif isinstance(value, list):
            for item in value:
                visit(item)

    for sample in samples:
        visit(sample)
    return SampleCounts(labels, fill, locators)
