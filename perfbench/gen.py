"""Seeded generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes a synthetic DSDL dataset
(description file, imported type files or external sample files) plus a
quarter-size twin of it, and returns the verdict manifest. Everything in
the manifest follows from the DSDL rules the generator applied while it
built the data -- which label syntax addresses which class, which defect
was injected where -- and never from running dsdl.

Only the standard library is used; YAML is written by a small block-style
emitter so the files look like hand-written descriptions.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path

WORKLOADS = ("labels-scale", "yaml-inline", "json-detect", "json-faulty")

# Counts are fixed per size and only their arrangement is seeded, so every
# seed does the same amount of work.
SIZES = {
    "labels-scale": {
        "full": {"samples": 20, "tags20": 6, "tags1k": 6, "tags10k": 4},
        "tiny": {"samples": 4, "tags20": 2, "tags1k": 3, "tags10k": 2},
    },
    "yaml-inline": {"full": {"samples": 40}, "tiny": {"samples": 8}},
    "json-detect": {"full": {"samples": 800}, "tiny": {"samples": 16}},
    "json-faulty": {
        "full": {"samples": 800, "defects": 10},
        "tiny": {"samples": 16, "defects": 1},
    },
}

VERSION = "0.5.2"
OBJECTS_PER_SAMPLE = (1, 2, 3, 4, 5, 6, 7)
DOTTED_SHAPE = (10, 20, 50)  # 10k classes, three levels
KEYPOINTS = 5

FLAT_SYNTAXES = ("name", "index", "qname", "qindex")
DOTTED_SYNTAXES = ("name", "index", "qname", "qindex", "leaf", "ipath")

DEFECTS = (
    "TYPE_MISMATCH",
    "ARITY",
    "RANGE",
    "FIELD_MISSING",
    "FIELD_UNKNOWN",
    "CLASS_NOT_FOUND",
    "CLASS_INDEX_RANGE",
    "LOC_SYNTAX",
)
ERROR_CODES = frozenset(DEFECTS) - {"FIELD_MISSING", "FIELD_UNKNOWN"}

_BARE_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


# -- YAML and JSON writers ----------------------------------------------------


def _yaml_key(key: str) -> str:
    return key if _BARE_KEY.fullmatch(key) else json.dumps(key)


def _yaml_flow(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_yaml_flow(v) for v in value) + "]"
    return "{" + ", ".join(f"{_yaml_key(k)}: {_yaml_flow(v)}" for k, v in value.items()) + "}"


def _is_block(value) -> bool:
    if isinstance(value, dict):
        return bool(value)
    return isinstance(value, list) and any(isinstance(v, dict) for v in value)


def _yaml_block(value, indent: int) -> list[str]:
    pad = " " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if _is_block(item):
                lines.append(f"{pad}{_yaml_key(key)}:")
                lines.extend(_yaml_block(item, indent + 2))
            else:
                lines.append(f"{pad}{_yaml_key(key)}: {_yaml_flow(item)}")
        return lines
    for item in value:
        if _is_block(item):
            sub = _yaml_block(item, indent + 2)
            lines.append(f"{pad}- {sub[0].lstrip()}")
            lines.extend(sub[1:])
        else:
            lines.append(f"{pad}- {_yaml_flow(item)}")
    return lines


def dump_yaml(doc: dict) -> str:
    return "\n".join(_yaml_block(doc, 0)) + "\n"


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


# -- class domains and labels ---------------------------------------------------


def class_names(rng: random.Random, count: int, prefix: str) -> list[str]:
    """``count`` distinct identifiers; the trailing counter keeps them unique."""
    letters = string.ascii_lowercase
    return [f"{prefix}{''.join(rng.choices(letters, k=5))}_{i}" for i in range(count)]


class FlatDomain:
    def __init__(self, name: str, names: list[str]):
        self.name = name
        self.names = names

    def __len__(self) -> int:
        return len(self.names)

    def classes(self) -> list[str]:
        return list(self.names)

    def label(self, k: int, syntax: str):
        """Raw label, lookup selector and expected ClassRef for class ``k`` (0-based)."""
        name = self.names[k]
        raw, selector = {
            "name": (name, name),
            "index": (k + 1, k + 1),
            "qname": (f"{self.name}::{name}", name),
            "qindex": (f"{self.name}[{k + 1}]", str(k + 1)),
        }[syntax]
        return raw, selector, [self.name, [k + 1], name]


class DottedDomain:
    """Three-level hierarchy declared in nested order, so the 1-based index
    path of ``a.b.c`` is the position of each segment among its siblings and
    the flat index is its position in the declared list."""

    def __init__(self, name: str, rng: random.Random, shape=DOTTED_SHAPE):
        self.name = name
        self.shape = shape
        n1, n2, n3 = shape
        self.top = class_names(rng, n1, "a")
        self.mid = class_names(rng, n1 * n2, "b")
        self.leaf = class_names(rng, n1 * n2 * n3, "c")

    def _segments(self, k: int) -> tuple[tuple[int, int, int], str]:
        n1, n2, n3 = self.shape
        a, rest = divmod(k, n2 * n3)
        b, c = divmod(rest, n3)
        path = ".".join((self.top[a], self.mid[a * n2 + b], self.leaf[k]))
        return (a + 1, b + 1, c + 1), path

    def __len__(self) -> int:
        return len(self.leaf)

    def classes(self) -> list[str]:
        return [self._segments(k)[1] for k in range(len(self.leaf))]

    def label(self, k: int, syntax: str):
        ipath, path = self._segments(k)
        dotted = ".".join(str(i) for i in ipath)
        raw, selector = {
            "name": (path, path),
            "index": (k + 1, k + 1),
            "qname": (f"{self.name}::{path}", path),
            "qindex": (f"{self.name}[{dotted}]", dotted),
            "leaf": (self.leaf[k], self.leaf[k]),
            "ipath": (dotted, dotted),
        }[syntax]
        return raw, selector, [self.name, list(ipath), path]


def _domain_def(domain) -> dict:
    return {"$def": "class_domain", "classes": domain.classes()}


def _spread(rng: random.Random, pool: tuple, count: int) -> list:
    """``count`` items cycling through ``pool``, shuffled: fixed mix, seeded order."""
    items = [pool[i % len(pool)] for i in range(count)]
    rng.shuffle(items)
    return items


def _label_entry(domain, k: int, syntax: str, path: str) -> tuple[object, dict]:
    raw, selector, expect = domain.label(k, syntax)
    return raw, {"path": path, "dom": domain.name, "raw": raw, "selector": selector, "expect": expect}


def _locator(kind: str, i: int) -> str:
    return {
        "relative": f"images/{i:06d}.jpg",
        "alias": f"$imgs/train/{i:06d}.jpg",
        "object-id": f"::coco::{i}",
    }[kind]


_LOCATOR_MIX = ("relative",) * 7 + ("alias",) * 2 + ("object-id",)


class _Recorder:
    """Collects the manifest while a workload is generated."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.labels: list[dict] = []
        self.locators: list[str] = []
        self.findings: list[list[str]] = []

    def num(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 1)

    def bbox(self) -> list[float]:
        return [self.num(0, 600), self.num(0, 400), self.num(1, 200), self.num(1, 200)]


# -- workloads -------------------------------------------------------------------


def _labels_scale(b: _Recorder, size: dict) -> dict:
    rng = b.rng
    d20 = FlatDomain("Dom20", class_names(rng, 20, "k"))
    d1k = FlatDomain("Dom1k", class_names(rng, 1000, "m"))
    d10k = DottedDomain("Dom10k", rng)
    n = size["samples"]
    per_sample = {"tags20": [size["tags20"]] * n, "tags1k": [0] * n, "tags10k": [0] * n}
    for field in ("tags1k", "tags10k"):  # at most one big-domain label per sample
        for i in rng.sample(range(n), size[field]):
            per_sample[field][i] = 1
    plan = {
        "tags20": (d20, FLAT_SYNTAXES),
        "tags1k": (d1k, FLAT_SYNTAXES),
        "tags10k": (d10k, DOTTED_SYNTAXES),
    }
    syntax_queue = {
        field: _spread(rng, syntaxes, sum(per_sample[field])) for field, (_, syntaxes) in plan.items()
    }
    samples = []
    for i in range(n):
        kind = _LOCATOR_MIX[i % len(_LOCATOR_MIX)]
        media = _locator(kind, i)
        b.locators.append([media, kind])
        sample: dict = {"media": media}
        for field, (domain, _) in plan.items():
            values = []
            for j in range(per_sample[field][i]):
                k = rng.randrange(len(domain))
                raw, entry = _label_entry(domain, k, syntax_queue[field].pop(), f"samples/{i}/{field}/{j}")
                b.labels.append(entry)
                values.append(raw)
            sample[field] = values
        samples.append(sample)
    defs = {
        "Dom20": _domain_def(d20),
        "Dom1k": _domain_def(d1k),
        "Dom10k": _domain_def(d10k),
        "TagSample": {
            "$def": "struct",
            "$fields": {
                "media": "Image",
                "tags20": "List[etype=Label[dom=Dom20]]",
                "tags1k": "List[etype=Label[dom=Dom1k]]",
                "tags10k": "List[etype=Label[dom=Dom10k]]",
            },
        },
    }
    return {"format": "json", "defs": defs, "imports": {}, "sample_type": "TagSample", "samples": samples}


def _detection(b: _Recorder, size: dict, defects: int) -> dict:
    rng = b.rng
    dom = FlatDomain("DetDom", class_names(rng, 20, "k"))
    n = size["samples"]
    counts = _spread(rng, OBJECTS_PER_SAMPLE, n)
    syntaxes = _spread(rng, ("name", "name", "name", "index"), sum(counts))
    kinds = _spread(rng, _LOCATOR_MIX, n)
    samples = []
    label_at: dict[str, dict] = {}
    for i in range(n):
        objects = []
        for j in range(counts[i]):
            raw, entry = _label_entry(dom, rng.randrange(20), syntaxes.pop(), f"samples/{i}/objects/{j}/category")
            label_at[entry["path"]] = entry
            b.labels.append(entry)
            bbox = b.bbox()
            obj = {"bbox": bbox, "category": raw, "iscrowd": rng.random() < 0.1, "area": round(bbox[2] * bbox[3], 1)}
            if rng.random() < 0.7:
                obj["instance_id"] = rng.randrange(1, 10**6)
            objects.append(obj)
        b.locators.append([_locator(kinds[i], i), kinds[i]])
        samples.append({"media": b.locators[-1][0], "shape": [640, 480], "objects": objects})

    # each defect class hits its own distinct slots, so every defect yields
    # exactly one finding with a known code and path
    slots = [(i, j) for i, s in enumerate(samples) for j in range(len(s["objects"]))]
    object_defects = [d for d in DEFECTS if d != "LOC_SYNTAX"]
    chosen = rng.sample(slots, defects * len(object_defects))
    for d_index, code in enumerate(object_defects):
        for i, j in chosen[d_index * defects:(d_index + 1) * defects]:
            obj = samples[i]["objects"][j]
            base = f"samples/{i}/objects/{j}"
            path = _inject(code, obj, base, dom, rng)
            if code in ("CLASS_NOT_FOUND", "CLASS_INDEX_RANGE"):
                label_at[path].update(raw=obj["category"], selector=obj["category"], expect={"code": code})
            b.findings.append([code, path])
    for i in rng.sample(range(n), defects):
        samples[i]["media"] = b.locators[i][0] = f"$broken{i}"
        b.locators[i][1] = "LOC_SYNTAX"
        b.findings.append(["LOC_SYNTAX", f"samples/{i}/media"])

    defs = {
        "DetDom": _domain_def(dom),
        "DetObject": {
            "$def": "struct",
            "$params": ["cdom"],
            "$fields": {
                "bbox": "BBox",
                "category": "Label[dom=$cdom]",
                "iscrowd": "Bool",
                "area": "Num",
                "instance_id": "InstanceID",
            },
            "$optional": ["instance_id"],
        },
        "DetSample": {
            "$def": "struct",
            "$params": ["cdom"],
            "$fields": {
                "media": "Image",
                "shape": "ImageShape",
                "objects": "List[etype=DetObject[cdom=$cdom]]",
            },
        },
    }
    return {"format": "json", "defs": defs, "imports": {}, "sample_type": "DetSample[cdom=DetDom]", "samples": samples}


def _inject(code: str, obj: dict, base: str, dom: FlatDomain, rng: random.Random) -> str:
    if code == "TYPE_MISMATCH":
        obj["iscrowd"] = 1
        return f"{base}/iscrowd"
    if code == "ARITY":
        obj["bbox"] = obj["bbox"][:3]
        return f"{base}/bbox"
    if code == "RANGE":
        obj["bbox"][2] = -obj["bbox"][2]
        return f"{base}/bbox"
    if code == "FIELD_MISSING":
        del obj["area"]
        return f"{base}/area"
    if code == "FIELD_UNKNOWN":
        obj["score"] = 0.5
        return f"{base}/score"
    if code == "CLASS_NOT_FOUND":
        obj["category"] = f"zz_missing_{rng.randrange(10**6)}"
        return f"{base}/category"
    assert code == "CLASS_INDEX_RANGE"
    obj["category"] = len(dom.names) + 1 + rng.randrange(100)
    return f"{base}/category"


def _yaml_inline(b: _Recorder, size: dict) -> dict:
    rng = b.rng
    dom = FlatDomain("Dom20", class_names(rng, 20, "k"))
    kp = FlatDomain("KpDom", class_names(rng, KEYPOINTS, "p"))
    n = size["samples"]
    counts = _spread(rng, OBJECTS_PER_SAMPLE[:5], n)
    syntaxes = _spread(rng, ("name", "name", "name", "index"), sum(counts))
    kinds = _spread(rng, _LOCATOR_MIX, n)
    samples = []
    for i in range(n):
        loc = _locator(kinds[i], i)
        b.locators.append([loc, kinds[i]])
        image = {"$loc": loc, "$descr": {"camera": f"cam-{i % 4}"}} if i % 2 else loc
        objects = []
        for j in range(counts[i]):
            raw, entry = _label_entry(dom, rng.randrange(20), syntaxes.pop(), f"samples/{i}/objects/{j}/category")
            b.labels.append(entry)
            cx, cy = b.num(50, 550), b.num(50, 350)
            obj = {
                "category": raw,
                "box": b.bbox(),
                "rbox": [cx, cy, b.num(5, 80), b.num(5, 80), b.num(-179, 179)],
                "poly": [[b.num(0, 600), b.num(0, 400)] for _ in range(rng.randrange(3, 7))],
            }
            if j % 3 == 0:
                points = []
                for _ in range(KEYPOINTS):
                    points += [b.num(0, 600), b.num(0, 400), rng.randrange(3)]
                obj["person"] = {"keypoints": points, "center": [cx, cy]}
            objects.append(obj)
        meta = {"source": f"clip-{rng.randrange(100)}", "frame": rng.randrange(10**4), "clip": [1.5, b.num(2, 9)]}
        if i % 5 == 0:
            meta["note"] = "re-annotated"
        sample = {
            "image": image,
            "shape": [640, 480],
            "captured": f"20{rng.randrange(10, 24)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            "meta": meta,
            "objects": objects,
        }
        if i % 4 == 0:
            sample["note"] = f"batch {i // 4}"
        samples.append(sample)

    # definitions spread over a chain of $import-ed files: each imports the next
    imports = {
        "ytypes-1": {"YObject": {"$def": "struct", "$params": ["cdom"], "$fields": {
            "category": "Label[dom=$cdom]", "box": "BBox",
            "rbox": 'RotatedBBox[mode="xywht", measure="degree"]', "poly": "Polygon", "person": "YPerson"},
            "$optional": ["person"]}},
        "ytypes-2": {"YPerson": {"$def": "struct", "$fields": {"keypoints": "Keypoint[dom=KpDom]", "center": "Coord"}}},
        "ytypes-3": {"KpDom": _domain_def(kp) | {"skeleton": [[k, k + 1] for k in range(1, KEYPOINTS)]},
                     "YMeta": {"$def": "struct", "$fields": {"source": "Str", "frame": "Int", "clip": "Interval",
                                                              "note": "Str"}, "$optional": ["note"]}},
    }
    defs = {
        "Dom20": _domain_def(dom),
        "YSample": {
            "$def": "struct",
            "$params": ["cdom"],
            "$fields": {
                "image": "Image",
                "shape": "ImageShape",
                "captured": 'Date[fmt="%Y-%m-%d"]',
                "meta": "YMeta",
                "objects": "List[etype=YObject[cdom=$cdom]]",
                "note": "Str",
            },
            "$optional": ["note"],
        },
    }
    return {"format": "yaml", "defs": defs, "imports": imports, "sample_type": "YSample[cdom=Dom20]",
            "samples": samples}


# -- files and manifest -------------------------------------------------------------


def _description(spec: dict, samples: list, samples_file: str | None, first_import: str | None) -> dict:
    doc: dict = {"$dsdl-version": VERSION}
    if first_import:
        doc["$import"] = [first_import]
    doc["meta"] = {"name": "perfbench", "creator": "perfbench generator"}
    doc["defs"] = spec["defs"]
    data: dict = {"sample-type": spec["sample_type"]}
    if samples_file:
        data["sample-path"] = samples_file
    else:
        data["samples"] = samples
    doc["data"] = data
    return doc


def _write(out: Path, name: str, doc: dict, fmt: str) -> None:
    (out / name).write_text(dump_yaml(doc) if fmt == "yaml" else dump_json(doc), encoding="utf-8")


def _verdict(findings: list[list[str]], sample_count: int) -> dict:
    counts: dict[str, int] = {}
    for code, _ in findings:
        counts[code] = counts.get(code, 0) + 1
    errors = sum(1 for code, _ in findings if code in ERROR_CODES)
    return {
        "exit_code": 1 if errors else 0,
        "sample_count": sample_count,
        "errors": errors,
        "warnings": len(findings) - errors,
        "counts_by_code": dict(sorted(counts.items())),
        "findings": sorted(findings),
    }


def generate(workload: str, seed: int, out_dir: str | Path, size: str = "full") -> dict:
    """Write ``workload`` for ``seed`` into ``out_dir``; return its manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    b = _Recorder(workload, seed)
    params = SIZES[workload][size]
    if workload == "labels-scale":
        spec = _labels_scale(b, params)
    elif workload == "yaml-inline":
        spec = _yaml_inline(b, params)
    elif workload in ("json-detect", "json-faulty"):
        spec = _detection(b, params, params.get("defects", 0))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    fmt = spec["format"]
    names = list(spec["imports"])
    for k, name in enumerate(names):
        doc = {"$dsdl-version": VERSION}
        if k + 1 < len(names):
            doc["$import"] = [names[k + 1]]
        _write(out, f"{name}.{fmt}", doc | spec["imports"][name], fmt)
    first_import = names[0] if names else None

    samples = spec["samples"]
    quarter = len(samples) // 4
    files = {}
    for tag, subset in (("full", samples), ("quarter", samples[:quarter])):
        desc_name = f"dataset-{tag}.{fmt}"
        samples_file = None
        if fmt == "json":
            samples_file = f"samples-{tag}.json"
            _write(out, samples_file, {"samples": subset}, "json")
        _write(out, desc_name, _description(spec, subset, samples_file, first_import), fmt)
        files[tag] = desc_name

    label_counts: dict[str, int] = {}
    for entry in b.labels:
        if isinstance(entry["expect"], list):
            key = f"{entry['expect'][0]}::{entry['expect'][2]}"
            label_counts[key] = label_counts.get(key, 0) + 1
    in_quarter = [f for f in b.findings if int(f[1].split("/")[1]) < quarter]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "format": fmt,
        "description": files["full"],
        "quarter_description": files["quarter"],
        "imports": [f"{name}.{fmt}" for name in names],
        "verdict": _verdict(b.findings, len(samples)),
        "quarter_verdict": _verdict(in_quarter, quarter),
        "labels": b.labels,
        "label_counts": dict(sorted(label_counts.items())),
        "locators": b.locators,
    }
