"""Schema of the ``BENCH_<rev>.json`` artifact, with a validator.

The schema is expressed as a (subset of) JSON Schema and enforced by a
small built-in validator — the container has no ``jsonschema`` package,
and the subset we need (``type`` / ``required`` / ``properties`` /
``items`` / ``enum`` / nullable unions) is a few dozen lines.  Bump
``SCHEMA_VERSION`` on any breaking change to the artifact layout; the
validator pins the version it understands.
"""

from __future__ import annotations

from typing import Any

SCHEMA_VERSION = 1

_CASE_SCHEMA = {
    "type": "object",
    "required": ["name", "summary", "wall_s", "wall_s_mean",
                 "repeats", "warmup", "peak_rss_mb", "throughput",
                 "metrics", "baseline_wall_s", "ratio", "status"],
    "properties": {
        "name": {"type": "string"},
        "summary": {"type": "string"},
        "tags": {"type": "array", "items": {"type": "string"}},
        "wall_s": {"type": "number"},
        "wall_s_mean": {"type": "number"},
        "wall_s_all": {"type": "array", "items": {"type": "number"}},
        "repeats": {"type": "integer"},
        "warmup": {"type": "integer"},
        "peak_rss_mb": {"type": "number"},
        "throughput": {
            "type": ["object", "null"],
            "properties": {
                "samples_per_s": {"type": ["number", "null"]},
                "patients_per_s": {"type": ["number", "null"]},
            },
        },
        "metrics": {"type": "object"},
        "baseline_wall_s": {"type": ["number", "null"]},
        "ratio": {"type": ["number", "null"]},
        "status": {"type": "string",
                   "enum": ["pass", "regression", "no-baseline"]},
    },
}

#: The BENCH artifact schema (subset of JSON Schema draft semantics).
BENCH_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "revision", "quick", "tolerance",
                 "environment", "cases"],
    "properties": {
        "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "revision": {"type": "string"},
        "quick": {"type": "boolean"},
        "tolerance": {"type": "number"},
        "environment": {
            "type": "object",
            "required": ["python", "numpy", "platform"],
            "properties": {
                "python": {"type": "string"},
                "numpy": {"type": "string"},
                "platform": {"type": "string"},
            },
        },
        "history": {"type": "object"},
        "cases": {"type": "array", "items": _CASE_SCHEMA},
        # Optional (--obs runs only): the Observability snapshot bundle
        # — additive, so SCHEMA_VERSION stays put.
        "observability": {
            "type": "object",
            "required": ["metrics", "trace", "flight"],
            "properties": {
                "metrics": {"type": "object"},
                "trace": {"type": "object"},
                "flight": {"type": "object"},
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


class BenchSchemaError(ValueError):
    """A BENCH payload does not conform to :data:`BENCH_SCHEMA`."""


def _check_type(value: Any, expected: str | list, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        python_type = _TYPES[name]
        if isinstance(value, python_type):
            # bool is an int subclass; don't let it satisfy number/int.
            if name in ("number", "integer") and isinstance(value, bool):
                continue
            return
    raise BenchSchemaError(
        f"{path}: expected {' or '.join(names)}, "
        f"got {type(value).__name__}")


def _validate(value: Any, schema: dict, path: str) -> None:
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if "enum" in schema and value not in schema["enum"]:
        raise BenchSchemaError(
            f"{path}: {value!r} not in allowed values {schema['enum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise BenchSchemaError(f"{path}: missing key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]")


def validate_report(payload: dict) -> None:
    """Check one BENCH payload against :data:`BENCH_SCHEMA`.

    Raises:
        BenchSchemaError: On the first violation found (with a JSON
            path pointing at it).
    """
    _validate(payload, BENCH_SCHEMA, "$")
