"""CSV import/export for database instances.

Real deployments load the accident data from CSV dumps; this module
provides the same path for our instances, including round-tripping an
access schema as a sidecar JSON file so a saved database can be reopened
with its indexes rebuilt.

This is the CLI's front door, so failures are diagnosed, not leaked:
missing directories and files, malformed ``schema.json`` and CSV rows
that disagree with the schema all raise :class:`~repro.errors.
StorageError`/:class:`~repro.errors.SchemaError` with the file, line
and fix spelled out.
"""

from __future__ import annotations

import csv
import json
import pathlib

from ..errors import SchemaError, StorageError
from ..schema.access import (AccessConstraint, AccessSchema,
                             ConstantCardinality, LogCardinality,
                             PowerCardinality)
from ..schema.relation import RelationSchema, Schema
from .database import Database


def save_relation_csv(db: Database, relation_name: str, path) -> int:
    """Write one relation to CSV (header = attribute names); returns the
    row count."""
    relation = db.schema.relation(relation_name)
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.attributes)
        count = 0
        for row in db.relation_tuples(relation_name):
            writer.writerow(row)
            count += 1
    return count


def load_relation_csv(db: Database, relation_name: str, path) -> int:
    """Load one relation from CSV; header must match the schema.

    Values are read as strings except that integer- and float-shaped
    fields are narrowed (CSV is untyped; cardinality constraints only
    need equality, so narrowing is cosmetic but keeps round-trips
    stable for numeric columns).

    Raises :class:`SchemaError` for an unknown relation or mismatched
    header, :class:`StorageError` for a missing file or a row whose
    shape disagrees with the schema (with the offending line number).
    The whole file is checked before anything loads, so a bad row loads
    nothing of the relation; the rows then go in as one
    :meth:`Database.insert_many`.  Returns the number of data rows read.
    """
    if relation_name not in db.schema.relation_names():
        raise SchemaError(
            f"unknown relation {relation_name!r}; the schema defines "
            f"{sorted(db.schema.relation_names())}")
    relation = db.schema.relation(relation_name)
    path = pathlib.Path(path)
    if not path.is_file():
        raise StorageError(
            f"missing CSV file for relation {relation_name!r}: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if not header:
            raise StorageError(
                f"{path} is empty; expected the header row "
                f"{','.join(relation.attributes)}")
        if header != relation.attributes:
            raise SchemaError(
                f"{path}: CSV header {header} does not match {relation}")
        rows = []
        for raw in reader:
            if not raw:
                continue  # blank line
            if len(raw) != relation.arity:
                raise StorageError(
                    f"{path}, line {reader.line_num}: row has "
                    f"{len(raw)} fields but {relation} expects "
                    f"{relation.arity}: {raw!r}")
            rows.append(tuple(map(_narrow, raw)))
    db.insert_many(relation_name, rows)
    return len(rows)


def _narrow(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def save_database(db: Database, directory) -> None:
    """Write every relation as ``<name>.csv`` plus ``schema.json``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in db.schema.relation_names():
        save_relation_csv(db, name, directory / f"{name}.csv")
    spec = {
        "relations": {r.name: list(r.attributes) for r in db.schema},
        "constraints": [
            _constraint_to_json(c) for c in (db.access_schema or [])
        ],
    }
    (directory / "schema.json").write_text(json.dumps(spec, indent=2))


def load_database(directory, backend_factory=None) -> Database:
    """Reopen a directory written by :func:`save_database`.

    ``backend_factory`` (schema -> StorageBackend) picks the storage
    engine the rows are loaded onto — loading directly onto the target
    engine, rather than re-homing afterwards, builds rows and indexes
    exactly once.

    Every failure mode of a hand-edited directory is reported with an
    actionable message: missing directory or ``schema.json``, invalid
    JSON, a malformed ``relations`` map, unknown constraint fields, a
    missing per-relation CSV, or rows that do not fit the schema.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise StorageError(
            f"no such database directory: {directory} (expected a "
            "directory written by repro.storage.io.save_database)")
    schema_path = directory / "schema.json"
    if not schema_path.is_file():
        raise SchemaError(
            f"{directory} has no schema.json; a database directory "
            "needs one mapping relation names to attribute lists "
            "(plus optional access constraints)")
    try:
        spec = json.loads(schema_path.read_text())
    except json.JSONDecodeError as error:
        raise SchemaError(
            f"{schema_path} is not valid JSON: {error}") from error
    relations = spec.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise SchemaError(
            f"{schema_path} must contain a non-empty \"relations\" "
            "object mapping relation names to attribute lists")
    schema = Schema(RelationSchema(name, attrs)
                    for name, attrs in relations.items())
    constraints = []
    for index, raw in enumerate(spec.get("constraints", ())):
        try:
            constraints.append(_constraint_from_json(raw))
        except (KeyError, TypeError) as error:
            raise SchemaError(
                f"{schema_path}: constraint #{index} is malformed "
                f"({error!r}); expected keys relation/x/y/cardinality"
            ) from error
    access = AccessSchema(schema, constraints)
    db = Database(schema, access if len(access) else None,
                  backend=backend_factory(schema) if backend_factory
                  else None)
    for name in schema.relation_names():
        load_relation_csv(db, name, directory / f"{name}.csv")
    return db


def _constraint_to_json(constraint: AccessConstraint) -> dict:
    cardinality = constraint.cardinality
    if isinstance(cardinality, ConstantCardinality):
        card = {"kind": "constant", "value": cardinality.value}
    elif isinstance(cardinality, LogCardinality):
        card = {"kind": "log", "scale": cardinality.scale}
    elif isinstance(cardinality, PowerCardinality):
        card = {"kind": "power", "exponent": cardinality.exponent,
                "scale": cardinality.scale}
    else:
        raise SchemaError(f"cannot serialize cardinality {cardinality}")
    return {"relation": constraint.relation_name,
            "x": list(constraint.x), "y": list(constraint.y),
            "cardinality": card}


def _constraint_from_json(spec: dict) -> AccessConstraint:
    card = spec["cardinality"]
    if card["kind"] == "constant":
        cardinality = ConstantCardinality(card["value"])
    elif card["kind"] == "log":
        cardinality = LogCardinality(card["scale"])
    elif card["kind"] == "power":
        cardinality = PowerCardinality(card["exponent"], card["scale"])
    else:
        raise SchemaError(f"unknown cardinality kind {card['kind']!r}")
    return AccessConstraint(spec["relation"], spec["x"], spec["y"],
                            cardinality)
