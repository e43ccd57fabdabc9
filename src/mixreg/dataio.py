"""CSV and JSON persistence.

The data format is a UTF-8 CSV, optionally starting with a byte-order
mark, with header ``a_1,...,a_d,b`` plus an optional trailing ``label``
column.  Labels are 1-based on disk and 0-based in memory.  Floats are
written with ``repr`` so a write/load round trip is bit-identical.  Written
files are UTF-8 (in fact ASCII) and their lines end in LF; CRLF files load
the same.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .model import Dataset, MixtureModel

__all__ = [
    "load_csv",
    "save_csv",
    "load_betas",
    "save_betas",
    "write_json",
    "preprocess_center_scale",
]


def _parse_float(text: str, path, line: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataValidationError(
            f"{path}:{line}: column {col}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataValidationError(f"{path}:{line}: column {col}: non-finite value")
    return value


def _read_text(path: Path) -> str:
    """The file's text, decoded as UTF-8 with an optional byte-order mark."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(path) -> Dataset:
    """Load a dataset, validating the header, widths, and every entry.

    Errors carry the 1-based line number of the offending row.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such file: {path}")
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_label = header[-1] == "label"
        feature_names = header[:-2] if has_label else header[:-1]
        d = len(feature_names)
        expected = [f"a_{i + 1}" for i in range(d)] + ["b"] + (
            ["label"] if has_label else []
        )
        if d < 1 or header != expected:
            raise DataValidationError(
                f"{path}: header must be a_1,...,a_d,b[,label]; got {','.join(header)}"
            )
        feats, resp, labels = [], [], []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataValidationError(
                    f"{path}:{line}: expected {len(header)} fields, got {len(row)}"
                )
            a = [_parse_float(row[i], path, line, header[i]) for i in range(d)]
            if not any(v != 0.0 for v in a):
                raise DataValidationError(
                    f"{path}:{line}: measurement vector is zero"
                )
            feats.append(a)
            resp.append(_parse_float(row[d], path, line, "b"))
            if has_label:
                try:
                    lab = int(row[d + 1])
                except ValueError:
                    raise DataValidationError(
                        f"{path}:{line}: label must be an integer"
                    ) from None
                if lab < 1:
                    raise DataValidationError(f"{path}:{line}: labels are 1-based")
                labels.append(lab - 1)
        if not feats:
            raise DataValidationError(f"{path}: no data rows")
        if has_label:
            missing = set(range(max(labels) + 1)).difference(labels)
            if missing:  # named as the file numbers it, not by the 0-based class
                raise DataValidationError(
                    f"{path}: no row has label {min(missing) + 1}; labels must "
                    f"use every value from 1 to {max(labels) + 1}"
                )
    return Dataset(
        np.array(feats), np.array(resp), np.array(labels) if has_label else None
    )


def _write_table(path, names, values, labels=None) -> None:
    """Write ``values`` (m x len(names)) under ``names``, then the optional
    ``label`` column, 1-based, one LF-terminated line per row."""
    rows = [[repr(v) for v in row] for row in np.asarray(values, dtype=float).tolist()]
    if labels is not None:
        names = [*names, "label"]
        rows = [[*row, str(int(lab) + 1)] for row, lab in zip(rows, labels)]
    Path(path).write_text(
        "".join(",".join(row) + "\n" for row in [names, *rows]), encoding="utf-8"
    )


def save_csv(dataset: Dataset, path) -> None:
    names = [f"a_{i + 1}" for i in range(dataset.d)] + ["b"]
    values = np.column_stack([dataset.features, dataset.responses])
    _write_table(path, names, values, dataset.labels)


def save_betas(model: MixtureModel, path) -> None:
    write_json({"betas": model.betas.tolist(), "sizes": model.sizes.tolist()}, path)


def load_betas(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such file: {path}")
    text = _read_text(path)
    try:  # a JSONDecodeError is a ValueError
        betas = np.array(json.loads(text)["betas"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: cannot read betas: {exc}") from None
    if betas.ndim != 2:
        raise DataValidationError(f"{path}: betas must be a k x d matrix")
    return betas


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def preprocess_center_scale(dataset: Dataset, alpha: float, column: int) -> Dataset:
    """Replace one feature column by ``alpha * (value - column mean)``.

    Other columns and the responses are left untouched.  ``column`` is a
    0-based feature index.
    """
    if not 0 <= column < dataset.d:
        raise DataValidationError(f"column {column} out of range for d={dataset.d}")
    feats = dataset.features.copy()
    mu = feats[:, column].mean()
    feats[:, column] = alpha * (feats[:, column] - mu)
    return Dataset(feats, dataset.responses, dataset.labels)
