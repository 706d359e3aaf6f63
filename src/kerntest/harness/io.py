"""CSV ingestion with strict validation.

Files are numeric rectangular CSVs, rows = samples, columns = dimensions.
NaN/Inf values, non-numeric cells, ragged rows and empty files are
rejected with a row/column diagnostic.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from ..errors import DataError, reported_as
from ..kernels import ScoreField, standard_gaussian_score, student_t_score
from ..statistics import ModelSampleData, PairedData, TwoSampleData

LAYOUTS = ("two_csv", "paired_csv", "model_csv_with_scores")


def _parse_cells(path: Path, r: int, record: list[str]) -> list[float]:
    """Cell-by-cell parse of one row, raising the diagnostic for its first bad cell."""
    parsed = []
    for c, cell in enumerate(record, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite value at row {r}, column {c}: {cell.strip()}")
        parsed.append(value)
    return parsed


# float() rejects a cell holding one of the ASCII separators; np.loadtxt
# strips them as whitespace
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_agrees(path: Path) -> bool:
    """Whether a whole-file ``np.loadtxt`` parse can stand for the cell-by-cell
    pass: the file holds none of the separators, and more than line breaks
    (else loadtxt warns that it found no data)."""
    raw = path.read_bytes()
    return bool(raw.strip(b"\r\n")) and not any(sep in raw for sep in _SEPARATORS)


def _read_csv_cells(path: Path) -> np.ndarray:
    """The cell-by-cell pass, which gives every row/column diagnostic."""
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        for r, record in enumerate(csv.reader(fh), start=1):
            if not "".join(record).strip():  # no cells, or only blank ones
                continue
            try:
                parsed = list(map(float, record))
            except ValueError:
                parsed = None
            # a non-finite sum flags NaN/Inf cells (or an overflowing sum of
            # finite ones, which the cell-by-cell pass then accepts)
            if parsed is None or not math.isfinite(sum(parsed)):
                parsed = _parse_cells(path, r, record)
            if rows and len(parsed) != len(rows[0]):
                raise DataError(
                    f"{path}: ragged row {r}: {len(parsed)} columns, expected {len(rows[0])}"
                )
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty file")
    return np.asarray(rows)


def read_csv_matrix(path) -> np.ndarray:
    """Parse the whole file at once; a file that parse rejects, or that holds
    NaN/Inf, goes through the cell-by-cell pass for its diagnostic.  Both
    read each cell to the same float."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    if _loadtxt_agrees(path):
        try:
            # no encoding given: the file is decoded as the cell-by-cell pass decodes it
            values = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if values.size and np.isfinite(values).all():
                return values
    return _read_csv_cells(path)


def load_two_sample(x_path, y_path) -> TwoSampleData:
    return TwoSampleData(read_csv_matrix(x_path), read_csv_matrix(y_path))


def load_paired(path, split: int) -> PairedData:
    return PairedData(read_csv_matrix(path), split)


def parse_score_spec(spec: str, dim: int) -> ScoreField | str:
    """Parse --score values: 'gaussian', 'student-t:NU', or 'file:PATH'."""
    if spec == "gaussian":
        return standard_gaussian_score()
    if spec.startswith("student-t:"):
        try:
            df = float(spec.split(":", 1)[1])
        except ValueError:
            raise DataError(f"invalid student-t degrees of freedom in {spec!r}") from None
        return student_t_score(df, dim)
    if spec.startswith("file:"):
        return spec[len("file:") :]
    raise DataError(f"unknown score specification {spec!r}")


def load_model_sample(sample_path, score_spec: str) -> ModelSampleData:
    x = read_csv_matrix(sample_path)
    resolved = parse_score_spec(score_spec, x.shape[1])
    if isinstance(resolved, ScoreField):
        return ModelSampleData.from_score_field(x, resolved)
    scores = read_csv_matrix(resolved)
    if scores.shape != x.shape:
        raise DataError(
            f"score file shape {scores.shape} does not match sample shape {x.shape}"
        )
    return ModelSampleData(x, scores)


def load_dataset(layout: str, **paths):
    """Load a dataset by layout name; see LAYOUTS for the choices.  What the
    library rejects with a ValueError (a bad split or score) is a DataError."""
    with reported_as(DataError):
        if layout == "two_csv":
            return load_two_sample(paths["x"], paths["y"])
        if layout == "paired_csv":
            return load_paired(paths["paired"], int(paths["split"]))
        if layout == "model_csv_with_scores":
            return load_model_sample(paths["sample"], paths["score"])
    raise DataError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
