"""Regression dataset loading and preprocessing for the robust arm.

A dataset is an immutable (features, targets) pair with a provenance
tag.  ``load_csv`` reads a CSV in one pass and holds only the kept cells
of the first ``max_rows`` rows, as floats, so its memory does not grow
with the file's length.  Preprocessing median-fills missing cells,
winsorizes each column at the 1st/99th percentiles as order statistics
(so it is idempotent apart from the noise step), z-scores it, and
perturbs the target once with seeded unit Gaussian noise, which a flag
on the dataset guards.  The median fill has the bits of ``np.median``,
taken by its own partition and mean in ``_median`` because
``np.median`` loads numpy.ma.  A seeded synthetic generator stands in
when no file is available, so nothing here touches the network.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .problems import _read
from .shuffling import _nonnegative_int

__all__ = [
    "RegressionDataset",
    "DataFormatError",
    "load_csv",
    "synthesize",
    "preprocess",
    "dataset_from_config",
]


@dataclass(frozen=True)
class RegressionDataset:
    """Immutable feature matrix and target vector.

    ``noise_applied`` records whether the target noise step already
    ran.  ``planted_weights`` is the generating weight vector for
    synthetic data, None otherwise.
    """

    features: np.ndarray
    targets: np.ndarray
    provenance: str
    noise_applied: bool = False
    feature_names: tuple[str, ...] | None = None
    planted_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2 or self.targets.shape != (self.features.shape[0],):
            raise ValueError("features must be (rows, dim) with matching targets")
        if self.feature_names is not None and len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length must match the feature count")

    @property
    def row_count(self) -> int:
        return self.features.shape[0]


class DataFormatError(ValueError):
    """A CSV file, or a dataset column, that cannot become a dataset."""


def _parses(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _rows(fh):
    """The count of leading '#' lines of ``fh`` and a csv reader over the rest: a row
    ends on line ``skip + reader.line_num``, counting comments and quoted line breaks."""
    skip, first = 0, fh.readline()
    while first.startswith("#"):
        skip, first = skip + 1, fh.readline()
    return skip, csv.reader(chain((first,) if first else (), fh))


def load_csv(path, *, target_column: str = "target",
             drop_columns: tuple[str, ...] = ("country", "status"), max_rows: int = 2000,
             noise_seed: int = 0, normalize: bool = True) -> RegressionDataset:
    """Load and preprocess a regression CSV in one pass.

    Comma-separated, UTF-8 with or without a byte-order mark, header row
    required, empty cells missing, leading '#' lines comments.  Columns in
    ``drop_columns`` are removed (categorical features); the rest must be
    numeric.  Every row's cell count is checked; the first ``max_rows`` rows
    are kept, then preprocessed by :func:`preprocess`.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if isinstance(drop_columns, str):
        raise ValueError(f"drop_columns must be column names, not the string {drop_columns!r}")
    # a missing column or unparsable cell waits for the pass: a ragged row anywhere comes first
    values, rows = array("d"), 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            skip, reader = _rows(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: no header row")
            header = [h.strip() for h in header]
            if header and all(_parses(c) for c in header if c != ""):
                raise DataFormatError(f"{path}: first row looks numeric; header row required")
            missing = [c for c in (target_column, *drop_columns) if c not in header]
            error = DataFormatError(f"{path}: missing column {missing[0]!r}") if missing else None
            keep = [i for i, h in enumerate(header) if h not in drop_columns and h != target_column]
            cols, limit = ((), 0) if missing else ((*keep, header.index(target_column)), max_rows)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataFormatError(f"{path}: line {skip + reader.line_num} has "
                                          f"{len(row)} cells, header has {len(header)}")
                if rows < limit:
                    try:  # an empty cell is missing
                        values.extend([float(row[i].strip() or "nan") for i in cols])
                    except ValueError:
                        i = next(i for i in cols if not _parses(row[i].strip() or "nan"))
                        error, limit = DataFormatError(
                            f"{path}: line {skip + reader.line_num}, column {header[i]!r}: "
                            f"cannot parse {row[i].strip()!r} as a number"), 0
                rows += 1
    except UnicodeDecodeError:  # its position is within a chunk: find the byte in the file
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise DataFormatError(f"{path}: byte {data[err.start]:#04x} at offset {err.start} "
                                  f"is not UTF-8") from None
        raise
    if not rows or error is not None:
        raise error if rows else DataFormatError(f"{path}: no data rows")
    values = np.frombuffer(values).reshape(min(rows, max_rows), len(cols))
    features, targets = values[:, :-1], values[:, -1]
    infinite = np.argwhere(np.isinf(features))  # row-major, so the first cell in row order
    if infinite.size:  # read the file again for the cell's line and text
        r, j = infinite[0]
        with open(path, newline="", encoding="utf-8-sig") as fh:
            skip, reader = _rows(fh)
            row = next(islice((row for row in islice(reader, 1, None) if row), r, None))
        raise DataFormatError(f"{path}: line {skip + reader.line_num}, column "
                              f"{header[keep[j]]!r}: {row[keep[j]].strip()!r} is not finite")
    if np.isnan(targets).all():
        raise DataFormatError(f"{path}: column {target_column!r} has no values")
    if not np.isfinite(targets[~np.isnan(targets)]).all():
        raise DataFormatError(f"{path}: non-finite target value")
    raw = RegressionDataset(features, targets, provenance=str(path),
                            feature_names=tuple(header[i] for i in keep))
    try:
        return preprocess(raw, noise_seed=noise_seed, normalize=normalize)
    except DataFormatError as err:  # an all-empty feature column
        raise DataFormatError(f"{path}: {err}") from None


def _median(x: np.ndarray) -> float:
    """The bits of ``np.median(x)`` for a 1-D array without NaN: its partition
    and mean, called directly, as np.median's NaN check loads numpy.ma."""
    h, odd = divmod(len(x), 2)
    return np.partition(x, [h, -1] if odd else [h - 1, h, -1])[h - 1 + odd:h + 1].mean()


_NOISE_STREAM = (0x1E,)


def preprocess(dataset: RegressionDataset, *, noise_seed: int = 0,
               normalize: bool = True) -> RegressionDataset:
    """Median-fill, winsorize at the 1st/99th percentiles, normalize, and
    noise the target once.

    Missing target values are median-filled as well.  Zero-variance
    columns get a guarded divisor of 1 and normalize to all zero.
    Running preprocess again changes features by at most float noise
    and never re-applies the target noise.
    """
    noise_seed = _nonnegative_int(noise_seed, "noise_seed")
    features, targets = dataset.features.copy(), dataset.targets.copy()
    for j in range(features.shape[1]):
        col = features[:, j]
        missing = np.isnan(col)
        if missing.all():
            name = dataset.feature_names[j] if dataset.feature_names is not None else f"f{j}"
            raise DataFormatError(f"column {name!r} has no values")
        if missing.any():
            col[missing] = _median(col[~missing])
    # order-statistic bounds, so a second pass moves nothing; clipped a
    # column at a time, as a whole-block clip can flip a zero's sign at a bound
    lo = np.percentile(features, 1.0, axis=0, method="lower")
    hi = np.percentile(features, 99.0, axis=0, method="higher")
    for j in range(features.shape[1]):
        np.clip(features[:, j], lo[j], hi[j], out=features[:, j])
    if np.isnan(targets).any():
        targets[np.isnan(targets)] = _median(targets[~np.isnan(targets)])
    if normalize:
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        features -= features.mean(axis=0)
        features /= std
    if not dataset.noise_applied:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=noise_seed, spawn_key=_NOISE_STREAM))
        targets += rng.standard_normal(targets.shape)
    return replace(dataset, features=features, targets=targets, noise_applied=True)


_SYNTH_STREAM = (0x1D,)


def synthesize(seed: int = 0, rows: int = 2000, dim: int = 34) -> RegressionDataset:
    """Seeded linear-model dataset: unit Gaussian features and noise.

    Targets are features @ planted_weights + noise; the planted vector
    is kept on the dataset so fits can be scored against it.  The noise
    flag is set, so preprocessing will not perturb the targets again.
    """
    if rows < 1 or dim < 1:
        raise ValueError(f"need rows >= 1 and dim >= 1, got ({rows}, {dim})")
    seed = _nonnegative_int(seed, "synthetic dataset seed")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=_SYNTH_STREAM))
    features = rng.standard_normal((rows, dim))
    weights = rng.standard_normal(dim)
    targets = features @ weights + rng.standard_normal(rows)
    return RegressionDataset(features, targets, provenance=f"synthetic seed {seed}",
                             noise_applied=True, planted_weights=weights)


# the kind of each key of the dataset config and of its two sub-configs
_DATASET_KINDS = {"synthetic": dict, "csv": dict, "normalize": bool}
_SYNTHETIC_KINDS = {"seed": int, "rows": int, "dim": int}
_CSV_KINDS = {"path": str, "target_column": str, "drop_columns": (tuple, str), "max_rows": int,
              "noise_seed": int}


def dataset_from_config(cfg: dict) -> RegressionDataset:
    """Build a dataset from a config object.

    Exactly one of "synthetic" ({seed, rows, dim}) or "csv" ({path,
    target_column, drop_columns, max_rows, noise_seed}; path required)
    must be present; "normalize" applies to both.  Each key has the kind
    in the tables above (a number field takes a number or a numeric
    string, any other field only its own JSON type).  A key left out takes
    the default of :func:`synthesize`, :func:`load_csv` or :func:`preprocess`.
    """
    cfg = _read(cfg, _DATASET_KINDS, "dataset config", "dataset ")
    normalize = {"normalize": cfg["normalize"]} if "normalize" in cfg else {}
    if ("synthetic" in cfg) == ("csv" in cfg):
        raise ValueError("dataset config needs exactly one of 'synthetic' or 'csv'")
    if "synthetic" in cfg:
        sub = _read(cfg["synthetic"], _SYNTHETIC_KINDS, "synthetic dataset", "synthetic dataset ")
        return preprocess(synthesize(**sub), **normalize)
    sub = _read(cfg["csv"], _CSV_KINDS, "csv dataset", "csv dataset ", required=("path",))
    return load_csv(**sub, **normalize)
