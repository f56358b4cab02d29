"""Regression dataset loading and preprocessing for the robust arm.

A dataset is an immutable (features, targets) pair with a provenance
tag.  CSV loading drops named categorical columns, truncates to a row
budget, median-fills missing cells, winsorizes each column, z-scores
it, and perturbs the target with seeded unit Gaussian noise.  The
winsorization bounds are the 1st/99th percentiles as order statistics
(interpolation 'lower'/'higher'), which makes the whole preprocessing
pipeline idempotent apart from the noise step; a flag on the dataset
guards the noise so it is applied exactly once.  The median fill has
the bits of ``np.median``, taken by its own partition and mean in
``_median`` because ``np.median`` loads numpy.ma, which nothing else in
a ``run`` or ``load_csv`` process needs.  A seeded synthetic generator
stands in when no file is available, so nothing here touches the
network.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .problems import _read
from .shuffling import _nonnegative_int

__all__ = [
    "RegressionDataset",
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

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def names(self) -> tuple[str, ...]:
        if self.feature_names is not None:
            return self.feature_names
        return tuple(f"f{i}" for i in range(self.dim))


class DataFormatError(ValueError):
    pass


def _parses(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _parse_csv(path) -> tuple[list[str], list[int], list[list[str]]]:
    """Header, line number of each non-blank data row, and its raw cells.

    A row's line number is the file's physical line on which the row
    ends, so comment lines, blank rows and quoted line breaks count.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh]
    skip = 0
    while skip < len(lines) and lines[skip].startswith("#"):
        skip += 1
    reader = csv.reader(lines[skip:])
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: no header row")
    header = [h.strip() for h in header]
    if header and all(_parses(c) for c in header if c != ""):
        raise DataFormatError(f"{path}: first row looks numeric; header row required")
    line_nos, data = [], []
    for row in reader:
        if not row:
            continue
        line = skip + reader.line_num
        if len(row) != len(header):
            raise DataFormatError(f"{path}: line {line} has {len(row)} cells, header has {len(header)}")
        line_nos.append(line)
        data.append(row)
    if not data:
        raise DataFormatError(f"{path}: no data rows")
    return header, line_nos, data


def load_csv(path, *, target_column: str = "target",
             drop_columns: tuple[str, ...] = ("country", "status"),
             max_rows: int = 2000, noise_seed: int = 0,
             normalize: bool = True) -> RegressionDataset:
    """Load and preprocess a regression CSV.

    Comma-separated, UTF-8, header row required, empty cells are
    missing values, leading '#' lines are comments.  Columns named in
    ``drop_columns`` are removed (categorical features); the rest must
    be numeric.  Keeps the first ``max_rows`` rows, then median-fills,
    winsorizes, normalizes, and adds seeded unit noise to the target.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    header, line_nos, data = _parse_csv(path)
    for col in (target_column, *drop_columns):
        if col not in header:
            raise DataFormatError(f"{path}: missing column {col!r}")
    keep = [i for i, h in enumerate(header) if h not in drop_columns and h != target_column]
    target_idx = header.index(target_column)
    data = data[:max_rows]
    # Only the kept cells of the kept rows are converted, a column at a
    # time; an empty cell is missing.  A failed conversion falls back to
    # a scan in row order that names the first unparsable cell.
    values = np.empty((len(data), len(keep) + 1))
    try:
        for j, i in enumerate((*keep, target_idx)):
            values[:, j] = [float(row[i].strip() or "nan") for row in data]
    except ValueError:
        for line, row in zip(line_nos, data):
            for i in (*keep, target_idx):
                if not _parses(row[i].strip() or "nan"):
                    raise DataFormatError(
                        f"{path}: line {line}, column {header[i]!r}: "
                        f"cannot parse {row[i].strip()!r} as a number") from None
        raise
    features, targets = values[:, :-1], values[:, -1]
    infinite = np.argwhere(np.isinf(features))  # row-major, so the first cell in row order
    if infinite.size:
        r, j = infinite[0]
        raise DataFormatError(f"{path}: line {line_nos[r]}, column {header[keep[j]]!r}: "
                              f"{data[r][keep[j]].strip()!r} is not finite")
    if np.isnan(targets).all():
        raise DataFormatError(f"{path}: column {target_column!r} has no values")
    if not np.isfinite(targets[~np.isnan(targets)]).all():
        raise DataFormatError(f"{path}: non-finite target value")
    raw = RegressionDataset(features, targets, provenance=str(path),
                            feature_names=tuple(header[i] for i in keep))
    return preprocess(raw, noise_seed=noise_seed, normalize=normalize)


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
    features = dataset.features.copy()
    targets = dataset.targets.copy()
    for j in range(features.shape[1]):
        col = features[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise DataFormatError(f"column {dataset.names()[j]!r} has no values")
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
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        features = (features - mean) / std
    noise_applied = dataset.noise_applied
    if not noise_applied:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=noise_seed, spawn_key=_NOISE_STREAM))
        targets = targets + rng.standard_normal(targets.shape)
        noise_applied = True
    return replace(dataset, features=features, targets=targets,
                   noise_applied=noise_applied)


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
