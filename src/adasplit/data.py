"""Domain data model: trial data, subgroup partitions, fold snapshots,
configuration.

A :class:`Dataset` holds the covariate matrix ``x``, observed outcomes ``y``
and binary treatment assignments ``z``, drawn under the Bernoulli(1/2)
design, the only design the package supports. Assignments may be masked
(NaN) for units whose treatment is unknown; every other field must be finite.

Every type here is immutable after construction and safe to share across
workers. A fold split is a boolean nuisance mask over the units; the
inference fold of subgroup ``g`` is ``g[~mask[g]]``.
"""

import csv
import dataclasses
import itertools
import json
import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """One experimental sample: covariates, outcomes, assignments."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        z = np.asarray(self.z, dtype=float).ravel()
        n = x.shape[0]
        if n < 1 or x.shape[1] < 1:
            raise ValidationError("n >= 1 and d >= 1 required")
        if y.shape[0] != n or z.shape[0] != n:
            raise ValidationError(
                f"length mismatch: x has {n} rows, y {y.shape[0]}, z {z.shape[0]}"
            )
        if not np.all(np.isfinite(x)):
            raise ValidationError("non-finite covariate value")
        if not np.all(np.isfinite(y)):
            raise ValidationError("non-finite outcome value")
        observed = ~np.isnan(z)
        if not np.all(np.isin(z[observed], (0.0, 1.0))):
            raise ValidationError("non-binary assignment")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "z", _readonly(z))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def equals(self, other):
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.z, other.z, equal_nan=True)
        )


def _covariate_names(keys):
    """The contiguous x1..xd column names present in ``keys``."""
    xs = sorted(
        (int(m.group(1)) for k in keys if (m := re.fullmatch(r"x(\d+)", k))),
    )
    if not xs or xs != list(range(1, len(xs) + 1)):
        raise ValidationError("covariate columns must be named x1..xd with no gaps")
    return [f"x{i}" for i in xs]


@dataclass(frozen=True)
class SubgroupPartition:
    """K disjoint, exhaustive, nonempty index sets over the n units."""

    groups: tuple

    def __post_init__(self):
        groups = tuple(np.sort(np.asarray(g, dtype=int).ravel()) for g in self.groups)
        if not groups:
            raise ValidationError("at least one subgroup required")
        for g in groups:
            if g.size == 0:
                raise ValidationError("empty subgroup")
        merged = np.sort(np.concatenate(groups))
        if (merged[1:] == merged[:-1]).any():
            raise ValidationError("subgroups overlap")
        if not np.array_equal(merged, np.arange(merged.size)):
            raise ValidationError("subgroups do not cover all units exactly")
        for g in groups:
            g.setflags(write=False)
        object.__setattr__(self, "groups", groups)

    @property
    def k(self):
        return len(self.groups)

    @property
    def n(self):
        return sum(g.size for g in self.groups)

    def labels(self):
        """Per-unit subgroup index (0-based)."""
        lab = np.empty(self.n, dtype=int)
        for k, g in enumerate(self.groups):
            lab[g] = k
        return lab

    @classmethod
    def from_labels(cls, labels):
        labels = np.asarray(labels)
        values = np.unique(labels)
        return cls(tuple(np.flatnonzero(labels == v) for v in values))


def partition_by_quantiles(dataset, column, cuts):
    """Split units by empirical quantiles of one covariate column.

    Quantiles use the inverted-CDF convention: the cut at fraction ``c`` is
    the smallest order statistic whose empirical CDF is at least ``c``, the
    k-th for the smallest k with ``k / n >= c`` in floating point (``ceil(c
    * n)`` can round past it: 0.55 * 100 is 55.00000000000001). A unit
    equal to a cut value goes to the lower group.
    """
    cuts = tuple(float(c) for c in cuts)
    if any(not 0.0 < c < 1.0 for c in cuts):
        raise ValidationError("quantile cuts must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError("quantile cuts must be strictly increasing")
    if not 0 <= column < dataset.d:
        raise ValidationError(f"column index {column} out of range for d={dataset.d}")
    v = dataset.x[:, column]
    n = v.size
    order_stats = np.sort(v)
    bounds = [order_stats[_cut_rank(c, n) - 1] for c in cuts]
    edges = np.concatenate(([-np.inf], bounds, [np.inf]))
    groups = []
    for k in range(len(cuts) + 1):
        g = np.flatnonzero((v > edges[k]) & (v <= edges[k + 1]))
        if g.size == 0:
            raise ValidationError(f"quantile cut produces empty subgroup {k + 1}")
        groups.append(g)
    return SubgroupPartition(tuple(groups))


def _cut_rank(c, n):
    """The smallest k with ``k / n >= c``, for 0 < c < 1."""
    return int(np.searchsorted(np.arange(1, n + 1) / n, c)) + 1


@dataclass(frozen=True)
class FoldSnapshot:
    """Immutable record of a fold assignment, for reports."""

    nuisance: tuple
    inference: tuple
    proportions: tuple

    @classmethod
    def from_mask(cls, partition, mask):
        """Snapshot of the split whose nuisance fold is the boolean ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        return cls(
            nuisance=tuple(int(i) for i in np.flatnonzero(mask)),
            inference=tuple(
                tuple(int(i) for i in g[~mask[g]]) for g in partition.groups
            ),
            proportions=tuple(float(1.0 - mask[g].mean()) for g in partition.groups),
        )


# Configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class AdaSplitConfig:
    """Tuning parameters for the adaptive splitting procedure."""

    p_init: float = 0.05
    rho: float = 0.5
    eps_l: float = 0.01
    n0: int = 50
    mc_draws: int = 1000
    alpha: float = 0.2
    q: float = 0.2
    knn_k: int = 10
    ridge_lambda: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # Numbers only: a string or a boolean is never coerced. Float fields
        # become floats and integral values of the integer fields ints;
        # anything else fails here, naming the key, not deep inside a run.
        for f in dataclasses.fields(self):
            raw = getattr(self, f.name)
            is_int = type(f.default) is int
            try:
                if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
                    raise TypeError
                v = int(raw) if is_int and isinstance(raw, numbers.Integral) else float(raw)
            except (TypeError, OverflowError):
                raise ConfigError(
                    f"config key {f.name!r}: bad value {raw!r} (must be a number)"
                )
            if not is_int and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite")
            if is_int and isinstance(v, float):
                if not v.is_integer():
                    raise ConfigError(f"{f.name} must be an integer, got {raw!r}")
                v = int(v)
            object.__setattr__(self, f.name, v)
        if not 0.0 < self.p_init < 1.0:
            raise ConfigError("p_init must lie in (0, 1)")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must lie in (0, 1)")
        if not self.eps_l > 0.0:
            raise ConfigError("eps_l must be positive")
        if self.n0 < 1:
            raise ConfigError("n0 must be >= 1")
        if self.mc_draws < 1:
            raise ConfigError("mc_draws must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise ConfigError("q must lie in (0, 1)")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if self.ridge_lambda < 0.0:
            raise ConfigError("ridge_lambda must be >= 0")

    @classmethod
    def from_dict(cls, values):
        unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8-sig") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed config JSON: {exc}")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8: byte "
                                  f"0x{exc.object[exc.start]:02x} cannot be decoded") from exc
        if not isinstance(values, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(values)

    def to_dict(self):
        return dataclasses.asdict(self)

    def replace(self, **kwargs):
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class AnalysisReport:
    """Result of one analysis: p-values, rejections, folds, diagnostics."""

    pvalues: tuple
    rejected: tuple
    folds: FoldSnapshot | None
    iterations: int
    cate_coefficients: tuple | None
    diagnostics: dict = field(default_factory=dict)
    method: str = "adasplit"
    config: AdaSplitConfig | None = None

    @staticmethod
    def _jsonable(value):
        """Strict-JSON-safe copy: NaN becomes null, infinities become strings."""
        if isinstance(value, float):
            if math.isnan(value):
                return None
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return value
        if isinstance(value, (np.floating, np.integer)):
            return AnalysisReport._jsonable(float(value))
        if isinstance(value, dict):
            return {k: AnalysisReport._jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [AnalysisReport._jsonable(v) for v in value]
        return value

    def to_json_dict(self):
        folds = None
        if self.folds is not None:
            folds = {
                "nuisance": list(self.folds.nuisance),
                "inference": [list(g) for g in self.folds.inference],
                "proportions": list(self.folds.proportions),
            }
        return {
            "schema": 1,
            "method": self.method,
            "pvalues": list(self.pvalues),
            "rejected": list(self.rejected),
            "folds": folds,
            "iterations": self.iterations,
            "cate_coefficients": (
                None if self.cate_coefficients is None else list(self.cate_coefficients)
            ),
            "diagnostics": self._jsonable(self.diagnostics),
            "config": None if self.config is None else self.config.to_dict(),
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# CSV ingestion ---------------------------------------------------------------

# Lines (records, from the first quote on) are read this many at a time,
# which bounds the text held in memory.
_CSV_BLOCK = 1024
_LABEL_RANGE = np.iinfo(int)


def read_dataset_csv(path, subgroup_column="subgroup"):
    """Strictly parse a trial CSV into a dataset plus optional subgroup labels.

    Expected header: ``x1,...,xd,y,z`` with an optional integer subgroup
    column (named ``subgroup`` unless overridden; a covariate may serve, but
    not ``y`` or ``z``). The file is UTF-8 text, optionally starting with a
    byte-order mark. A non-numeric or non-finite cell, a ``z`` other than 0
    or 1, or a label outside the 64-bit range is an error naming the
    offending row and column; nothing is coerced silently. A row of blank
    cells is skipped but keeps its number.

    Lines are read in blocks of ``_CSV_BLOCK``, so memory holds one block of
    text whatever the file's length; from the first block holding a quote or
    an over-long line on, records are read with ``csv.reader``. numpy's C
    reader converts each block (see :func:`_parse_block`), with the float
    parser ``float`` uses, so values are bit-identical. A block it refuses
    goes cell by cell, which accepts it or raises the first bad cell's error.
    """
    if subgroup_column in ("y", "z"):
        raise ValidationError(
            f"subgroup column cannot be {subgroup_column!r}: subgroups must be "
            "fixed before treatment, and the outcome and the assignment are not"
        )
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ValidationError("empty file: n >= 1 required")
            except csv.Error as exc:
                raise ValidationError(f"header: {exc}") from exc
            header = [h.strip() for h in header]
            names = _covariate_names(header)
            required = set(names) | {"y", "z"}
            missing = required - set(header)
            if missing:
                raise ValidationError(f"missing column(s): {sorted(missing)}")
            extra = set(header) - required - {subgroup_column}
            if extra:
                raise ValidationError(f"unexpected column(s): {sorted(extra)}")
            if len(set(header)) != len(header):
                raise ValidationError("duplicate column names")
            col = {name: header.index(name) for name in header}
            # (column index, name, type) in the order a row's cells are checked.
            fields = [(col[c], c, float) for c in names + ["y", "z"]]
            if subgroup_column in col:
                fields.append((col[subgroup_column], subgroup_column, int))
            # numpy's reader takes every column as floats but the label's, which
            # it leaves as text for int() (its own integer parsing of text such
            # as "1.0" has changed between releases).
            dtype = np.dtype(",".join(
                "O" if i == col.get(subgroup_column) else "f8" for i in range(len(header))))

            blocks = []
            first = 1
            limit = csv.field_size_limit()
            while lines := list(itertools.islice(fh, _CSV_BLOCK)):
                # Without quotes or over-long fields a line is one record.
                if '"' in "".join(lines) or max(map(len, lines)) > limit:
                    break
                try:
                    blocks.append(_loadtxt(lines, dtype, fields))
                except (ValueError, OverflowError):
                    blocks.extend(_record_blocks(csv.reader(lines), first, dtype, fields))
                first += len(lines)
            # Every earlier block was quote-free, so a record starts here.
            reader = csv.reader(itertools.chain(lines, fh))
            blocks.extend(_record_blocks(reader, first, dtype, fields))
    except UnicodeDecodeError as exc:
        # The file is decoded in chunks, so this can surface at any row.
        raise ValidationError(
            f"not a UTF-8 file: byte 0x{exc.object[exc.start]:02x} cannot be decoded"
        ) from exc
    columns = [np.concatenate(c) for c in zip(*blocks)]
    if not columns or columns[0].size == 0:
        raise ValidationError("empty file: n >= 1 required")
    d = len(names)
    dataset = Dataset(np.column_stack(columns[:d]), columns[d], columns[d + 1])
    return dataset, (columns[d + 2] if len(fields) > d + 2 else None)


def _record_blocks(reader, first, dtype, fields):
    """One array list per block of ``_CSV_BLOCK`` records from ``reader``,
    the first of which is row ``first``."""
    while True:
        rows = []
        try:
            rows.extend(itertools.islice(reader, _CSV_BLOCK))
        except csv.Error as exc:
            # A bad cell before the reader's own error is reported first.
            _parse_block(rows, first, dtype, fields)
            raise ValidationError(f"row {first + len(rows)}: {exc}") from exc
        if not rows:
            return
        yield _parse_block(rows, first, dtype, fields)
        first += len(rows)


def _parse_block(rows, first, dtype, fields):
    """One array per field over the block's non-blank records; ``first`` is
    the number of the block's first row.

    When every such record has the header's width, they are joined back
    into lines for numpy's reader. It refuses a cell holding a comma (the
    column count changes) or a line break, an underscore, a non-ASCII digit,
    U+001C..U+001F around a label and any bad cell; such a block is
    converted cell by cell with :func:`_cell`, in row order, which raises
    the first bad cell's error.
    """
    kept = [row for row in rows if "".join(row).strip()]
    if all(len(row) == len(dtype) for row in kept):
        try:
            return _loadtxt(list(map(",".join, kept)), dtype, fields)
        except (ValueError, OverflowError):
            pass
    columns = [[] for _ in fields]
    for r, row in enumerate(rows, start=first):
        if not "".join(row).strip():
            continue
        if len(row) != len(dtype):
            raise ValidationError(f"row {r}: expected {len(dtype)} cells, got {len(row)}")
        for column, (idx, name, kind) in zip(columns, fields):
            column.append(_cell(row, idx, r, name, kind))
    return [np.array(c, dtype=kind) for c, (_, _, kind) in zip(columns, fields)]


def _loadtxt(lines, dtype, fields):
    """Each field's column of ``lines`` as one ``np.loadtxt`` call converts
    it, checked as :func:`_cell` checks a cell (labels through ``int``);
    raises ``ValueError`` or ``OverflowError`` otherwise."""
    if not any(map(str.strip, lines)):  # np.loadtxt warns on a block with no data
        raise ValueError("no data")
    table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    out = []
    for idx, name, kind in fields:
        column = table[dtype.names[idx]]
        if kind is int:
            values = np.fromiter(map(int, column), int, count=column.size)
        elif column.dtype == object:  # a covariate that also labels the subgroups
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, usecols=idx)
        else:
            values = column.copy()  # so no label text outlives the block
        if kind is float and not np.isfinite(values).all():
            raise ValueError(f"non-finite {name}")
        if name == "z" and not ((values == 0.0) | (values == 1.0)).all():
            raise ValueError("assignment not 0 or 1")
        out.append(values)
    return out


def _cell(row, idx, r, name, kind):
    text = row[idx].strip()
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"row {r}, column {name}: could not parse {text!r}")
    if kind is int and not _LABEL_RANGE.min <= value <= _LABEL_RANGE.max:
        raise ValidationError(
            f"row {r}, column {name}: label {text!r} is outside the 64-bit range")
    if not math.isfinite(value):
        raise ValidationError(f"row {r}, column {name}: non-finite value {text!r}")
    if name == "z" and value not in (0.0, 1.0):
        raise ValidationError(f"row {r}, column z: assignment {text!r} is not 0 or 1")
    return value


def write_dataset_csv(path, dataset, subgroup_labels=None):
    """Inverse of :func:`read_dataset_csv`, used by the benchmark and tests.

    Covariates and outcomes are written as the ``repr`` of each float, which
    reads back bit for bit; assignments and labels as integers. A masked
    (NaN) assignment has no integer form: it is an error naming its row, and
    no file is written.
    """
    masked = np.flatnonzero(np.isnan(dataset.z))
    if masked.size:
        raise ValidationError(
            f"row {masked[0] + 1}: masked assignment cannot be written")
    header = [f"x{i + 1}" for i in range(dataset.d)] + ["y", "z"]
    columns = [map(repr, c) for c in dataset.x.T.tolist()]
    columns.append(map(repr, dataset.y.tolist()))
    columns.append(map(str, map(int, dataset.z.tolist())))
    if subgroup_labels is not None:
        if len(subgroup_labels) != dataset.n:
            raise ValidationError(
                f"{len(subgroup_labels)} subgroup labels for {dataset.n} rows")
        header.append("subgroup")
        columns.append(map(str, map(int, subgroup_labels)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
