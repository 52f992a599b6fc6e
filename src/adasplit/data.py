"""Domain data model: trial data, subgroup partitions, fold snapshots,
configuration.

A :class:`Dataset` holds the covariate matrix ``x``, observed outcomes ``y``
and binary treatment assignments ``z``, drawn under the Bernoulli(1/2)
design, the only design the package supports. Every value must be finite
and every assignment 0 or 1, since each method reads or tests every unit's
assignment.

Every type here is immutable after construction and safe to share across
workers. A fold split is a boolean nuisance mask over the units; the
inference fold of subgroup ``g`` is ``g[~mask[g]]``.
"""

import csv
import dataclasses
import functools
import json
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

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
        if not np.all(np.isfinite(z)):
            raise ValidationError("non-finite assignment value")
        if not np.all(np.isin(z, (0.0, 1.0))):
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
    # The order statistic at each cut's rank.
    bounds = np.sort(v)[_cut_rank(cuts, n) - 1]
    # Each unit's label counts the cut values below it; a small integer type
    # lets the stable argsort below sort by radix.
    labels = np.zeros(n, dtype=np.min_scalar_type(len(cuts)))
    for b in bounds:
        labels += v > b
    sizes = np.bincount(labels, minlength=len(cuts) + 1)
    if not sizes.all():
        k = int(np.flatnonzero(sizes == 0)[0])
        raise ValidationError(f"quantile cut produces empty subgroup {k + 1}")
    order = np.argsort(labels, kind="stable")
    return SubgroupPartition(tuple(np.split(order, np.cumsum(sizes[:-1]))))


def _cut_rank(c, n):
    """The smallest k with ``k / n >= c``, for 0 < c < 1, or an array of
    them for a sequence of cuts ``c``."""
    return np.searchsorted(np.arange(1, n + 1) / n, c) + 1


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
            nuisance=tuple(np.flatnonzero(mask).tolist()),
            inference=tuple(tuple(g[~mask[g]].tolist()) for g in partition.groups),
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
        if type(value) in (list, tuple) and set(map(type, value)) <= _INTS_AND_STRINGS:
            return list(value)
        if isinstance(value, float):
            if math.isnan(value):
                return None
            if math.isinf(value):
                return "inf" if value > 0 else "-inf"
            return value
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
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
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=2)``."""
        return _json_indent2(self.to_json_dict())


_INTS_AND_STRINGS = frozenset((int, str))
_FLAT_JSON = frozenset((str, int, float, bool, type(None)))


def _json_indent2(value, indent=""):
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte, with
    ``indent`` before each line after the first.

    json writes an indented layout with its pure-Python encoder. Here a
    plain string, number, boolean or None, or a list of them, goes through
    json's C encoder in one call, with the layout's line break and indent as
    a list's item separator. Any other type, a subclass or a non-str key is
    left to ``json.dumps`` itself.
    """
    kind = type(value)
    if kind in _FLAT_JSON:
        return _flat_encoder(indent)(value)
    inner = indent + "  "
    if (kind is list or kind is tuple) and value:
        if set(map(type, value)) <= _FLAT_JSON:
            return f"[\n{inner}{_flat_encoder(inner)(value)[1:-1]}\n{indent}]"
        body = (",\n" + inner).join([_json_indent2(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and value and set(map(type, value)) == {str}:
        body = (",\n" + inner).join([
            f"{encode_basestring_ascii(k)}: {_json_indent2(value[k], inner)}"
            for k in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    # Empty containers, and whatever the cases above do not spell exactly.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


@functools.cache
def _flat_encoder(inner):
    """json's C encoder, writing a flat list's items one to a line at ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


# CSV ingestion ---------------------------------------------------------------

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

    There are two passes. One ``np.loadtxt`` call reads every record after
    the header, quoted cells included, with the float parser ``float``
    uses, so values are bit-identical (see :func:`_loadtxt`). A file it
    refuses is read again, whole, with ``csv.reader``: each cell goes
    through :func:`_cell` in row order, which accepts the file or raises the
    first bad cell's error.
    """
    if subgroup_column in ("y", "z"):
        raise ValidationError(
            f"subgroup column cannot be {subgroup_column!r}: subgroups must be "
            "fixed before treatment, and the outcome and the assignment are not"
        )
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = csv.reader(fh)
            try:
                header = next(records)
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
            # A second handle, with universal newlines, hands numpy's reader
            # every line end as one "\n"; the header is parsed again to skip it.
            with open(path, encoding="utf-8-sig") as text:
                next(csv.reader(text))
                try:
                    columns = _loadtxt(text, dtype, fields)
                except (ValueError, OverflowError):
                    columns = None
            if columns is None:
                columns = _parse_records(records, len(header), fields)
    except UnicodeDecodeError as exc:
        # The file is decoded in chunks, so this can surface at any row.
        raise ValidationError(
            f"not a UTF-8 file: byte 0x{exc.object[exc.start]:02x} cannot be decoded"
        ) from exc
    if columns[0].size == 0:
        raise ValidationError("empty file: n >= 1 required")
    d = len(names)
    dataset = Dataset(np.column_stack(columns[:d]), columns[d], columns[d + 1])
    return dataset, (columns[d + 2] if len(fields) > d + 2 else None)


def _loadtxt(fh, dtype, fields):
    """Each field's column of the records left in ``fh``, as one
    ``np.loadtxt`` call converts them, checked as :func:`_cell` checks a
    cell; raises ``ValueError`` or ``OverflowError`` otherwise.

    numpy's reader refuses a row of blank cells or a whitespace-only row,
    an underscore or a non-ASCII digit in a number, U+001C..U+001F around a
    label and any bad cell.
    """
    with warnings.catch_warnings():
        # Only blank lines after the header: an empty file, reported as such.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(fh, dtype, delimiter=",", comments=None, quotechar='"',
                           ndmin=1)
    out = []
    for idx, name, kind in fields:
        column = table[dtype.names[idx]]
        if column.dtype == object:  # text: the labels, or a covariate that is both
            values = np.fromiter(map(kind, column), kind, count=column.size)
        else:
            values = column.copy()  # so the table and its text go on return
        if kind is float and not np.isfinite(values).all():
            raise ValueError(f"non-finite {name}")
        if name == "z" and not ((values == 0.0) | (values == 1.0)).all():
            raise ValueError("assignment not 0 or 1")
        out.append(values)
    return out


def _parse_records(records, width, fields):
    """One array per field over the non-blank records, cell by cell with
    :func:`_cell`; a bad cell, a record of the wrong width or the reader's
    own error raises, the first in row order."""
    columns = [[] for _ in fields]
    r = 0
    try:
        for r, row in enumerate(records, start=1):
            if not "".join(row).strip():
                continue
            if len(row) != width:
                raise ValidationError(f"row {r}: expected {width} cells, got {len(row)}")
            for column, (idx, name, kind) in zip(columns, fields):
                column.append(_cell(row, idx, r, name, kind))
    except csv.Error as exc:
        raise ValidationError(f"row {r + 1}: {exc}") from exc
    return [np.array(c, dtype=kind) for c, (_, _, kind) in zip(columns, fields)]


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
    reads back bit for bit; assignments and labels as integers.
    """
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
