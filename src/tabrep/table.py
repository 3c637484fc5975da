"""Customer-indexed big-table data model, CSV ingestion and statistics.

A table holds, per customer, an ordered list of records; a record is one
cell per feature plus an optional date index. Cells are tagged values:
missing, number, token or date. Tables are treated as immutable once built;
transforming operations return new instances.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import EmptyTableError, MissingDateIndexError, ParseError, SchemaError, TableIOError

MISSING_STRINGS = {"", "na", "nan", "null"}


class Missing:
    """Singleton cell value for absent data."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Missing"


MISSING = Missing()


@dataclass(frozen=True)
class Number:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite number cell: {self.value}")


@dataclass(frozen=True)
class Token:
    value: str

    def __post_init__(self):
        if not self.value.strip():
            raise ValueError("empty token cell")


@dataclass(frozen=True)
class Date:
    epoch: int


CellValue = Missing | Number | Token | Date


def parse_cell(text: str) -> CellValue:
    """Parse one raw cell; unparseable content never raises, it degrades.

    Empty strings and the usual NA spellings become Missing; numbers must be
    finite (inf/nan spellings degrade to Missing); ISO-8601 dates become
    epoch seconds; everything else is a token.
    """
    text = text.strip()
    if text.lower() in MISSING_STRINGS:
        return MISSING
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        return Number(value) if math.isfinite(value) else MISSING
    epoch = _parse_date(text)
    if epoch is not None:
        return Date(epoch)
    return Token(text)


class _ParsedCells(dict):
    """Raw cell text -> `parse_cell` of it, parsed on first lookup only.

    Keyed on the exact unstripped text, so texts that parse to equal but
    distinguishable cells ("-0.0" and "0.0") never share an entry.
    """

    def __missing__(self, text: str) -> CellValue:
        cell = self[text] = parse_cell(text)
        return cell


def _parse_date(text: str) -> int | None:
    candidate = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(candidate)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_cell(cell: CellValue) -> str:
    if cell is MISSING:
        return ""
    if isinstance(cell, Number):
        return repr(cell.value)
    if isinstance(cell, Token):
        return cell.value
    if isinstance(cell, Date):
        return datetime.fromtimestamp(cell.epoch, tz=timezone.utc).isoformat()
    raise TypeError(f"not a cell value: {cell!r}")


@dataclass(frozen=True)
class Row:
    cells: tuple
    date: int | None = None


@dataclass
class BigTable:
    """Customers x features table with per-customer record sequences."""

    customers: list[str]
    features: list[str]
    records: dict[str, list[Row]]
    labels: dict[str, dict[str, int]] = field(default_factory=dict)
    has_date_index: bool = False

    def __post_init__(self):
        if len(set(self.customers)) != len(self.customers):
            raise SchemaError("duplicate customer ids")
        width = len(self.features)
        for cust, rows in self.records.items():
            for row in rows:
                if len(row.cells) != width:
                    raise SchemaError(f"customer {cust!r}: row has {len(row.cells)} cells, expected {width}")
        for task, labels in self.labels.items():
            unknown = set(labels) - set(self.customers)
            if unknown:
                raise SchemaError(f"task {task!r} labels unknown customers: {sorted(unknown)[:3]}")

    @property
    def n_customers(self) -> int:
        return len(self.customers)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def feature_index(self, feature: str) -> int:
        try:
            return self.features.index(feature)
        except ValueError:
            raise SchemaError(f"unknown feature {feature!r}") from None

    def column(self, feature: str):
        """All cells of one feature in customer-then-record order."""
        j = self.feature_index(feature)
        for cust in self.customers:
            for row in self.records[cust]:
                yield row.cells[j]


@dataclass(frozen=True)
class TableFormat:
    """CSV layout options: delimiter, id/date columns, label columns."""

    delimiter: str = ","
    id_column: str = "customer_id"
    date_column: str | None = None
    label_columns: tuple[str, ...] = ()


def load_table(path, fmt: TableFormat = TableFormat()) -> BigTable:
    """Read a delimited file with a header row into a BigTable.

    Cell content never fails the load: anything unparseable is Missing.
    Structural problems (duplicate headers, absent id column, ragged rows,
    malformed CSV) raise SchemaError/ParseError. The file is streamed
    through the CSV reader, so a quoted cell may hold line breaks, and a
    leading byte-order mark is dropped. Each distinct raw text is parsed
    once, and every equal text of the file shares that one immutable cell.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=fmt.delimiter)
            try:
                return _read_table(path, reader, fmt)
            except csv.Error as e:
                raise ParseError(f"{path}:{reader.line_num}: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise TableIOError(f"cannot read {path}: {e}") from e


def _read_table(path: Path, reader, fmt: TableFormat) -> BigTable:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise SchemaError(f"{path}: duplicate header columns {dupes}")
    if fmt.id_column not in header:
        raise SchemaError(f"{path}: id column {fmt.id_column!r} not in header")
    if fmt.date_column is not None and fmt.date_column not in header:
        raise SchemaError(f"{path}: date column {fmt.date_column!r} not in header")
    for col in fmt.label_columns:
        if col not in header:
            raise SchemaError(f"{path}: label column {col!r} not in header")

    id_pos = header.index(fmt.id_column)
    date_pos = header.index(fmt.date_column) if fmt.date_column is not None else None
    label_pos = {col: header.index(col) for col in fmt.label_columns}
    special = {id_pos, *([date_pos] if date_pos is not None else []), *label_pos.values()}
    features = [h for i, h in enumerate(header) if i not in special]
    feature_pos = [i for i in range(len(header)) if i not in special]

    customers: list[str] = []
    records: dict[str, list[Row]] = {}
    labels: dict[str, dict[str, int]] = {col: {} for col in fmt.label_columns}
    parsed = _ParsedCells()

    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise ParseError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                             f"got {len(raw)}")
        cust = raw[id_pos].strip()
        if not cust:
            raise ParseError(f"{path}:{reader.line_num}: empty customer id")
        if cust not in records:
            customers.append(cust)
            records[cust] = []
        date = None
        if date_pos is not None:
            cell = parsed[raw[date_pos]]
            if isinstance(cell, Date):
                date = cell.epoch
            elif isinstance(cell, Number):
                date = int(cell.value)
        cells = tuple([parsed[raw[i]] for i in feature_pos])
        records[cust].append(Row(cells=cells, date=date))
        for col, pos in label_pos.items():
            cell = parsed[raw[pos]]
            if isinstance(cell, Number) and cust not in labels[col]:
                labels[col][cust] = int(cell.value)

    labels = {task: vals for task, vals in labels.items() if vals}
    return BigTable(customers=customers, features=features, records=records,
                    labels=labels, has_date_index=fmt.date_column is not None)


def save_table(table: BigTable, path, fmt: TableFormat = TableFormat()) -> None:
    """Write a BigTable back to CSV in the `load_table` layout.

    A customer is known to that layout only through its rows, so a customer
    with no records raises `TableIOError` before anything is written."""
    empty = next((c for c in table.customers if not table.records.get(c)), None)
    if empty is not None:
        raise TableIOError(f"customer {empty!r} has no records; a saved table cannot hold it")
    path = Path(path)
    header = [fmt.id_column]
    if fmt.date_column is not None:
        header.append(fmt.date_column)
    header.extend(table.features)
    header.extend(fmt.label_columns)
    with path.open("w", newline="", encoding="utf-8") as fh:
        plain = csv.writer(fh, delimiter=fmt.delimiter, lineterminator="\n")
        # `plain` quotes a field holding "\n" but not one holding only "\r"
        quoted = csv.writer(fh, delimiter=fmt.delimiter, lineterminator="\n",
                            quoting=csv.QUOTE_ALL)

        def write(row):
            (quoted if "\r" in "".join(row) else plain).writerow(row)

        write(header)
        for cust in table.customers:
            for row in table.records[cust]:
                out = [cust]
                if fmt.date_column is not None:
                    out.append("" if row.date is None else datetime.fromtimestamp(row.date, tz=timezone.utc).isoformat())
                out.extend(format_cell(c) for c in row.cells)
                for col in fmt.label_columns:
                    value = table.labels.get(col, {}).get(cust)
                    out.append("" if value is None else str(value))
                write(out)


def order_records(table: BigTable) -> BigTable:
    """Sort each customer's records ascending by date; stable on ties.

    Records without a date sort before dated ones, keeping file order among
    themselves.
    """
    if not table.has_date_index:
        raise MissingDateIndexError("table was loaded without a date column")
    ordered = {
        cust: sorted(rows, key=lambda r: (-math.inf if r.date is None else r.date))
        for cust, rows in table.records.items()
    }
    return BigTable(customers=list(table.customers), features=list(table.features),
                    records=ordered, labels=table.labels, has_date_index=True)


@dataclass
class TableStats:
    """Characteristics summary: label balance, sparsity, kind mixture."""

    label_ratio: dict[str, float | None]
    feature_missing_ratio: float
    structural_missing_ratio: float
    kind_ratios: dict[str, float]
    records_per_customer: dict[str, float]

    def __post_init__(self):
        for name in ("feature_missing_ratio", "structural_missing_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {value}")
        total = sum(self.kind_ratios.values())
        if self.kind_ratios and abs(total - 1.0) > 1e-9:
            raise ValueError(f"kind_ratios sum {total} != 1")

    def positive_fraction(self, task: str) -> float | None:
        ratio = self.label_ratio.get(task)
        if ratio is None:
            return None
        return ratio / (1.0 + ratio)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def compute_stats(table: BigTable, schema) -> TableStats:
    """Data-characteristics statistics.

    Missing ratios are customer-level means averaged uniformly over
    customers, then over features; the structural ratio counts
    customer-feature pairs whose every record is missing.
    """
    active = [c for c in table.customers if table.records[c]]
    if not active or not table.features:
        raise EmptyTableError("no records to profile")

    n_feat = table.n_features
    per_feature_missing = [0.0] * n_feat
    structural_pairs = 0
    for cust in active:
        rows = table.records[cust]
        for j in range(n_feat):
            missing = sum(1 for row in rows if row.cells[j] is MISSING)
            per_feature_missing[j] += missing / len(rows)
            if missing == len(rows):
                structural_pairs += 1
    per_feature_missing = [m / len(active) for m in per_feature_missing]
    feature_missing_ratio = sum(per_feature_missing) / n_feat
    structural_missing_ratio = structural_pairs / (len(active) * n_feat)

    label_ratio: dict[str, float | None] = {}
    for task, labels in table.labels.items():
        pos = sum(1 for v in labels.values() if v == 1)
        neg = sum(1 for v in labels.values() if v == 0)
        label_ratio[task] = (pos / neg) if neg else None

    counts = [len(table.records[c]) for c in active]
    records_per_customer = {
        "min": float(min(counts)),
        "mean": sum(counts) / len(counts),
        "max": float(max(counts)),
    }
    return TableStats(label_ratio=label_ratio,
                      feature_missing_ratio=feature_missing_ratio,
                      structural_missing_ratio=structural_missing_ratio,
                      kind_ratios=schema.kind_ratios(),
                      records_per_customer=records_per_customer)
