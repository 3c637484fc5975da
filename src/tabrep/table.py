"""Customer-indexed big-table data model, CSV ingestion and statistics.

A table holds, per customer, an ordered list of records; a record is one
cell per feature plus an optional date index. Cells are tagged values:
missing, number, token or date. Tables are treated as immutable once built;
transforming operations return new instances.

Storage is columnar (`Columns`): one integer code per (record, feature)
into a pool of distinct cells, the records of each customer contiguous
and located by customer offsets, plus one int64 date per record with a
mask of the dated ones. The pool of cells is columns too (`CellPool`).
Whole-table passes are array operations over the codes. A table is built in
memory only from `Columns`, or read from a CSV by `load_table`.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import (Checked, EmptyTableError, InterleavedTableError, MissingDateIndexError,
                     ParseError, SchemaError, TableIOError)

MISSING_STRINGS = {"", "na", "nan", "null"}


# Cell kind codes of `CellPool.kinds`.
KIND_MISSING, KIND_NUMBER, KIND_TOKEN, KIND_DATE = 0, 1, 2, 3
MISSING_CODE = 0        # every pool holds the missing cell, and only there
KEPT_NUMBERS = 4096     # distinct number texts a load keeps by text (see `_ParsedCells`)
KEPT_DATES = 4096       # distinct date texts a load keeps with their epochs, file-wide


def parse_text(text: str) -> tuple[int, float | str | int | None]:
    """One raw cell's kind and item; unparseable content never raises, it degrades.

    Empty strings and the usual NA spellings are missing (item None); a
    number must be finite (inf/nan spellings are missing), its item its
    value; an ISO-8601 date's item is its epoch seconds (`Z` is UTC);
    everything else is a token, its item the stripped text.
    """
    value = _parse_number(text)
    if value is not None:
        return (KIND_NUMBER, value) if math.isfinite(value) else (KIND_MISSING, None)
    text = text.strip()
    if text.lower() in MISSING_STRINGS:
        return KIND_MISSING, None
    epoch = _parse_date(text)
    if epoch is not None:
        return KIND_DATE, epoch
    return KIND_TOKEN, text


def _parse_number(text: str) -> float | None:
    """A number text's value, finite or not; None if `text` is no number."""
    try:
        return float(text)
    except ValueError:
        return None


def _parse_date(text: str) -> int | None:
    candidate = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(candidate)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


_format_number = repr       # a number's text, which `parse_text` reads back bit for bit


def _format_date(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()


# ---- columnar storage ------------------------------------------------------

class CellPool:
    """The distinct cells of a table, addressed by integer code, as columns.

    `kinds` holds each code's cell kind, `values` a number's value (NaN for
    every other cell), and `items` a token's text or a date's epoch, by
    code. Code 0 is the missing cell, and no other code is.
    """

    def __init__(self, kinds: np.ndarray, values: np.ndarray, items: dict[int, str | int]):
        self.kinds = kinds
        self.values = values
        self.items = items
        self._tokens = None                         # see `tokens`
        self._token_ids: dict[str, int] = {}
        self.token_texts: list[str] = []            # the tokens made so far, by id

    def tokens(self, codes: np.ndarray) -> np.ndarray:
        """Per code (any shape), the id in `token_texts` of its cell's
        string form as a category; -1 for the missing cell. Each entry's
        token is made once, on the first request that holds its code."""
        if self._tokens is None:
            self._tokens = np.full(len(self.kinds), -2, dtype=np.int64)
            self._tokens[MISSING_CODE] = -1
        ids = self._token_ids
        for code in dict.fromkeys(codes[self._tokens[codes] == -2].tolist()):
            v = float(self.values[code])
            text = (str(self.items[code]) if math.isnan(v)         # a token's text, a date's epoch
                    else str(int(v)) if v.is_integer() else _format_number(v))
            if text not in ids:
                ids[text] = len(self.token_texts)
                self.token_texts.append(text)
            self._tokens[code] = ids[text]
        return self._tokens[codes]


class _CellIndex(dict):
    """Key -> code of its cell, for building a `CellPool`. A token, date or
    missing cell is kept by key, its entry added once; a number is not kept,
    and its code is -1 - its value's position in `numbers` until `pool_of`."""

    def __init__(self):
        super().__init__()
        self.kinds = array("b", [KIND_MISSING])
        self.items: dict[int, str | int] = {}
        self.numbers = array("d")

    def _number(self, value: float) -> int:
        self.numbers.append(value)
        return -len(self.numbers)

    def _add(self, key, kind: int, item) -> int:
        code = MISSING_CODE if kind == KIND_MISSING else len(self.kinds)
        if code:
            self.kinds.append(kind)
            self.items[code] = item
        self[key] = code
        return code

    def pool_of(self, codes: np.ndarray) -> CellPool:
        """The pool, once the numbers' codes in `codes` are made final in
        place. Numbers with equal bits share one code, so 0.0 and -0.0 do
        not; their codes follow the others', in order of first lookup."""
        bits, first, inverse = np.unique(np.frombuffer(self.numbers, dtype=np.int64),
                                         return_index=True, return_inverse=True)
        order = np.argsort(first)                   # the distinct numbers by first lookup
        n = len(self.kinds)
        numbers = codes < 0
        codes[numbers] = n + np.argsort(order)[inverse[-1 - codes[numbers]]]
        values = np.concatenate([np.full(n, math.nan), bits[order].view(np.float64)])
        kinds = np.concatenate([self.kinds, np.full(len(order), KIND_NUMBER, dtype=np.int8)])
        return CellPool(kinds, values, self.items)


class _ParsedCells(_CellIndex):
    """Raw cell text -> code of its `parse_text` entry. A text is parsed on its
    first lookup only, and keyed on the exact unstripped text, so "a" and
    " a" keep their own cells; but once `KEPT_NUMBERS` number texts are
    kept, a new number text is parsed wherever it occurs, and not kept."""

    def __missing__(self, text: str) -> int:
        kind, item = parse_text(text)
        if kind != KIND_NUMBER:
            return self._add(text, kind, item)
        if len(self.numbers) < KEPT_NUMBERS:
            self[text] = -1 - len(self.numbers)     # the code `_number` gives it
        return self._number(item)


@dataclass(frozen=True, eq=False)
class Columns:
    """Records of a sequence of customers, stored column-wise.

    Customer `i` owns rows `offsets[i]:offsets[i + 1]` of `codes`, `dates`
    and `dated`, in record order.
    """

    pool: CellPool
    codes: np.ndarray       # [n_records, n_features] int32 codes into `pool`
    offsets: np.ndarray     # [n_customers + 1] int64
    dates: np.ndarray       # [n_records] int64, 0 where undated
    dated: np.ndarray       # [n_records] bool

    @property
    def n_customers(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def lengths(self) -> np.ndarray:
        """Records per customer."""
        return np.diff(self.offsets)

    @cached_property
    def segments(self) -> np.ndarray:
        """Customer index of each record."""
        return np.repeat(np.arange(self.n_customers), self.lengths)

    @classmethod
    def build(cls, pool: CellPool, codes, width: int, lengths, dates, dated=None) -> "Columns":
        """Columns from flat row-major `codes` of `width` features, the
        records per customer and one date per record; `dated` marks the
        records that have one (all of them when None)."""
        try:
            dates = np.asarray(dates, dtype=np.int64)
        except OverflowError:
            raise SchemaError("a record date is outside the 64-bit epoch range") from None
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(pool=pool, codes=np.asarray(codes, dtype=np.int32).reshape(len(dates), width),
                   offsets=offsets, dates=dates,
                   dated=np.full(len(dates), True) if dated is None else np.asarray(dated, bool))

    def take(self, idx) -> "Columns":
        """The customers `idx` (positions), in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        lengths = self.lengths[idx]
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rows = np.repeat(self.offsets[idx] - offsets[:-1], lengths) + np.arange(offsets[-1])
        return Columns(pool=self.pool, codes=self.codes[rows], offsets=offsets,
                       dates=self.dates[rows], dated=self.dated[rows])

    def reordered(self, rows: np.ndarray) -> "Columns":
        """Same customers, records permuted within each customer by `rows`."""
        return replace(self, codes=self.codes[rows], dates=self.dates[rows],
                       dated=self.dated[rows])


class Column:
    """One feature's cells, as codes into a pool."""

    def __init__(self, pool: CellPool, codes: np.ndarray):
        self.pool = pool
        self.codes = codes


class RecordsView(Mapping):
    """Customer -> that customer's records of a `BigTable`, as a one-customer
    `Columns`. It exists for perfbench's `_subset` and for
    `dataclasses.replace`, which hand it back to `BigTable`, and goes when
    `_subset` calls `BigTable.select` (ROADMAP item 1). It holds the table's
    parts, not the table, so that a table is freed as soon as it is dropped."""

    def __init__(self, table: "BigTable"):
        self.customers, self.columns, self.index = table.customers, table.columns, table.index

    def __getitem__(self, customer: str) -> Columns:
        return self.columns.take([self.index[customer]])

    def __iter__(self):
        return iter(self.customers)

    def __len__(self) -> int:
        return len(self.customers)


@dataclass
class BigTable:
    """Customers x features table with per-customer record sequences.

    `records` is a `Columns` instance, or a mapping such as another
    table's `records` gives: each customer's one-customer `Columns`, all of
    one pool. After construction `records` is always a `RecordsView` over
    `columns`, and `index` maps each customer to its position.
    """

    customers: list[str]
    features: list[str]
    records: Mapping[str, Columns] | Columns
    labels: dict[str, dict[str, int]] = field(default_factory=dict)
    has_date_index: bool = False
    columns: Columns = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = {c: i for i, c in enumerate(self.customers)}
        if len(self.index) != len(self.customers):
            raise SchemaError("duplicate customer ids")
        records, width = self.records, len(self.features)
        if isinstance(records, Columns):
            columns = records
        else:
            # for perfbench's `_subset` and `dataclasses.replace`; goes when `_subset`
            # calls `select` (ROADMAP item 1)
            columns = _concatenated(records, self.customers, width)
        self.columns = columns
        self.records = RecordsView(self)
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

    def column(self, feature: str) -> Column:
        """All cells of one feature in customer-then-record order."""
        return Column(self.columns.pool, self.columns.codes[:, self.feature_index(feature)])

    def n_records(self, customer: str) -> int:
        return int(self.columns.lengths[self.index[customer]])

    def select(self, customers) -> Columns:
        """Columns of `customers`, in that order; KeyError names an
        unknown one."""
        customers = list(customers)
        if customers == self.customers:
            return self.columns
        return self.columns.take([self.index[c] for c in customers])


def _concatenated(records: Mapping, customers: list[str], width: int) -> Columns:
    """One `Columns` of `records[c]` for each of `customers`, in order; each
    must be a one-customer `Columns` of `width` features, all of one pool."""
    unknown = set(records) - set(customers)
    if unknown:
        raise SchemaError(f"records of unknown customers: {sorted(unknown)[:3]}")
    parts = [records.get(c) for c in customers]
    pool = parts[0].pool if parts else _CellIndex().pool_of(np.empty(0, np.int32))
    if not all(isinstance(p, Columns) and p.n_customers == 1 and p.pool is pool
               and p.codes.shape[1] == width for p in parts):
        raise SchemaError("records must give each customer a one-customer Columns, "
                          "all of one pool")
    return Columns.build(pool, np.concatenate([p.codes for p in parts] or [[]]), width,
                         [len(p.dates) for p in parts],
                         np.concatenate([p.dates for p in parts] or [[]]),
                         np.concatenate([p.dated for p in parts] or [[]]))


@dataclass(frozen=True)
class TableFormat(Checked):
    """CSV layout options: delimiter, id/date columns, label columns."""

    delimiter: str = field(default=",", metadata={"length": 1})
    id_column: str = "customer_id"
    date_column: str | None = None
    label_columns: tuple[str, ...] = ()


def load_table(path, fmt: TableFormat = TableFormat()) -> BigTable:
    """Read a delimited file with a header row into a BigTable.

    A feature cell's content never fails the load: anything unparseable is
    missing (see `parse_text`). A label cell must be missing or a
    non-negative integer, and a customer's label cells must agree, and a
    date must fit 64 bits, or ParseError names the line. Structural
    problems (duplicate headers, absent id column, ragged rows, malformed
    CSV) raise SchemaError/ParseError. The file is streamed through the CSV
    reader, so a quoted cell may hold line breaks, and a leading byte-order
    mark is dropped. The cells go into the pool's columns, each number
    without a cell object: equal numbers share one entry ("1.5" and " 1.5"
    do, "0.0" and "-0.0" do not), and the other cells one per distinct raw
    text.
    """
    (table,) = read_groups(path, fmt)
    return table


def read_groups(path, fmt: TableFormat = TableFormat(),
                group: int | None = None) -> Iterator[BigTable]:
    """`load_table` of the file, `group` customers at a time: one table,
    with its own cell pool, per run of `group` consecutive customers in
    order of their first rows (the last run may be shorter), each read only
    when asked for. With no `group`, the whole file is one table.

    A customer's rows may be interleaved with others' within its group;
    a row of a customer of an earlier group raises `InterleavedTableError`
    once the group holding it is complete. Customers are told apart there
    by 64-bit hashes of their ids, so a hash collision raises it too.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=fmt.delimiter)
            try:
                yield from _read_table(path, reader, fmt, group)
            except csv.Error as e:
                raise ParseError(f"{path}:{reader.line_num}: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise TableIOError(f"cannot read {path}: {e}") from e


class _Group:
    """The rows of one group of customers, as `_read_table` reads them."""

    def __init__(self, label_columns):
        self.customer_of: dict[str, int] = {}   # id -> position, first-seen order
        self.owners = array("q")                # customer position of each record
        self.codes = array("i")                 # feature codes, row-major
        self.dates = array("q")                 # each record's date, 0 if it has none
        self.dated = array("b")                 # whether it has one
        self.labels: dict[str, dict[str, int]] = {col: {} for col in label_columns}
        self.parsed = _ParsedCells()

    def table(self, features: list[str], has_date_index: bool) -> BigTable:
        owners = np.frombuffer(self.owners, dtype=np.int64)
        codes = np.frombuffer(self.codes, dtype=np.intc)
        columns = Columns.build(self.parsed.pool_of(codes), codes, len(features),
                                np.bincount(owners, minlength=len(self.customer_of)),
                                self.dates, self.dated)
        if (owners[1:] < owners[:-1]).any():
            # a customer's records are interleaved with others': group them, in file order
            columns = columns.reordered(np.argsort(owners, kind="stable"))
        labels = {task: vals for task, vals in self.labels.items() if vals}
        return BigTable(customers=list(self.customer_of), features=features, records=columns,
                        labels=labels, has_date_index=has_date_index)


def _read_table(path: Path, reader, fmt: TableFormat, group: int | None) -> Iterator[BigTable]:
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

    label_of = cache(_label)                # few distinct label texts: each parsed once
    date_of: dict[str | None, int | None] = {None: None}     # raw date text -> its epoch
    # the sorted hashes of the yielded groups' ids, over a sentinel that
    # stops each lookup inside the array
    seen = np.array([np.iinfo(np.int64).max])
    part = _Group(fmt.label_columns)

    def completed() -> BigTable:
        nonlocal seen
        if group is not None:
            ids = np.fromiter(map(hash, part.customer_of), np.int64, len(part.customer_of))
            at = np.searchsorted(seen, ids)
            again = np.flatnonzero(seen[at] == ids)
            if len(again):
                raise InterleavedTableError(
                    f"{path}: customer {list(part.customer_of)[again[0]]!r} has rows both "
                    f"before and after another group of customers")
            order = np.argsort(ids)
            seen = np.insert(seen, at[order], ids[order])
        return part.table(features, fmt.date_column is not None)

    for raw in reader:
        if not raw:
            continue
        if len(raw) != len(header):
            raise ParseError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                             f"got {len(raw)}")
        cust = raw[id_pos].strip()
        if not cust:
            raise ParseError(f"{path}:{reader.line_num}: empty customer id")
        owner = part.customer_of.get(cust)
        if owner is None:
            if len(part.customer_of) == group:
                yield completed()
                part = _Group(fmt.label_columns)
            owner = part.customer_of[cust] = len(part.customer_of)
        part.owners.append(owner)
        parsed = part.parsed
        part.codes.fromlist([parsed[raw[i]] for i in feature_pos])
        text = None if date_pos is None else raw[date_pos]
        if text in date_of:
            date = date_of[text]
        else:
            date = _record_date(*parse_text(text), path, reader.line_num)
            if len(date_of) <= KEPT_DATES:
                date_of[text] = date
        part.dates.append(date or 0)
        part.dated.append(date is not None)
        for col, pos in label_pos.items():
            try:
                label = label_of(raw[pos])
            except ValueError:
                raise ParseError(f"{path}:{reader.line_num}: label column {col!r} holds "
                                 f"{raw[pos]!r}, not a non-negative integer") from None
            if label is not None and part.labels[col].setdefault(cust, label) != label:
                raise ParseError(f"{path}:{reader.line_num}: label column {col!r} holds "
                                 f"{raw[pos]!r}, but customer {cust!r} is labelled "
                                 f"{part.labels[col][cust]}")
    yield completed()


def _label(text: str) -> int | None:
    """A label cell's class, None if it is missing; ValueError if it is
    neither missing nor a non-negative integer."""
    kind, value = parse_text(text)
    if kind == KIND_MISSING:
        return None
    if kind != KIND_NUMBER or value < 0 or not value.is_integer():
        raise ValueError(text)
    return int(value)


def _record_date(kind: int, item, path: Path, line: int) -> int | None:
    if kind != KIND_DATE and kind != KIND_NUMBER:
        return None
    date = int(item)                # a date's epoch, or a number's integer part
    if not -2 ** 63 <= date < 2 ** 63:
        raise ParseError(f"{path}:{line}: date {date} is outside the 64-bit epoch range")
    return date


@contextmanager
def replacing(path) -> Iterator:
    """A text file open for writing beside `path` under a temporary name,
    renamed to `path` when the block ends and removed if it raises: a write
    that fails leaves no partial file."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def save_table(table: BigTable, path, fmt: TableFormat = TableFormat()) -> None:
    """Write a BigTable back to CSV in the `load_table` layout.

    A customer is known to that layout only through its rows, so a customer
    with no records raises `TableIOError` before anything is written."""
    cols = table.columns
    empty = np.flatnonzero(cols.lengths == 0)
    if len(empty):
        raise TableIOError(f"customer {table.customers[empty[0]]!r} has no records; "
                           f"a saved table cannot hold it")
    header = [fmt.id_column]
    if fmt.date_column is not None:
        header.append(fmt.date_column)
    header.extend(table.features)
    header.extend(fmt.label_columns)
    pool = cols.pool
    texts = ["" if kind == KIND_MISSING else _format_number(v) if kind == KIND_NUMBER
             else pool.items[code] if kind == KIND_TOKEN else _format_date(pool.items[code])
             for code, (kind, v) in enumerate(zip(pool.kinds.tolist(), pool.values.tolist()))]
    date_texts: dict[int, str] = {}
    with replacing(path) as fh:
        plain = csv.writer(fh, delimiter=fmt.delimiter, lineterminator="\n")
        # `plain` quotes a field holding "\n" but not one holding only "\r"
        quoted = csv.writer(fh, delimiter=fmt.delimiter, lineterminator="\n",
                            quoting=csv.QUOTE_ALL)

        def write(row):
            (quoted if "\r" in "".join(row) else plain).writerow(row)

        write(header)
        records = zip(cols.segments.tolist(), cols.codes.tolist(), cols.dates.tolist(),
                      cols.dated.tolist())
        for i, codes, date, dated in records:
            cust = table.customers[i]
            out = [cust]
            if fmt.date_column is not None:
                if not dated:
                    out.append("")
                else:
                    if date not in date_texts:
                        date_texts[date] = _format_date(date)
                    out.append(date_texts[date])
            out.extend([texts[c] for c in codes])
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
    cols = table.columns
    ordered = cols.reordered(np.lexsort((cols.dates, cols.dated, cols.segments)))
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def compute_stats(table: BigTable, schema) -> TableStats:
    """Data-characteristics statistics.

    The missing ratios are customer-level means averaged uniformly over
    customers, then over features; the structural ratio counts
    customer-feature pairs whose every record is missing.
    """
    cols = table.columns
    counts = cols.lengths
    active = counts > 0
    if not active.any() or not table.features:
        raise EmptyTableError("no records to profile")

    n_feat = table.n_features
    n_active = int(active.sum())
    counts = counts[active]
    # per active customer, whose records are the rows from its offset to the next one's;
    # a feature at a time, as `reduceat` copies its whole input to the sum's dtype
    starts = cols.offsets[:-1][active]
    missing = np.stack([np.add.reduceat(cols.codes[:, j] == MISSING_CODE, starts, dtype=np.int64)
                        for j in range(n_feat)], axis=1)
    # customer-level ratios, summed over customers in table order
    per_feature_missing = np.cumsum(missing / counts[:, None], axis=0)[-1]
    per_feature_missing = [m / n_active for m in per_feature_missing.tolist()]
    feature_missing_ratio = sum(per_feature_missing) / n_feat
    structural_pairs = int((missing == counts[:, None]).sum())
    structural_missing_ratio = structural_pairs / (n_active * n_feat)

    label_ratio: dict[str, float | None] = {}
    for task, labels in table.labels.items():
        pos = sum(1 for v in labels.values() if v == 1)
        neg = sum(1 for v in labels.values() if v == 0)
        label_ratio[task] = (pos / neg) if neg else None

    records_per_customer = {
        "min": float(counts.min()),
        "mean": int(counts.sum()) / n_active,
        "max": float(counts.max()),
    }
    return TableStats(label_ratio=label_ratio,
                      feature_missing_ratio=feature_missing_ratio,
                      structural_missing_ratio=structural_missing_ratio,
                      kind_ratios=schema.kind_ratios(),
                      records_per_customer=records_per_customer)
