"""The benchmark's set-up must keep building the tables it did.

`perfbench/workloads.py` fits the `score` set-up checkpoint on a subset of
the table that `_subset` builds from `table.records`, one one-customer
`Columns` per customer, handed back to `BigTable`. `dataclasses.replace`
hands `records` back the same way. These check that both give the columns
that `BigTable.select` gives, bit for bit, and that a mapping which is not
one table's records is refused.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tabrep import BigTable, SynthConfig, synth_generate
from tabrep.errors import SchemaError

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _same_columns(a, b) -> bool:
    return a.pool is b.pool and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.codes, b.codes), (a.offsets, b.offsets), (a.dates, b.dates),
                     (a.dated, b.dated)))


@pytest.fixture(scope="module")
def table():
    """A synthetic table whose every third record is undated."""
    synth = synth_generate(SynthConfig(n_customers=40, records_min=2, records_max=9, seed=5))
    cols = synth.columns
    dated = np.arange(len(cols.dated)) % 3 > 0
    return BigTable(customers=synth.customers, features=synth.features,
                    records=dataclasses.replace(cols, dates=np.where(dated, cols.dates, 0),
                                                dated=dated),
                    labels=synth.labels, has_date_index=True)


def test_subset_gives_the_columns_of_select(table):
    customers = table.customers[3:30:2][::-1]
    subset = _workloads()._subset(table, customers)
    assert subset.customers == customers and subset.features == table.features
    assert _same_columns(subset.columns, table.select(customers))
    assert subset.labels == {t: {c: got[c] for c in customers if c in got}
                             for t, got in table.labels.items()}


def test_replace_keeps_the_columns(table):
    labels = {"other": {table.customers[0]: 1}}
    again = dataclasses.replace(table, labels=labels)
    assert again.labels == labels and _same_columns(again.columns, table.columns)


def test_records_of_two_tables_are_refused(table):
    other = synth_generate(SynthConfig(n_customers=4, records_min=2, records_max=9, seed=6))
    records = {c: table.records[c] for c in table.customers[:2]}
    records["c00002"] = other.records[other.customers[2]]
    with pytest.raises(SchemaError):
        BigTable(customers=list(records), features=table.features, records=records)


def test_records_that_no_table_gives_are_refused(table):
    a, b = table.customers[:2]
    for records in ({a: table.records[a], b: [table.records[b]]},      # not a Columns
                    {a: table.records[a], b: table.select([a, b])},     # two customers
                    {a: table.records[a]},                              # none for `b`
                    {a: table.records[a], b: table.records[b], "z": table.records[b]}):
        with pytest.raises(SchemaError):
            BigTable(customers=[a, b], features=table.features, records=records)
