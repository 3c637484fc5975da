"""Profile a mixed customer table: recognize feature kinds and dynamics.

Writes a small CSV whose columns mix numbers, tokens and missing cells to a
temporary directory, loads it, then walks the two recognition stages:
numerical-vs-categorical first, then static-vs-dynamic from the per-customer
change statistics.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from tabrep.prep import (RecognizerConfig, build_schema, dynamics_matrix,
                         nc_recognize, sd_recognize)
from tabrep.table import TableFormat, compute_stats, load_table


def make_table(directory):
    """Twelve customers with four monthly records each, written to a CSV
    in `directory` and loaded from it."""
    rng = np.random.default_rng(7)
    lines = [["customer_id", "date", "city", "age", "balance", "plan"]]
    for u in range(12):
        city = rng.choice(["north", "south", "east"])
        age = float(rng.integers(20, 70))
        balance = float(rng.uniform(100, 900))
        for t in range(4):
            balance += float(rng.normal(0, 80))
            plan = rng.choice(["basic", "plus", "max"])
            amount = "" if rng.random() < 0.2 else round(balance, 2)     # "" is missing
            lines.append([f"cust{u:02d}", f"2024-{t + 1:02d}-01", city, age, amount, plan])
    path = Path(directory) / "customers.csv"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    return load_table(path, TableFormat(date_column="date"))


with tempfile.TemporaryDirectory() as tmp:
    table = make_table(tmp)

config = RecognizerConfig()

print("=== step 1: numerical vs categorical ===")
kinds = nc_recognize(table, config)
for feature, kind in kinds.items():
    print(f"  {feature:>8}: {kind}")

print("\n=== step 2: change statistics per customer ===")
matrix = dynamics_matrix(table, kinds, config)
print(f"  rows are customers, columns are {matrix.features}")
with np.printoptions(precision=2, suppress=True):
    print(matrix.values[:5])

print("\n=== step 3: static vs dynamic ===")
dynamic = sd_recognize(matrix, kinds, config)
for feature, flag in dynamic.items():
    print(f"  {feature:>8}: {'dynamic' if flag else 'static'}")

print("\n=== full schema and table statistics ===")
schema = build_schema(table, config)
for feature in schema.feature_order:
    print(f"  {feature:>8}: {schema.kinds[feature].value}")
stats = compute_stats(table, schema)
print(f"  missing ratio    {stats.feature_missing_ratio:.3f}")
print(f"  structural ratio {stats.structural_missing_ratio:.3f}")
print(f"  kind mixture     {stats.kind_ratios}")
