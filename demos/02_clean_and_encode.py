"""From raw cells to model inputs: tokenization, normalization, imputation.

Shows the cleaning conventions on one customer: categorical values become
integer ids with reserved slots for missing (0) and out-of-vocabulary (1),
numericals are min-max scaled into [0, 1] with missing imputed to zero, and
the four branch arrays the encoder consumes are printed side by side.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from tabrep.encode import BranchLayout, augmented_summary, encode_customer
from tabrep.prep import build_schema, uniform_normalize
from tabrep.table import TableFormat, load_table

# one customer's records per entry, oldest first; "" is a missing cell
rows_by_customer = {
    "ada": [("berlin", 52.0, "card", 120.75),
            ("berlin", 52.0, "cash", ""),
            ("berlin", "", "card", 310.20)],
    "bob": [("tokyo", 34.0, "wire", 95.10),
            ("tokyo", 34.0, "card", 180.40)],
    "eve": [("lima", 47.0, "", 240.00),
            ("lima", 47.0, "cash", 60.80),
            ("lima", 47.0, "cash", 400.25)],
}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "customers.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer_id", "date", "city", "age", "channel", "amount"])
        for cid, rows in rows_by_customer.items():
            writer.writerows([cid, f"2024-01-{t + 1:02d}", *vals] for t, vals in enumerate(rows))
    table = load_table(path, TableFormat(date_column="date"))

schema = build_schema(table)
print("=== recognized kinds ===")
for f in schema.feature_order:
    print(f"  {f:>8}: {schema.kinds[f].value}")

print("\n=== vocabulary for 'channel' (0 = missing, 1 = out of vocabulary) ===")
vocab = schema.vocabularies["channel"]
for token, idx in sorted(vocab.token_to_id.items(), key=lambda kv: kv[1]):
    print(f"  id {idx}: {token!r}")

lo, hi = schema.numeric_stats["amount"]
print(f"\n=== normalization for 'amount' over [{lo}, {hi}] ===")
for v in (lo, 180.0, hi, 999.0):
    print(f"  {v:7.1f} -> {uniform_normalize(v, (lo, hi)):.3f}")
print("  missing -> 0.0 (imputed after scaling)")

layout = BranchLayout.from_schema(schema, n_s=4)
print("\n=== encoded branches for customer 'ada' ===")
batch = encode_customer(table, "ada", schema, layout)     # a one-row Batch
print(f"  static categorical ids {batch.cs_ids[0]}   (latest non-missing value)")
print(f"  static numerical vals  {np.round(batch.ns_vals[0], 3)}")
print(f"  dynamic categorical ids per record:\n{batch.cd_ids[0]}")
print(f"  dynamic numerical vals per record:\n{np.round(batch.nd_vals[0], 3)}")
print(f"  valid record slots     {batch.seq_valid[0]}")
print(f"  branch presence        {batch.presence[0]}")

print("\n=== model-free summary row (reconstruction target source) ===")
print(f"  {np.round(augmented_summary(table, 'ada', schema), 3)}")
