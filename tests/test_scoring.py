"""Scoring encodes and forwards one evaluation chunk at a time.

`represent` and `predict_proba` encode each chunk's customers on their own.
That must give, bit for bit, the rows a whole-table encoding gives, and the
memory scoring needs beyond its result must not grow with the number of
customers.
"""

import numpy as np
import pytest

from oracles import same_encoding, traced_peak
from tabrep.encode import encode_table
from tabrep.eval import SynthConfig, synth_generate
from tabrep.model import EVAL_BATCH, CustomerEncoder, ModelConfig, eval_chunks
from tabrep.prep import build_schema

MODEL = ModelConfig(embed_dim=8, n_s=6, heads=2, t_max=2, rep_width=8, fusion_hidden=16,
                    head_hidden=8, recon_count=1, recon_dim=4, dropout=0.0)


@pytest.mark.parametrize("n,sizes", [
    (0, []), (1, [1]), (2, [2]), (EVAL_BATCH, [EVAL_BATCH]),
    (EVAL_BATCH + 1, [EVAL_BATCH - 1, 2]), (EVAL_BATCH + 2, [EVAL_BATCH, 2]),
    (2 * EVAL_BATCH + 1, [EVAL_BATCH, EVAL_BATCH - 1, 2]),
    (3 * EVAL_BATCH, [EVAL_BATCH] * 3)])
def test_eval_chunks_cover_the_rows_with_no_lone_last_row(n, sizes):
    chunks = list(eval_chunks(n))
    assert [c.stop - c.start for c in chunks] == sizes
    assert [c.start for c in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]


@pytest.fixture(scope="module")
def scored():
    table = synth_generate(SynthConfig(n_customers=2 * EVAL_BATCH + 1, records_max=12, seed=8))
    schema = build_schema(table)
    return CustomerEncoder(schema, MODEL, tasks={"churn": 2}, seed=4), table


def test_each_chunk_encodes_as_its_rows_of_the_whole_table(scored):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)
    names = list(table.customers)
    for rows in eval_chunks(len(names)):
        chunk = encode_table(table, model.schema, model.layout, names[rows])
        assert chunk.customers == whole[rows].customers
        assert same_encoding(chunk, whole[rows])


@pytest.mark.parametrize("sizes", [
    [], [0], [1], [EVAL_BATCH + 1], [1, EVAL_BATCH, 0, 3],
    [EVAL_BATCH - 1, 2, EVAL_BATCH + 1, 1], [2 * EVAL_BATCH + 1]])
def test_forward_stream_forwards_the_chunks_of_the_concatenated_rows(scored, sizes):
    model, table = scored
    whole = encode_table(table, model.schema, model.layout)[:sum(sizes)]
    starts = np.cumsum([0] + sizes)
    got = list(model.forward_stream(whole[lo:hi] for lo, hi in zip(starts, starts[1:])))
    want = list(model.forward_chunks(whole))
    assert [out.rep.shape for out in got] == [out.rep.shape for out in want]
    assert all(a.rep.data.tobytes() == b.rep.data.tobytes() for a, b in zip(got, want))


def test_represent_of_shuffled_customers_is_the_reordered_whole_table(scored):
    model, table = scored
    names, reps = model.represent(table)
    whole = np.concatenate([out.rep.data for out in model.forward_chunks(
        model.encode_table(table))])
    assert reps.tobytes() == whole.tobytes()
    shuffled = [names[i] for i in np.random.default_rng(3).permutation(len(names))]
    got_names, got = model.represent(table, shuffled)
    position = {c: i for i, c in enumerate(names)}
    assert got_names == shuffled
    assert got.tobytes() == reps[[position[c] for c in shuffled]].tobytes()


# What `represent` holds at its peak besides its result: one chunk's inputs
# and activations (about 1.7 MiB for MODEL) and the customer name lists, which
# grow by 8 bytes a customer. Encoding the whole table first, with one view
# per customer and array, peaked 1.7 MiB higher at 8 x EVAL_BATCH customers
# than at 2 x EVAL_BATCH; chunk by chunk the two peaks were 15 KiB apart.
PEAK_MARGIN = 256 * 1024


def test_scoring_memory_does_not_grow_with_the_customer_count():
    table = synth_generate(SynthConfig(n_customers=8 * EVAL_BATCH, records_max=12, seed=9))
    model = CustomerEncoder(build_schema(table), MODEL, seed=4)
    few = table.customers[:2 * EVAL_BATCH]
    model.represent(table)                  # lazily built table state, before measuring
    peaks = []
    for customers in (few, None):
        (_, reps), peak = traced_peak(lambda: model.represent(table, customers))
        peaks.append(peak - reps.nbytes)
        del reps
    assert peaks[1] - peaks[0] < PEAK_MARGIN, peaks
