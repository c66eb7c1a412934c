"""The ring oracle: a memory bank's entries in age order, for the tests."""

import numpy as np


def bank_contents(bank):
    """Entries of ``bank`` oldest to newest, as (embeddings, labels) copies.

    Reads the ring storage and cursor directly, so it shares no code with
    ``MemoryBank.with_batch()``, which reads the occupied slots in storage
    order.
    """
    rows, labels = bank._rows[bank._head :], bank._labs[bank._head :]
    size = len(bank)
    if size < bank.capacity:
        return rows[:size].copy(), labels[:size].copy()
    idx = (np.arange(bank.capacity) + bank._cursor) % bank.capacity
    return rows[idx], labels[idx]
