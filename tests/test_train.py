import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import copydet.train
from copydet import (
    TIERS,
    AugmentTier,
    DimMismatch,
    EmptyBatch,
    Encoder,
    FormatError,
    LossConfig,
    MemoryBank,
    NonFiniteValue,
    ShapeMismatch,
    StageConfig,
    WorldConfig,
    augment_batch,
    contrastive_loss,
    default_stage_schedule,
    encoder_loss_and_grads,
    gen_world,
    run_stage,
    sgd_momentum_step,
    substream,
)

from oracles import bank_contents, central_differences, loss_pairs_oracle, reference_contrastive_loss, unit_rows


# Batches a bank of dim 3 cannot take: 0-d or 2-d labels, and rows wider or
# narrower than the bank's.
BAD_LABELS = [(np.ones((1, 3)), np.array(0)), (np.ones((2, 3)), np.array([[0], [1]]))]
BAD_BATCHES = BAD_LABELS + [(np.ones((2, 4)), np.array([0, 1])), (np.ones((2, 2)), np.array([0, 1]))]


def shape_message(emb, labels):
    return "^" + re.escape(f"embeddings {emb.shape} vs labels {labels.shape} for a bank of dim 3") + "$"


def pair_at_distance(d):
    """Two unit 2-d vectors at Euclidean distance d (0 < d < 2)."""
    cos = 1.0 - d * d / 2.0
    return np.array([[1.0, 0.0], [cos, np.sqrt(1.0 - cos * cos)]])


def loss_value(encoder, x, labels, bank, cfg):
    loss, _ = contrastive_loss(encoder.forward(x), labels, bank, cfg)
    return loss


def fd_param_grads(encoder, x, labels, bank, cfg):
    """Central finite differences of the loss over every encoder parameter."""
    return central_differences(lambda: loss_value(encoder, x, labels, bank, cfg), encoder.params(), 1e-5)


def assert_grads_close(analytic, fd, rtol=1e-4, floor=1e-8):
    for a, f in zip(analytic, fd):
        mask = np.abs(a) > floor
        if not np.any(mask):
            continue
        rel = np.abs(a - f) / np.maximum(np.abs(a), np.abs(f))
        assert rel[mask].max() < rtol, f"worst relative error {rel[mask].max():.3e}"


def dyadic_rows(rng, count, dim):
    """Rows on a 1/8 grid: norms, dot products and so the squared distance
    of duplicate rows come out exact, 0, in any summation order."""
    return rng.integers(-8, 9, size=(count, dim)) / 8.0


# Bank state: (capacity, rows pushed before the loss call); capacity 0 is no bank.
_BANK_STATES = {
    "none": (0, 0),
    "empty": (12, 0),
    "partial": (12, 6),
    "wrapped": (12, 27),
    "wrapped_20000": (20000, 40003),
}


def fused_loss_cases(bank_state, duplicates):
    """25 seeded (embeddings, labels, bank, cfg) loss calls of one kind."""
    rng = np.random.default_rng(list(_BANK_STATES).index(bank_state))
    dim = 5
    for trial in range(25):
        b = 1 if trial % 5 == 0 else int(rng.integers(2, 10))
        draw = unit_rows if duplicates == "none" else dyadic_rows
        emb = draw(rng, b, dim)
        if trial % 3 == 1:
            emb = emb * (rng.integers(2, 25, size=(b, 1)) / 8.0)  # off the sphere
        labels = rng.integers(0, 4, size=b)
        capacity, fill = _BANK_STATES[bank_state]
        bank = MemoryBank(capacity, dim)
        for chunk in np.array_split(np.arange(fill), 3):
            if len(chunk):
                bank.push(draw(rng, len(chunk), dim), rng.integers(0, 4, size=len(chunk)))
        if duplicates in ("same_label", "other_label") and b > 1:
            emb[1] = emb[0]
            labels[1] = labels[0] + (duplicates == "other_label")
        if duplicates == "bank_row" and len(bank):
            bank_rows, bank_labels = bank_contents(bank)
            emb[0] = bank_rows[-1]
            labels[0] = bank_labels[-1] + trial % 2
        cfg = LossConfig()
        if trial % 2:
            cfg = LossConfig(pos_margin=float(rng.uniform(0.0, 0.4)),
                             neg_margin=float(rng.uniform(0.5, 2.0)))
        yield emb, labels, bank, cfg


def every_loss_case(test):
    """Parametrize ``test`` over each bank state and kind of duplicate row."""
    test = pytest.mark.parametrize("duplicates", ["none", "same_label", "other_label", "bank_row"])(test)
    return pytest.mark.parametrize("bank_state", list(_BANK_STATES))(test)


class TestFusedLossMatchesReference:
    @every_loss_case
    def test_random_cases_within_1e_12(self, bank_state, duplicates):
        for emb, labels, bank, cfg in fused_loss_cases(bank_state, duplicates):
            loss, grad = contrastive_loss(emb, labels, bank, cfg)
            ref_loss, ref_grad = reference_contrastive_loss(emb, labels, bank, cfg)
            assert abs(loss - ref_loss) <= 1e-12
            assert np.abs(grad - ref_grad).max(initial=0.0) <= 1e-12


class TestLossPairs:
    """The pair stage against the full distance matrix, on the fused loss's cases."""

    @every_loss_case
    def test_candidates_match_the_full_matrix(self, bank_state, duplicates):
        for emb, labels, bank, cfg in fused_loss_cases(bank_state, duplicates):
            X, rows, cols, dist, positive = copydet.train._loss_pairs(emb, labels, bank, cfg.neg_margin)
            positives, negatives, full = loss_pairs_oracle(emb, labels, bank, cfg.neg_margin)
            n = X.shape[0]
            assert n == full.shape[1] == len(emb) + len(bank)
            np.testing.assert_array_equal(X[: len(emb)], emb)
            flat = rows * n + cols
            np.testing.assert_array_equal(flat[positive], positives)
            candidates = flat[~positive]
            assert np.isin(negatives, candidates).all()
            assert not np.isin(candidates, positives).any()
            assert (candidates // n != candidates % n).all()
            assert np.abs(dist - full.reshape(-1)[flat]).max(initial=0.0) <= 1e-12


def assert_matches_reference(emb, labels, bank, cfg):
    loss, grad = contrastive_loss(emb, labels, bank, cfg)
    ref_loss, ref_grad = reference_contrastive_loss(emb, labels, bank, cfg)
    assert abs(loss - ref_loss) <= 1e-12
    assert np.abs(grad - ref_grad).max(initial=0.0) <= 1e-12
    return loss, grad


class TestLossEdgeCases:
    """Cases at the edges of the candidate selection, against the oracle."""

    def test_no_active_pair(self):
        # Distinct labels on +-e_k: every distance is sqrt(2) or 2 > 1.
        eye = np.eye(6)
        bank = MemoryBank(8, 6)
        bank.push(-eye, np.arange(10, 16))
        loss, grad = assert_matches_reference(eye, np.arange(6), bank, LossConfig())
        assert loss == 0.0 and not grad.any()

    def test_every_pair_active(self):
        # Unit rows are at most 2 apart, inside a negative margin of 3, and
        # same-label rows are never coincident.
        rng = np.random.default_rng(12)
        bank = MemoryBank(40, 5)
        bank.push(unit_rows(rng, 50, 5), rng.integers(0, 6, size=50))
        emb, labels = unit_rows(rng, 9, 5), rng.integers(0, 6, size=9)
        cfg = LossConfig(pos_margin=0.0, neg_margin=3.0)
        loss, grad = assert_matches_reference(emb, labels, bank, cfg)
        bank_e, bank_labels = bank_contents(bank)
        d_batch = np.linalg.norm(emb[:, None] - emb[None], axis=2)
        d_bank = np.linalg.norm(emb[:, None] - bank_e[None], axis=2)
        assert np.all(d_bank[labels[:, None] == bank_labels] > 0.0)
        assert np.all(d_batch[np.triu(labels[:, None] == labels, 1)] > 0.0)
        # Every term is active, so the loss has its closed form.
        terms = np.where(labels[:, None] == bank_labels, d_bank, 3.0 - d_bank).sum()
        iu = np.triu_indices(9, 1)
        same = labels[:, None] == labels
        terms += np.where(same, d_batch, 3.0 - d_batch)[iu].sum()
        np.testing.assert_allclose(loss, terms / (36 + 9 * 40), rtol=1e-12)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_negative_one_ulp_from_the_margin(self, side):
        # Unit rows on a dyadic grid at distance exactly 1 in any summation
        # order; the margin sits one ulp below, on, or one ulp above it.
        emb = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, -0.5]])
        margin = {-1: np.nextafter(1.0, 0.0), 0: 1.0, 1: np.nextafter(1.0, 2.0)}[side]
        cfg = LossConfig(neg_margin=float(margin))
        for bank in (MemoryBank(0, 4), MemoryBank(4, 4)):
            batch = emb
            if bank.capacity:
                bank.push(emb[1:], np.array([2]))
                batch = emb[:1]
            loss, grad = assert_matches_reference(batch, np.array([1, 2])[: len(batch)], bank, cfg)
            assert (loss > 0.0) == (side == 1)
            assert grad.any() == (side == 1)

    def test_negative_inside_the_margin_only_after_rounding(self):
        # Both squared norms are exactly 1 and -2 e.x = g is exact, yet g is
        # not below neg_margin^2 - 2: the pair falls inside the margin only
        # once (g + 1) + 1 is rounded. The candidate bound's slack keeps it.
        emb = np.array([[1.0, 0.0], [0.900066216039368, 0.4357531488636356]])
        cfg = LossConfig(neg_margin=0.44706550741615503)
        assert np.all(np.einsum("ij,ij->i", emb, emb) == 1.0)
        assert -2.0 * emb[1, 0] >= (cfg.neg_margin**2 - 1.0) - 1.0
        loss, grad = assert_matches_reference(emb, np.array([1, 2]), MemoryBank(0, 2), cfg)
        assert loss > 0.0 and grad.any()

    def test_positive_only_bank_column(self):
        # The bank entry shares row 0's label and is sqrt(2) from every
        # batch row: one active positive, and no active negative in its column.
        eye = np.eye(4)
        bank = MemoryBank(4, 4)
        bank.push(eye[2:3], np.array([7]))
        loss, grad = assert_matches_reference(eye[:2], np.array([7, 8]), bank, LossConfig())
        np.testing.assert_allclose(loss, np.sqrt(2.0) / 3.0, rtol=1e-12)
        assert grad[0].any() and not grad[1].any()

    def test_identical_gaussian_rows_add_exactly_zero(self):
        # Continuous rows, off the 1/8 grid: the expanded squared distance of
        # two bitwise-identical rows is round-off that can exceed _GRAD_EPS,
        # which makes the pair live with weight ~1/d. It must still add
        # exactly zero to both rows' gradients. Check: swap the twin for a
        # row far from everything under a label of its own. The counted
        # pairs and every other live pair of the row stay the same, so its
        # gradient must not change by a single bit.
        rng = np.random.default_rng(33)
        cfg = LossConfig(neg_margin=4.0)
        for _ in range(10):
            emb = rng.standard_normal((10, 8))
            labels = np.arange(10)
            emb[1], labels[1] = emb[0], labels[0]
            bank = MemoryBank(32, 8)
            bank.push(rng.standard_normal((20, 8)), rng.integers(0, 10, size=20))
            _, grad = contrastive_loss(emb, labels, bank, cfg)
            far = 50.0 * unit_rows(rng, 1, 8)[0]
            for twin, row in ((1, 0), (0, 1)):
                alone, alone_labels = emb.copy(), labels.copy()
                alone[twin], alone_labels[twin] = far, 99
                _, ref = contrastive_loss(alone, alone_labels, bank, cfg)
                assert ref[row].any()
                np.testing.assert_array_equal(grad[row], ref[row])

    def test_non_finite_row_raises(self):
        # A NaN distance would fail every threshold and drop out silently.
        emb = np.array([[1.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(NonFiniteValue, match="non-finite embedding"):
            contrastive_loss(emb, np.array([1, 2]), MemoryBank(0, 2), LossConfig())

    def test_labels_spread_to_a_million(self):
        # A label range far above 6 (b + m) is where numpy's default isin
        # switches from its lookup table to a sort of every label.
        rng = np.random.default_rng(10**6)
        bank = MemoryBank(2048, 16)
        bank_labels = rng.integers(0, 10**6, size=3000)
        for chunk in np.array_split(np.arange(3000), 3):
            bank.push(unit_rows(rng, len(chunk), 16), bank_labels[chunk])
        items = np.concatenate((rng.integers(0, 10**6, size=24), bank_labels[-8:]))
        emb, labels = unit_rows(rng, 64, 16), np.tile(items, 2)
        loss, grad = assert_matches_reference(emb, labels, bank, LossConfig(neg_margin=1.2))
        assert np.ptp(labels) > 6 * (64 + len(bank))
        assert loss > 0.0 and grad.any()

    def test_labels_spanning_2_62_and_negative(self):
        # The same-label table is sized by the batch: a label range of 2**62
        # would ask for exabytes. Labels k and k + 2**62 share their low bits,
        # so the table keeps columns the exact compare must drop.
        rng = np.random.default_rng(62)
        base = rng.integers(-50, 50, size=12)
        pool = np.concatenate((base, base + 2**62, -base - 2**61))
        bank = MemoryBank(64, 8)
        bank.push(unit_rows(rng, 48, 8), rng.choice(pool, size=48))
        items = rng.choice(pool, size=10, replace=False)
        emb, labels = unit_rows(rng, 20, 8), np.tile(items, 2)
        loss, grad = assert_matches_reference(emb, labels, bank, LossConfig(neg_margin=1.2))
        assert labels.min() < 0 and np.ptp(np.concatenate((labels, pool))) >= 2**62
        assert loss > 0.0 and grad.any()
        assert_matches_reference(np.eye(4)[:2], np.array([0, 2**62]), MemoryBank(0, 4), LossConfig())

    def test_empty_bank_is_no_bank(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            emb = unit_rows(rng, 1 + trial, 4)
            labels = rng.integers(0, 3, size=1 + trial)
            empty = MemoryBank(0, 4)
            empty.push(unit_rows(rng, 5, 4), np.arange(5))
            loss, grad = contrastive_loss(emb, labels, empty, LossConfig())
            fresh_loss, fresh_grad = contrastive_loss(emb, labels, MemoryBank(0, 4), LossConfig())
            assert loss == fresh_loss
            np.testing.assert_array_equal(grad, fresh_grad)

    def test_full_bank_of_20000(self):
        rng = np.random.default_rng(20000)
        bank = MemoryBank(20000, 16)
        for _ in range(3):
            bank.push(unit_rows(rng, 8000, 16), rng.integers(0, 4000, size=8000))
        emb = unit_rows(rng, 64, 16)
        labels = np.tile(rng.integers(0, 4000, size=32), 2)
        loss, grad = assert_matches_reference(emb, labels, bank, LossConfig())
        assert len(bank) == 20000 and loss > 0.0 and grad.any()


class TestContrastiveLoss:
    def test_single_positive_pair(self):
        emb = pair_at_distance(0.5)
        loss, _ = contrastive_loss(emb, np.array([1, 1]), MemoryBank(0, 2), LossConfig())
        np.testing.assert_allclose(loss, 0.5, atol=1e-12)

    def test_inactive_negative_pair(self):
        emb = pair_at_distance(1.2)
        loss, grad = contrastive_loss(emb, np.array([1, 2]), MemoryBank(0, 2), LossConfig())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(emb))

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            contrastive_loss(np.empty((0, 4)), np.empty(0), MemoryBank(0, 4), LossConfig())

    @pytest.mark.parametrize("emb, labels", BAD_LABELS + BAD_BATCHES[2:3])
    def test_bad_label_shape_without_bank_raises(self, emb, labels):
        with pytest.raises(ShapeMismatch, match=shape_message(emb, labels)):
            contrastive_loss(emb, labels, MemoryBank(0, 3), LossConfig())

    @pytest.mark.parametrize("filled", [0, 2])
    @pytest.mark.parametrize("emb, labels", BAD_BATCHES)
    def test_batch_the_bank_cannot_take_raises(self, filled, emb, labels):
        bank = MemoryBank(4, 3)
        bank.push(np.eye(3)[:filled], np.arange(filled))
        with pytest.raises(ShapeMismatch, match=shape_message(emb, labels)):
            contrastive_loss(emb, labels, bank, LossConfig())

    def test_float_labels_raise(self):
        # 1.5 and 1.2 are two items; an int64 store would merge them into a
        # positive pair.
        emb = pair_at_distance(0.5)
        for labels in (np.array([1.5, 1.2]), np.array([1.0, 1.0])):
            with pytest.raises(ValueError, match="labels must be integers, got float64"):
                contrastive_loss(emb, labels, MemoryBank(0, 2), LossConfig())
        bank = MemoryBank(4, 2)
        bank.push(emb, np.array([3, 4]))
        with pytest.raises(ValueError, match="labels must be integers, got float64"):
            contrastive_loss(emb[:1], np.array([3.0]), bank, LossConfig())

    def test_single_item_empty_bank_zero_pairs(self):
        loss, grad = contrastive_loss(np.array([[1.0, 0.0]]), np.array([1]), MemoryBank(0, 2), LossConfig())
        assert loss == 0.0 and not grad.any()

    def test_loss_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            emb = unit_rows(rng, 6, 4)
            labels = rng.integers(0, 3, size=6)
            loss, _ = contrastive_loss(emb, labels, MemoryBank(0, 4), LossConfig())
            assert loss >= 0.0

    def test_exact_zero_when_all_hinges_satisfied(self):
        # Orthogonal different-label rows sit at distance sqrt(2) > 1.
        emb = np.eye(4)
        loss, grad = contrastive_loss(emb, np.arange(4), MemoryBank(0, 4), LossConfig())
        assert loss == 0.0 and not grad.any()

    def test_bank_pairs_counted(self):
        # One batch item against a two-entry bank, no in-batch pairs.
        bank = MemoryBank(8, 2)
        bank.push(pair_at_distance(0.5), np.array([7, 8]))
        emb = pair_at_distance(0.5)[:1]
        loss, _ = contrastive_loss(emb, np.array([7]), bank, LossConfig())
        # Pair with label 7 at distance 0, pair with label 8 at distance 0.5.
        np.testing.assert_allclose(loss, (0.0 + max(0.0, 1.0 - 0.5)) / 2.0, atol=1e-9)

    def test_descriptor_gradients_match_fd(self):
        rng = np.random.default_rng(42)
        cfg = LossConfig()
        for _ in range(10):
            emb = unit_rows(rng, 6, 5)
            labels = rng.integers(0, 3, size=6)
            bank = MemoryBank(16, 5)
            bank.push(unit_rows(rng, 8, 5), rng.integers(0, 3, size=8))
            _, grad = contrastive_loss(emb, labels, bank, cfg)
            probe = emb.copy()
            fd = central_differences(lambda: contrastive_loss(probe, labels, bank, cfg)[0], [probe], 1e-6)
            assert_grads_close([grad], fd)


class TestMemoryBank:
    def test_float_labels_raise(self):
        bank = MemoryBank(4, 2)
        with pytest.raises(ValueError, match="labels must be integers, got float64"):
            bank.push(np.eye(2), [0.5, 0.7])
        assert len(bank) == 0
        bank.push(np.eye(2), np.array([5, 6], dtype=np.int32))
        assert bank_contents(bank)[1].tolist() == [5, 6]
        # No label, nothing to truncate: an empty push is a no-op.
        bank.push(np.empty((0, 2)), np.empty(0))
        assert bank_contents(bank)[1].tolist() == [5, 6]

    def test_fifo_eviction(self):
        bank = MemoryBank(3, 2)
        rows = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        bank.push(rows, np.array([0, 1, 2, 3]))
        emb, labels = bank_contents(bank)
        np.testing.assert_array_equal(labels, [1, 2, 3])
        np.testing.assert_array_equal(emb, rows[1:])

    def test_under_capacity_kept_in_order(self):
        bank = MemoryBank(10, 2)
        rows = np.array([[1, 0], [0, 1]], dtype=float)
        bank.push(rows, np.array([5, 6]))
        emb, labels = bank_contents(bank)
        np.testing.assert_array_equal(labels, [5, 6])
        np.testing.assert_array_equal(emb, rows)
        assert len(bank) == 2

    def test_interleaved_ops_match_ring_oracle(self):
        rng = np.random.default_rng(7)
        capacity = 17
        bank = MemoryBank(capacity, 3)
        oracle: list[tuple[np.ndarray, int]] = []
        next_label = 0
        for _ in range(100):
            size = int(rng.integers(1, 8))
            rows = unit_rows(rng, size, 3)
            labels = np.arange(next_label, next_label + size)
            next_label += size
            bank.push(rows, labels)
            for r, l in zip(rows, labels):
                oracle.append((r, int(l)))
            oracle = oracle[-capacity:]

            emb, labs = bank_contents(bank)
            np.testing.assert_array_equal(labs, [l for _, l in oracle])
            np.testing.assert_array_equal(emb, np.stack([r for r, _ in oracle]))

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    )
    def test_pushes_past_capacity_match_ring_oracle(self, capacity, sizes):
        bank = MemoryBank(capacity, 2)
        oracle: list[int] = []
        for size in sizes:
            labels = np.arange(len(oracle), len(oracle) + size)
            # Row r carries label r, so rows and labels check each other.
            bank.push(labels[:, None] * np.array([1.0, -0.5]), labels)
            oracle += labels.tolist()
            expected = oracle[-capacity:]
            emb, labs_before = bank_contents(bank)
            assert labs_before.tolist() == expected
            np.testing.assert_array_equal(emb, labs_before[:, None] * np.array([1.0, -0.5]))
            # [batch; bank] puts the ring after the batch in storage order:
            # label l sits in slot l % capacity.
            batch_labels = -1 - np.arange(size)
            batch = batch_labels[:, None] * np.array([0.25, 2.0])
            rows, sq, labs = bank.with_batch(batch, batch_labels)
            ring = sorted(expected, key=lambda l: l % capacity)
            assert labs.tolist() == batch_labels.tolist() + ring
            np.testing.assert_array_equal(rows[:size], batch)
            np.testing.assert_array_equal(rows[size:], np.array(ring)[:, None] * np.array([1.0, -0.5]))
            np.testing.assert_array_equal(sq, np.einsum("ij,ij->i", rows, rows))
            after = bank_contents(bank)
            np.testing.assert_array_equal(after[0], emb)
            np.testing.assert_array_equal(after[1], labs_before)

    def test_capacity_zero_holds_nothing(self):
        bank = MemoryBank(0, 3)
        for size in (1, 4, 0):
            bank.push(np.ones((size, 3)), np.arange(size))
            assert len(bank) == 0
            # [batch; bank] is the batch alone.
            batch = np.arange(6.0).reshape(2, 3)
            rows, sq, labels = bank.with_batch(batch, np.array([7, 8]))
            np.testing.assert_array_equal(rows, batch)
            np.testing.assert_array_equal(sq, [5.0, 50.0])
            np.testing.assert_array_equal(labels, [7, 8])

    def test_bank_of_20000_holds_its_entries_once(self):
        # One float64 copy of the entries, beside squared norms and labels,
        # after a loss call has grown the head: the distance gemm reads the
        # transpose as a view, so no second copy is kept for it.
        rng = np.random.default_rng(20)
        rows, labels = unit_rows(rng, 20000, 32), rng.integers(0, 4000, size=20000)
        batch = unit_rows(rng, 64, 32)
        tracemalloc.start()
        try:
            bank = MemoryBank(20000, 32)
            bank.push(rows, labels)
            bank.with_batch(batch, np.arange(64))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(bank) == 20000
        assert held < 2 * rows.nbytes

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity must be >= 0"):
            MemoryBank(-1, 3)

    @pytest.mark.parametrize("filled", [0, 2])
    @pytest.mark.parametrize("emb, labels", [(np.zeros((2, 5)), np.array([0, 1]))] + BAD_BATCHES)
    def test_push_shape_mismatch(self, filled, emb, labels):
        bank = MemoryBank(4, 3)
        bank.push(np.eye(3)[:filled], np.arange(filled))
        before = bank_contents(bank)
        with pytest.raises(ShapeMismatch, match=shape_message(emb, labels)):
            bank.push(emb, labels)
        after = bank_contents(bank)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert len(bank) == filled

    def test_loss_batches_of_changing_size_leave_the_ring_alone(self):
        # The loss writes each batch into the storage head before the ring;
        # an 80- and a 96-row batch grow that head, copying the ring. The
        # ring wraps from the third push on.
        rng = np.random.default_rng(80)
        bank = MemoryBank(150, 8)
        for step, b in enumerate((64, 80, 64, 96, 64, 80)):
            emb, labels = unit_rows(rng, b, 8), np.tile(rng.integers(0, 60, size=b // 2), 2)
            before = bank_contents(bank)
            assert_matches_reference(emb, labels, bank, LossConfig(neg_margin=1.2))
            after = bank_contents(bank)
            np.testing.assert_array_equal(after[0], before[0])
            np.testing.assert_array_equal(after[1], before[1])
            bank.push(emb, labels)
            assert len(bank) == min(150, sum((64, 80, 64, 96, 64, 80)[: step + 1]))
        assert bank._cursor != 0

    def test_bank_detached_from_gradients(self):
        # Perturbing a bank entry changes the loss value but the batch
        # parameter gradients still match finite differences.
        rng = np.random.default_rng(3)
        encoder = Encoder.init(6, 4, rng=rng)
        x = rng.standard_normal((5, 6))
        labels = rng.integers(0, 3, size=5)
        cfg = LossConfig()

        bank = MemoryBank(8, 4)
        bank_rows = unit_rows(rng, 4, 4)
        bank.push(bank_rows, np.array([0, 1, 2, 0]))
        loss_a, grads_a, _ = encoder_loss_and_grads(encoder, x, labels, bank, cfg)
        assert_grads_close(grads_a, fd_param_grads(encoder, x, labels, bank, cfg))

        bank2 = MemoryBank(8, 4)
        perturbed = bank_rows.copy()
        perturbed[0] = unit_rows(rng, 1, 4)[0]
        bank2.push(perturbed, np.array([0, 1, 2, 0]))
        loss_b, grads_b, _ = encoder_loss_and_grads(encoder, x, labels, bank2, cfg)
        assert loss_a != loss_b
        assert_grads_close(grads_b, fd_param_grads(encoder, x, labels, bank2, cfg))


class TestSgdMomentum:
    def test_first_step(self):
        p = [np.array([1.0])]
        state = sgd_momentum_step(p, [np.array([1.0])], None, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p[0], [0.9])
        np.testing.assert_allclose(state[0], [1.0])

    def test_two_steps_accumulate(self):
        p = [np.array([1.0])]
        g = [np.array([1.0])]
        state = sgd_momentum_step(p, g, None, lr=0.1, momentum=0.9)
        state = sgd_momentum_step(p, g, state, lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p[0], [1.0 - 0.29], atol=1e-15)

    def test_zero_momentum_is_vanilla_sgd(self):
        p = [np.array([2.0, -1.0])]
        g = [np.array([0.5, 0.25])]
        state = None
        for _ in range(3):
            state = sgd_momentum_step(p, g, state, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p[0], [2.0 - 3 * 0.05, -1.0 - 3 * 0.025], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sgd_momentum_step([np.zeros(2)], [np.zeros(3)], None, lr=0.1, momentum=0.9)


class TestEncoder:
    @pytest.mark.parametrize("hidden", [0, 4])
    def test_zero_output_width_rejected(self, hidden):
        with pytest.raises(ValueError, match=r"^output width must be >= 1, got 0$"):
            Encoder.init(8, 0, hidden=hidden, rng=np.random.default_rng(0))

    def test_training_input_width_checked(self):
        enc = Encoder.init(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(DimMismatch, match=r"^encoder takes 4-dim input, got 5-dim rows$"):
            encoder_loss_and_grads(enc, np.ones((3, 5)), np.arange(3), MemoryBank(0, 2), LossConfig())

    def test_forward_unit_norm(self):
        rng = np.random.default_rng(4)
        for hidden in (0, 8):
            enc = Encoder.init(12, 6, hidden=hidden, rng=rng)
            x = rng.standard_normal((200, 12))
            out = enc.forward(x)
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        for hidden in (0, 5):
            enc = Encoder.init(7, 3, hidden=hidden, rng=rng)
            path = tmp_path / f"enc{hidden}.bin"
            enc.save(path)
            back = Encoder.load(path)
            x = rng.standard_normal((4, 7))
            # f32 checkpoint quantization only.
            np.testing.assert_allclose(back.forward(x), enc.forward(x), atol=1e-5)

    def test_checkpoint_save_load_idempotent(self, tmp_path):
        rng = np.random.default_rng(6)
        enc = Encoder.init(4, 3, rng=rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        enc.save(p1)
        Encoder.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            Encoder.load(path)

    def test_load_rejects_truncation(self, tmp_path):
        rng = np.random.default_rng(7)
        enc = Encoder.init(4, 3, rng=rng)
        path = tmp_path / "trunc.bin"
        enc.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            Encoder.load(path)


_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_CHECKPOINT_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def _encoders(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    layers = []
    for di, do in zip(dims, dims[1:]):
        w = draw(hnp.arrays(np.float32, (di, do), elements=_f32)).astype(np.float64)
        b_ = draw(hnp.arrays(np.float32, (do,), elements=_f32)).astype(np.float64)
        layers.append((w, b_))
    return Encoder(layers)


class TestCheckpointProperties:
    @_CHECKPOINT_PROPERTY
    @given(_encoders())
    def test_round_trip_bit_exact(self, tmp_path, enc):
        path = tmp_path / "enc.bin"
        enc.save(path)
        blob = path.read_bytes()
        back = Encoder.load(path)
        for (w, b_), (w2, b2) in zip(enc.layers, back.layers):
            assert w.tobytes() == w2.tobytes() and b_.tobytes() == b2.tobytes()
        back.save(path)
        assert path.read_bytes() == blob

    @_CHECKPOINT_PROPERTY
    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda tail: b"ISCW" + tail, st.binary(max_size=64)),
        st.builds(
            lambda head, tail: b"ISCW" + struct.pack("<II", 1, head) + tail,
            st.integers(0, 3), st.binary(max_size=96),
        ),
    ))
    def test_arbitrary_bytes_raise_only_format_errors(self, tmp_path, blob):
        path = tmp_path / "any.bin"
        path.write_bytes(blob)
        try:
            Encoder.load(path)
        except FormatError:
            pass

    @_CHECKPOINT_PROPERTY
    @given(_encoders(), st.data())
    def test_truncation_raises_only_format_errors(self, tmp_path, enc, data):
        path = tmp_path / "cut.bin"
        enc.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(FormatError):
            Encoder.load(path)

    def test_mismatched_layer_widths_are_a_format_error(self, tmp_path):
        # Layer one maps 1 -> 2, layer two expects 3 inputs.
        path = tmp_path / "bad.bin"
        path.write_bytes(
            b"ISCW" + struct.pack("<II", 1, 2)
            + struct.pack("<II", 1, 2) + bytes(16)
            + struct.pack("<II", 3, 1) + bytes(16)
        )
        with pytest.raises(FormatError, match="width mismatch"):
            Encoder.load(path)


class TestEncoderGradients:
    def test_two_layer_init_draws_in_layer_order(self):
        enc = Encoder.init(6, 4, hidden=5, rng=np.random.default_rng(8))
        rng = np.random.default_rng(8)
        w1 = rng.standard_normal((6, 5)) / np.sqrt(6)
        w2 = rng.standard_normal((5, 4)) / np.sqrt(5)
        for got, want in zip(enc.params(), [w1, np.zeros(5), w2, np.zeros(4)]):
            np.testing.assert_array_equal(got, want)

    def test_two_layer_backward_equals_closed_form(self):
        rng = np.random.default_rng(9)
        enc = Encoder.init(6, 4, hidden=5, rng=rng)
        x = rng.standard_normal((7, 6))
        grad_e = rng.standard_normal((7, 4))
        e, cache = enc._forward_cached(x)
        grads = enc._backward(cache, grad_e)

        (w1, b1), (w2, b2) = enc.layers
        h = np.tanh(x @ w1 + b1)
        z = h @ w2 + b2
        norms = np.linalg.norm(z, axis=1)
        np.testing.assert_array_equal(e, z / norms[:, None])
        gz = (grad_e - np.sum(grad_e * e, axis=1)[:, None] * e) / norms[:, None]
        gw2, gb2 = h.T @ gz, gz.sum(axis=0)
        gh = (gz @ w2.T) * (1.0 - h * h)
        gw1, gb1 = x.T @ gh, gh.sum(axis=0)
        assert len(grads) == 4
        for got, want in zip(grads, [gw1, gb1, gw2, gb2]):
            np.testing.assert_array_equal(got, want)

    def test_matches_fd_across_configs(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            hidden = 5 if trial % 2 else 0
            enc = Encoder.init(6, 4, hidden=hidden, rng=rng)
            x = rng.standard_normal((6, 6))
            labels = rng.integers(0, 3, size=6)
            bank = MemoryBank(12 if trial % 3 == 0 else 0, 4)
            if bank.capacity:
                bank.push(unit_rows(rng, 5, 4), rng.integers(0, 3, size=5))
            # Mix of margins exercises active and inactive hinges.
            cfg = LossConfig(pos_margin=0.0 if trial % 2 else 0.1, neg_margin=1.0 + 0.2 * (trial % 3))
            _, grads, _ = encoder_loss_and_grads(enc, x, labels, bank, cfg)
            assert_grads_close(grads, fd_param_grads(enc, x, labels, bank, cfg))


def _augment_drawing_every_op(x, tier, rng):
    """augment_batch as it was before ops of zero magnitude were skipped:
    every op draws and runs, whatever its magnitude."""
    y = np.array(x, dtype=np.float64)
    b, d = y.shape
    order = np.argsort(rng.random((b, 4)), axis=1)
    noise = rng.normal(0.0, tier.noise_sigma, (b, d))
    npairs = d // 4
    pairs = np.argsort(rng.random((b, d)), axis=1)[:, : 2 * npairs]
    theta = rng.uniform(-tier.rotation_angle, tier.rotation_angle, (b, npairs))
    cos, sin = np.cos(theta), np.sin(theta)
    alpha = rng.uniform(tier.mix_low, tier.mix_high, (b, 1))
    distractor = rng.standard_normal((b, d))
    keep = rng.random((b, d)) >= tier.dropout_prob
    for row in range(b):
        for op in order[row]:
            v = y[row]
            if op == 0:
                v += noise[row]
            elif op == 1:
                i, j = pairs[row, :npairs], pairs[row, npairs:]
                c, s = cos[row], sin[row]
                v[i], v[j] = c * v[i] - s * v[j], s * v[i] + c * v[j]
            elif op == 2:
                y[row] = (1.0 - alpha[row]) * v + alpha[row] * distractor[row]
            else:
                v *= keep[row]
    return y


class TestAugmentBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 20),
        dim=st.integers(1, 40),
        angle=st.floats(0.01, 3.0),
    )
    def test_rotation_only_tier_preserves_row_norms(self, seed, rows, dim, angle):
        rotation = AugmentTier("rotation", 0.0, angle, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, dim))
        y = augment_batch(x, rotation, rng)
        np.testing.assert_allclose(
            np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), rtol=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 8), dim=st.integers(1, 16))
    def test_none_tier_copies_and_leaves_rng_untouched(self, seed, rows, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, dim))
        before = rng.bit_generator.state
        y = augment_batch(x, TIERS["none"], rng)
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(y, x)
        assert not np.shares_memory(y, x)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), dim=st.integers(1, 40))
    def test_weak_tier_draws_only_for_ops_that_act(self, seed, rows, dim):
        # The weak tier neither mixes nor drops out: the rows equal those of
        # a transform that draws every op, and the stream moves past the
        # order, noise, pair and angle draws only.
        x = np.random.default_rng(seed + 1).standard_normal((rows, dim))
        weak = TIERS["weak"]
        rng = np.random.default_rng(seed)
        y = augment_batch(x, weak, rng)
        every_op = np.random.default_rng(seed)
        np.testing.assert_array_equal(y, _augment_drawing_every_op(x, weak, every_op))
        acting = np.random.default_rng(seed)
        acting.random((rows, 4))
        acting.normal(0.0, weak.noise_sigma, (rows, dim))
        acting.random((rows, dim))
        acting.uniform(-weak.rotation_angle, weak.rotation_angle, (rows, dim // 4))
        assert rng.bit_generator.state == acting.bit_generator.state
        assert every_op.bit_generator.state != acting.bit_generator.state

    def test_rejects_non_block_input(self):
        with pytest.raises(ValueError, match="block"):
            augment_batch(np.zeros(4), TIERS["weak"], np.random.default_rng(0))


class TestRunStage:
    def _world(self):
        return gen_world(21, WorldConfig(n_train=64, n_ref=64, n_query=16, d_in=8, copy_rate=0.5))

    def test_zero_epochs_unchanged(self):
        world = self._world()
        enc = Encoder.init(8, 4, rng=substream(0, "train"))
        before = [p.copy() for p in enc.params()]
        bank = MemoryBank(64, 4)
        stage = StageConfig(index=1, tier="weak", epochs=0)
        run_stage(enc, world, stage, bank, substream(0, "train"), LossConfig(), 0.9)
        for b, p in zip(before, enc.params()):
            np.testing.assert_array_equal(b, p)

    def test_seeded_run_reproducible(self):
        world = self._world()

        def run():
            rng = substream(3, "train")
            enc = Encoder.init(8, 4, rng=rng)
            bank = MemoryBank(64, 4)
            metrics = run_stage(
                enc, world, StageConfig(index=1, tier="weak", epochs=1, lr=0.1), bank, rng, LossConfig(), 0.9
            )
            return enc, metrics

        enc_a, metrics_a = run()
        enc_b, metrics_b = run()
        assert metrics_a == metrics_b
        for pa, pb in zip(enc_a.params(), enc_b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_default_stage_3_peaks_below_4_mib(self):
        # A default-size world is 2.25 MiB of float32 rows, 4.5 MiB widened
        # to float64. The stage widens only the rows of one block or batch,
        # the bank holds one copy of its entries, and the loss frees its
        # b x (b + m) distance block before the gradient.
        world = gen_world(3, WorldConfig(n_train=4096, n_ref=4096, n_query=1024, d_in=64))
        rng = substream(3, "train")
        enc = Encoder.init(64, 32, rng=rng)
        bank = MemoryBank(2048, 32)
        bank.push(unit_rows(rng, 2048, 32), rng.integers(0, 4096, size=2048))
        stage = default_stage_schedule()[2]
        assert stage.index == 3 and stage.include_reference_negatives
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_stage(enc, world, stage, bank, rng, LossConfig(), 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 4 * 2**20

    def test_bank_fills_during_stage(self):
        world = self._world()
        rng = substream(4, "train")
        enc = Encoder.init(8, 4, rng=rng)
        bank = MemoryBank(2048, 4)
        run_stage(enc, world, StageConfig(index=1, tier="weak", epochs=1), bank, rng, LossConfig(), 0.9)
        assert len(bank) == 2 * 64  # two views per training item

    def test_non_finite_step_names_stage_epoch_batch(self, monkeypatch):
        world = self._world()
        rng = substream(6, "train")
        enc = Encoder.init(8, 4, rng=rng)
        real = copydet.train.encoder_loss_and_grads
        calls = []

        def poisoned(*args, **kwargs):
            loss, grads, emb = real(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                grads[0][0, 0] = np.nan
            return loss, grads, emb

        monkeypatch.setattr(copydet.train, "encoder_loss_and_grads", poisoned)
        stage = StageConfig(index=2, tier="weak", epochs=1, batch_size=16)
        with pytest.raises(NonFiniteValue, match="stage 2, epoch 1, batch 3: non-finite loss or gradient"):
            run_stage(enc, world, stage, MemoryBank(64, 4), rng, LossConfig(), 0.9)

    @staticmethod
    def _record_losses(monkeypatch):
        """Record the (inputs, labels) of every training step."""
        real = copydet.train.encoder_loss_and_grads
        fed = []

        def recording(encoder, x, labels, bank, cfg):
            fed.append((x.copy(), labels.copy()))
            return real(encoder, x, labels, bank, cfg)

        monkeypatch.setattr(copydet.train, "encoder_loss_and_grads", recording)
        return fed

    def test_each_epoch_augments_every_item_once_per_view(self, monkeypatch):
        # 70 items in batches of 4: several augmentation blocks per epoch,
        # the last block and the last batch short.
        world = gen_world(22, WorldConfig(n_train=70, n_ref=16, n_query=8, d_in=8))
        train_raw = world.training.matrix.astype(np.float64)
        index_of = {row.tobytes(): i for i, row in enumerate(train_raw)}
        real = copydet.train.augment_batch
        calls = []  # (tier name, training indices, augmented rows)

        def recording(x, tier, rng):
            out = real(x, tier, rng)
            calls.append((tier.name, [index_of[row.tobytes()] for row in x], out))
            return out

        monkeypatch.setattr(copydet.train, "augment_batch", recording)
        fed = self._record_losses(monkeypatch)
        rng = substream(8, "train")
        stage = StageConfig(index=3, tier="strong", epochs=2, batch_size=4)
        run_stage(Encoder.init(8, 4, rng=rng), world, stage, MemoryBank(64, 4), rng, LossConfig(), 0.9)

        block_rows = copydet.train._AUGMENT_BLOCK_BATCHES * stage.batch_size
        assert len(calls) == 2 * stage.epochs * -(-70 // block_rows)
        views = {}
        for name in ("strong", "weak"):
            seen = [i for tier, idx, _ in calls if tier == name for i in idx]
            assert [sorted(seen[:70]), sorted(seen[70:])] == [list(range(70))] * 2
            views[name] = (np.array(seen), np.concatenate([o for t, _, o in calls if t == name]))
        # Each batch is its items' strong views, then their weak views, both
        # under the item labels, in the order the blocks drew them.
        at = 0
        for x, labels in fed:
            k = len(labels) // 2
            items = views["strong"][0][at : at + k]
            np.testing.assert_array_equal(labels, np.concatenate([items, items]))
            np.testing.assert_array_equal(x[:k], views["strong"][1][at : at + k])
            np.testing.assert_array_equal(x[k:], views["weak"][1][at : at + k])
            at += k
        assert at == 2 * 70 and len(fed) == 2 * 18

    @pytest.mark.parametrize("tier", ["strong", "intermediate", "none"])
    def test_views_are_one_augment_batch_call_per_view(self, monkeypatch, tier):
        # Each block of batches draws its tier-strength view, then a weak
        # view of the same rows; tier "none" feeds the rows unaugmented.
        real = copydet.train.augment_batch
        calls = []  # (tier name, rows)

        def recording(x, tier, rng):
            calls.append((tier.name, x.copy()))
            return real(x, tier, rng)

        monkeypatch.setattr(copydet.train, "augment_batch", recording)
        rng = substream(10, "train")
        stage = StageConfig(index=1, tier=tier, epochs=2, batch_size=4)
        run_stage(Encoder.init(8, 4, rng=rng), self._world(), stage, MemoryBank(64, 4), rng, LossConfig(), 0.9)

        if tier == "none":
            assert calls == []
            return
        block_rows = copydet.train._AUGMENT_BLOCK_BATCHES * stage.batch_size
        assert len(calls) == 2 * stage.epochs * (64 // block_rows)
        assert [name for name, _ in calls] == [tier, "weak"] * (len(calls) // 2)
        for (_, first), (_, second) in zip(calls[::2], calls[1::2]):
            assert first.shape == (block_rows, 8)
            np.testing.assert_array_equal(first, second)

    def test_tier_none_batch_holds_each_item_once(self, monkeypatch):
        world = self._world()
        n_train = 64
        train_raw = world.training.matrix.astype(np.float64)
        ref_raw = world.reference.matrix.astype(np.float64)
        query_raw = world.queries.matrix.astype(np.float64)
        gt_rows = {(int(q[1:]), int(r[1:])) for q, r in world.gt.pairs}  # ids are Q/R + row
        fed = self._record_losses(monkeypatch)
        rng = substream(9, "train")
        stage = StageConfig(
            index=4, tier="none", include_reference_negatives=True,
            include_gt_positives=True, epochs=2, batch_size=16,
            ref_per_batch=4, gt_per_batch=2,
        )
        run_stage(Encoder.init(8, 4, rng=rng), world, stage, MemoryBank(64, 4), rng, LossConfig(), 0.9)

        assert len(fed) == 2 * 4
        for epoch in range(2):
            epoch_items = []
            for x, labels in fed[4 * epoch : 4 * epoch + 4]:
                assert len(labels) == 16 + 4 + 2 * 2
                items = labels[:16]
                epoch_items += items.tolist()
                np.testing.assert_array_equal(x[:16], train_raw[items])
                refs = labels[16:20] - n_train
                assert len(set(refs.tolist())) == 4 and refs.min() >= 0
                np.testing.assert_array_equal(x[16:20], ref_raw[refs])
                gt_refs = labels[20:22] - n_train
                np.testing.assert_array_equal(labels[22:24], labels[20:22])
                np.testing.assert_array_equal(x[22:24], ref_raw[gt_refs])
                for q_row, r in zip(x[20:22], gt_refs):
                    q = int(np.flatnonzero((query_raw == q_row).all(axis=1))[0])
                    assert (q, int(r)) in gt_rows
            assert sorted(epoch_items) == list(range(n_train))

    def test_stage_flags_add_rows(self):
        world = self._world()
        rng = substream(5, "train")
        enc = Encoder.init(8, 4, rng=rng)
        bank = MemoryBank(4096, 4)
        stage = StageConfig(
            index=4, tier="none", include_reference_negatives=True,
            include_gt_positives=True, epochs=1, batch_size=16,
            ref_per_batch=4, gt_per_batch=2,
        )
        run_stage(enc, world, stage, bank, rng, LossConfig(), 0.9)
        # 4 batches of 16 items (one view at tier "none") + 4 refs + 2*2 gt
        # rows each.
        assert len(bank) == 4 * (16 + 4 + 4)
