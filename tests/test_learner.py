import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from discoparse.learner import WeightStore


def scalar_reference(steps, eta, lam, delta):
    """Straight-line dict-of-floats evaluation of the update formulas."""
    w = {}
    gs = {}
    for wrong, right in steps:
        g = Counter(wrong)
        for i in right:
            g[i] -= 1
        for i, gi in sorted(g.items()):
            if gi == 0:
                continue
            gs[i] = gs.get(i, 0.0) + gi * gi
            denom = math.sqrt(gs[i] + delta)
            z = w.get(i, 0.0) - eta * gi / denom
            w[i] = math.copysign(max(0.0, abs(z) - eta * lam / denom), z)
    return w, gs


def random_steps(rng, n_steps, n_coords=5):
    steps = []
    for _ in range(n_steps):
        wrong = [rng.randrange(n_coords) for _ in range(rng.randint(1, 4))]
        right = [rng.randrange(n_coords) for _ in range(rng.randint(1, 4))]
        steps.append((wrong, right))
    return steps


def test_first_step_is_minus_eta():
    store = WeightStore(16, eta=0.1, lam=0.0, delta=0.0)
    store.update([3], [])
    assert store.weights[3] == pytest.approx(-0.1)
    assert store.gradsq[3] == 1.0


def test_cancellation_leaves_everything_untouched():
    store = WeightStore(16, lam=0.01)
    store.update([2, 5], [5, 2])
    assert not store.weights.any()
    assert not store.gradsq.any()


def test_duplicate_indices_accumulate():
    store = WeightStore(16, eta=0.1, lam=0.0, delta=1.0, dtype=np.float64)
    store.update([4, 4], [])
    # g=2, gradsq=4, step = 0.1*2/sqrt(5)
    assert store.weights[4] == pytest.approx(-0.2 / math.sqrt(5.0), abs=1e-15)
    assert store.score_rows(np.array([[4, 4]]))[0] == pytest.approx(2 * store.weights[4])


def test_twenty_steps_match_scalar_reference():
    rng = random.Random(99)
    steps = random_steps(rng, 20)
    store = WeightStore(8, eta=0.1, lam=0.01, delta=1.0, dtype=np.float64)
    for wrong, right in steps:
        store.update(wrong, right)
    ref_w, ref_gs = scalar_reference(steps, eta=0.1, lam=0.01, delta=1.0)
    for i in range(5):
        assert abs(store.weights[i] - ref_w.get(i, 0.0)) <= 1e-12
        assert abs(store.gradsq[i] - ref_gs.get(i, 0.0)) <= 1e-12


def test_scoring():
    store = WeightStore(16, dtype=np.float64)
    assert store.score_rows(np.empty((1, 0), dtype=np.int64))[0] == 0.0
    store.update([1], [2])
    before = store.score_rows(np.array([[1, 2]]))[0]
    store.update([7], [8])
    assert store.score_rows(np.array([[1, 2]]))[0] == before
    rows = np.array([[1, 2], [7, 8], [1, 1]])
    got = store.score_rows(rows)
    assert got[0] == pytest.approx(store.weights[1] + store.weights[2])
    assert got[2] == pytest.approx(2 * store.weights[1])


def test_huge_lambda_zeroes_updated_weights():
    store = WeightStore(16, eta=0.1, lam=1e6, delta=1.0)
    for _ in range(5):
        store.update([1, 2], [3])
    assert store.weights[1] == 0.0 and store.weights[3] == 0.0
    assert store.gradsq[1] > 0


def test_shrinkage_only_on_touched_coordinates():
    store = WeightStore(16, eta=0.1, lam=0.5, delta=1.0, dtype=np.float64)
    store.update([1], [])
    w1 = float(store.weights[1])
    assert w1 != 0.0
    # updates elsewhere leave coordinate 1 exactly alone
    for _ in range(10):
        store.update([5], [6])
    assert float(store.weights[1]) == w1


def test_determinism_bit_identical():
    rng = random.Random(5)
    steps = random_steps(rng, 200, n_coords=12)
    stores = [WeightStore(16, eta=0.1, lam=0.02) for _ in range(2)]
    for store in stores:
        for wrong, right in steps:
            store.update(wrong, right)
    assert np.array_equal(stores[0].weights, stores[1].weights)
    assert stores[0].weights.dtype == np.float32


def test_float32_storage_with_float64_oracle_drift():
    # same sequence at both precisions stays close but not identical
    rng = random.Random(17)
    steps = random_steps(rng, 300, n_coords=6)
    s32 = WeightStore(8, eta=0.1, lam=0.001, dtype=np.float32)
    s64 = WeightStore(8, eta=0.1, lam=0.001, dtype=np.float64)
    for wrong, right in steps:
        s32.update(wrong, right)
        s64.update(wrong, right)
    assert np.allclose(s32.weights, s64.weights, atol=1e-4)


def test_lambda_presets():
    store = WeightStore(2 ** 10)
    assert store.set_lambda_from_corpus(1000) == pytest.approx(1e-6)
    assert store.set_lambda_from_corpus(1) == pytest.approx(0.001)
    assert store.set_lambda_from_corpus(1000, numerator=0.1) == pytest.approx(1e-4)
    assert store.set_lambda_from_dim() == pytest.approx(0.05 / 2 ** 10)
    with pytest.raises(ValueError):
        store.set_lambda_from_corpus(0)


def test_dim_must_be_power_of_two():
    with pytest.raises(ValueError):
        WeightStore(1000)


def test_save_load_roundtrip(tmp_path):
    store = WeightStore(32, eta=0.2, lam=0.003, delta=2.0)
    rng = random.Random(8)
    for wrong, right in random_steps(rng, 50, n_coords=30):
        store.update(wrong, right)
    path = tmp_path / "model.npz"
    blobs = {"head_table": "S\tleft-to-right\tVP\n\u00e4\n".encode("utf-8"), "tags": b""}
    store.save(path, config_digest="abc123def456", blobs=blobs)
    back = WeightStore.load(path)
    assert back.dim == 32 and back.eta == 0.2 and back.lam == 0.003
    assert back.config_digest == "abc123def456"
    assert np.array_equal(back.weights, store.weights)
    assert back.blobs == blobs


def _write_model(path, meta, **arrays):
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
             **arrays)


def test_load_rejects_bad_indices(tmp_path):
    meta = {"dim": 16, "eta": 0.1, "lam": 0.0, "delta": 1.0, "dtype": "float32"}
    value = np.ones(2, np.float32)
    for index in ([3, 16], [-1, 3], [5, 5]):
        bad = tmp_path / "bad.npz"
        _write_model(bad, meta, index=np.array(index), value=value)
        with pytest.raises(ValueError, match="out of range or repeated"):
            WeightStore.load(bad)
