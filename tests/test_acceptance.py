"""Acceptance suite: one test per shipping criterion, each printing its
own pass/fail line under pytest -v.  Budgeted runtimes are asserted
where the criterion states one."""

import math
import random
import time
from collections import Counter

import mpmath
import numpy as np
import pytest

from discoparse.bigrams import Bucket, BigramAssocModel, g_squared, quantile_cuts
from discoparse.engine import (
    EasyFirstParser,
    apply_action,
    initial_state,
    label_inventory,
    replay_gold,
)
from discoparse.evaluate import EvalConfig, bracket_f1, evaluate, uas
from discoparse.features import FeatureConfig
from discoparse.headrules import HeadTable, induce_head_table, observed_heads
from discoparse.learner import WeightStore
from discoparse.synthdata import (
    planted_corpus,
    random_tree,
    toy_corpus,
    toy_sentence_of_length,
)
from discoparse.treebank import (
    ConstTree,
    read_discbracket,
    read_export,
    write_discbracket,
    write_export,
)

EMPTY_TABLE = HeadTable()


# ---------------------------------------------------------- criterion 1

def test_criterion_01_oracle_replay_reconstructs_500_trees_under_10s():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    exact = 0
    total = 500
    for i in range(total):
        tree = random_tree(rng, max_block_degree=3,
                           require_discontinuity=(i % 3 == 0))
        assert len(tree.tokens) <= 12
        chooser = None if i % 2 == 0 else rng
        rebuilt, _ = replay_gold(tree, EMPTY_TABLE, rng=chooser)
        exact += rebuilt.signature() == tree.signature()
    elapsed = time.perf_counter() - t0
    assert exact == total, f"only {exact}/{total} trees rebuilt exactly"
    assert elapsed < 10.0, f"replay took {elapsed:.1f}s (budget 10s)"


# ------------------------------------------------- criteria 2, 3, 8b setup

TRAIN_SIZE = 200
DEV_SIZE = 50
DIM = 2 ** 20


def _toy_split():
    train = toy_corpus(TRAIN_SIZE, random.Random(100))
    dev = toy_corpus(DEV_SIZE, random.Random(200))
    return train, [t for t, _ in train], [t for t, _ in dev]


def _train_toy(trees, table, seed, l1_preset="0.001/N", epochs=15):
    store = WeightStore(DIM)
    store.set_lambda_from_corpus(len(trees), float(l1_preset[:-2]))
    parser = EasyFirstParser(store, FeatureConfig(dim=DIM), table,
                             label_inventory(trees))
    parser.train(trees, epochs=epochs, seed=seed)
    return parser


def _f1_on(parser, trees):
    preds = [parser.parse_tokens(t.tokens) for t in trees]
    return evaluate(trees, preds).f1


@pytest.fixture(scope="module")
def toy_trained():
    corpus, trees, dev = _toy_split()
    table = induce_head_table(corpus)
    t0 = time.perf_counter()
    parser = _train_toy(trees, table, seed=42)
    train_time = time.perf_counter() - t0
    return {"parser": parser, "trees": trees, "dev": dev, "table": table,
            "train_time": train_time}


def test_criterion_02_toy_grammar_trainability_under_60s(toy_trained):
    t0 = time.perf_counter()
    train_f1 = _f1_on(toy_trained["parser"], toy_trained["trees"])
    dev_f1 = _f1_on(toy_trained["parser"], toy_trained["dev"])
    elapsed = toy_trained["train_time"] + (time.perf_counter() - t0)
    assert train_f1 >= 99.0, f"training-set F1 {train_f1:.2f} < 99"
    assert dev_f1 >= 90.0, f"held-out F1 {dev_f1:.2f} < 90"
    assert elapsed < 60.0, f"train+eval took {elapsed:.1f}s (budget 60s)"


def test_criterion_03_l1_preset_direction_over_three_seeds(toy_trained):
    trees = toy_trained["trees"]
    dev = toy_trained["dev"]
    table = toy_trained["table"]
    finals = {}
    for preset in ("0.001/N", "0.1/N"):
        finals[preset] = [
            _f1_on(_train_toy(trees, table, seed=s, l1_preset=preset), dev)
            for s in (1, 2, 3)]
    good = sum(finals["0.001/N"]) / 3
    weak = sum(finals["0.1/N"]) / 3
    assert good >= weak, (
        f"mean held-out F1 {good:.2f} (0.001/N) < {weak:.2f} (0.1/N); "
        f"per-seed {finals}")


# ---------------------------------------------------------- criterion 4

def _scalar_adagrad_fobos(steps, dim, eta, lam, delta):
    """Independent per-coordinate reference of the update rule."""
    w = [0.0] * dim
    gsq = [0.0] * dim
    for wrong, right in steps:
        g = Counter(wrong)
        for i in right:
            g[i] -= 1
        for i, gi in g.items():
            if gi == 0:
                continue
            gsq[i] += gi * gi
            denom = math.sqrt(gsq[i] + delta)
            z = w[i] - eta * gi / denom
            w[i] = math.copysign(max(0.0, abs(z) - eta * lam / denom), z)
    return w


def test_criterion_04_learner_matches_scalar_oracle_1e12():
    rng = random.Random(77)
    eta, lam, delta = 0.1, 0.013, 1.0
    steps = []
    for _ in range(20):
        wrong = [rng.randrange(5) for _ in range(rng.randint(1, 6))]
        right = [rng.randrange(5) for _ in range(rng.randint(1, 6))]
        steps.append((wrong, right))
    ref = _scalar_adagrad_fobos(steps, 5, eta, lam, delta)
    store = WeightStore(8, eta=eta, lam=lam, delta=delta, dtype=np.float64)
    for wrong, right in steps:
        store.update(np.asarray(wrong, dtype=np.int64),
                     np.asarray(right, dtype=np.int64))
    for i in range(5):
        assert abs(store.weights[i] - ref[i]) < 1e-12, (
            f"coordinate {i}: {store.weights[i]!r} vs oracle {ref[i]!r}")


# ---------------------------------------------------------- criterion 5

def _g2_reference(o11, o12, o21, o22):
    mpmath.mp.dps = 50
    n = o11 + o12 + o21 + o22
    rows = (o11 + o12, o21 + o22)
    cols = (o11 + o21, o12 + o22)
    acc = mpmath.mpf(0)
    for o, r, c in ((o11, rows[0], cols[0]), (o12, rows[0], cols[1]),
                    (o21, rows[1], cols[0]), (o22, rows[1], cols[1])):
        if o:
            acc += o * mpmath.log(mpmath.mpf(o) * n / (mpmath.mpf(r) * c))
    return 2 * acc


def test_criterion_05_g_squared_vs_high_precision_1e9():
    rng = random.Random(55)
    checked = 0
    while checked < 100:
        o11, o12, o21, o22 = (rng.randint(0, 400) for _ in range(4))
        if o11 + o12 == 0 or o11 + o21 == 0 or o11 + o12 + o21 + o22 == 0:
            continue
        ref = _g2_reference(o11, o12, o21, o22)
        if abs(ref) < 1e-3:
            continue  # relative tolerance is meaningless near zero
        mine = g_squared(o11, o11 + o12, o11 + o21, o11 + o12 + o21 + o22)
        rel = abs(mine - float(ref)) / float(ref)
        assert rel < 1e-9, f"table {(o11, o12, o21, o22)}: rel err {rel:.2e}"
        checked += 1
    # exactly independent tables: o11*n == row1*col1 by construction
    for _ in range(50):
        x, y, z, w = (rng.randint(1, 40) for _ in range(4))
        g2 = g_squared(x * y, x * (y + z), y * (x + w), (x + w) * (y + z))
        assert abs(g2) < 1e-9, f"independence violated: {g2!r}"


# ---------------------------------------------------------- criterion 6

def test_criterion_06_bucket_laws_on_1000_score_lists():
    rng = random.Random(66)
    for _ in range(1000):
        k = rng.randint(1, 200)
        scores = set()
        while len(scores) < k:
            scores.add(rng.uniform(0.01, 100.0))
        deps = {f"d{i}": s for i, s in enumerate(scores)}
        model = BigramAssocModel("raw", {"h": deps},
                                 {"h": quantile_cuts(list(deps.values()))})
        buckets = {d: model.query("h", d) for d in deps}
        hi = {d for d, b in buckets.items() if b == Bucket.HI}
        hi_or_mi = {d for d, b in buckets.items() if b >= Bucket.MI}
        nonzero = {d for d, b in buckets.items() if b > Bucket.NO}
        assert hi <= hi_or_mi <= nonzero
        assert len(hi) == (k + 9) // 10          # ceil(0.1 k)
        assert len(hi_or_mi) == (3 * k + 9) // 10  # ceil(0.3 k)
        assert len(nonzero) == k
        assert model.query("h", "unseen") == Bucket.NO
        ordered = sorted(deps, key=deps.get, reverse=True)
        ranks = [buckets[d] for d in ordered]
        assert all(a >= b for a, b in zip(ranks, ranks[1:])), \
            "bucket rank must be monotone in score"


# ---------------------------------------------------------- criterion 7

def test_criterion_07_head_table_recovery_on_500_planted_sentences():
    rng = random.Random(7007)
    corpus, planted = planted_corpus(rng, count=500)
    assert len(corpus) == 500
    induced = induce_head_table(corpus)
    phrases = 0
    agree = 0
    for tree, dep in corpus:
        for obs in observed_heads(tree, dep):
            phrases += 1
            want = planted.find_head_child(obs.parent_label, obs.child_labels)
            got = induced.find_head_child(obs.parent_label, obs.child_labels)
            agree += want == got
    assert phrases > 1000
    assert agree == phrases, (
        f"induced table disagrees on {phrases - agree}/{phrases} phrases")


# ---------------------------------------------------------- criterion 8

def _fresh_entries(parser, state, views):
    return [parser._entry(state, views, i) for i in range(len(state))]


def test_criterion_08a_scores_outside_window_unchanged_exactly():
    rng = random.Random(88)
    labels = ["AP", "NP", "PP", "S", "VP"]
    store = WeightStore(2 ** 18)
    store.weights[:] = np.random.default_rng(88).standard_normal(
        2 ** 18).astype(np.float32) * 0.01
    parser = EasyFirstParser(store, FeatureConfig(dim=2 ** 18), EMPTY_TABLE,
                             labels)
    pairs_checked = 0
    for _ in range(20):
        tree = random_tree(rng, n_tokens=rng.randint(6, 12), max_block_degree=3)
        state = initial_state(tree.tokens)
        views = [parser._view(n, tree.tokens) for n in state]
        while len(state) > 1:
            entries = _fresh_entries(parser, state, views)
            best = None
            for i, e in enumerate(entries):
                if not e.actions:
                    continue
                k = int(np.argmax(e.scores))
                if best is None or e.scores[k] > best[0]:
                    best = (e.scores[k], i, e.actions[k])
            if best is None:
                break
            _, j, action = best
            old_len = len(state)
            state = apply_action(state, j, action, EMPTY_TABLE)
            views = [parser._view(n, tree.tokens) for n in state]
            delta = old_len - len(state)
            fresh = _fresh_entries(parser, state, views)
            for i_new, e_new in enumerate(fresh):
                if j - 2 <= i_new <= j + 2:
                    continue
                i_old = i_new if i_new < j else i_new + delta
                e_old = entries[i_old]
                assert [a.key for a in e_new.actions] == \
                       [a.key for a in e_old.actions]
                assert np.array_equal(e_new.scores, e_old.scores), (
                    f"score drift at position {i_new} after apply at {j}")
                pairs_checked += 1
    assert pairs_checked > 200


def test_criterion_08b_parse_time_exponent_below_1_5(toy_trained):
    parser = toy_trained["parser"]
    rng = random.Random(800)
    lengths = (10, 20, 40, 80)
    means = []
    for n in lengths:
        sents = [toy_sentence_of_length(rng, n)[0] for _ in range(6)]
        for t in sents:
            parser.parse_tokens(t.tokens)  # warm feature caches
        times = []
        for t in sents:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                parser.parse_tokens(t.tokens)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        means.append(sum(times) / len(times))
    e, _ = np.polyfit(np.log(lengths), np.log(means), 1)
    assert e < 1.5, (
        f"fitted exponent {e:.3f} >= 1.5; times {dict(zip(lengths, means))}")


# ---------------------------------------------------------- criterion 9

def _brute_brackets(tree, exclude_root=True):
    out = []
    for nid, node in tree.nodes.items():
        if exclude_root and nid == tree.root_id:
            continue
        out.append((node.label, tuple(sorted(node.leaves))))
    return sorted(out)


def _brute_prf_ex(golds, preds):
    match = 0
    gt = 0
    pt = 0
    exact = 0
    for g, p in zip(golds, preds):
        gb = _brute_brackets(g)
        pool = _brute_brackets(p)
        gt += len(gb)
        pt += len(pool)
        exact += gb == pool
        pool = list(pool)
        for item in gb:
            if item in pool:
                pool.remove(item)
                match += 1
    if match == gt == pt:
        p_ = r_ = 100.0
    else:
        p_ = 100.0 * match / pt if pt else 0.0
        r_ = 100.0 * match / gt if gt else 0.0
    f_ = 2 * p_ * r_ / (p_ + r_) if p_ + r_ else 0.0
    return p_, r_, f_, 100.0 * exact / len(golds)


def _brute_governors(tree, table):
    # independent percolation: bottom-up over nodes sorted by yield size
    by_size = sorted(tree.nodes.values(), key=lambda nd: (len(nd.leaves), nd.id))
    head_of = {}
    for node in by_size:
        labels = []
        cands = []
        for ref in tree.children_sorted(node):
            if ref in tree.nodes:
                labels.append(tree.nodes[ref].label)
                cands.append(head_of[ref])
            else:
                labels.append(tree.tokens[ref].pos)
                cands.append(ref)
        head_of[node.id] = cands[table.find_head_child(node.label, labels, 0)]
    out = []
    for t in range(len(tree.tokens)):
        containing = [nd for nd in by_size
                      if t in nd.leaves and head_of[nd.id] != t]
        out.append(head_of[containing[0].id] if containing else -1)
    return out


def test_criterion_09_metrics_match_brute_force_on_50_pairs():
    rng = random.Random(99)
    table = HeadTable()  # leftmost heads everywhere; both sides identical
    golds, preds = [], []
    for _ in range(50):
        g = random_tree(rng, n_tokens=rng.randint(2, 10))
        other = random_tree(rng, n_tokens=len(g.tokens))
        p = ConstTree(g.tokens, other.nodes, other.root_id)
        golds.append(g)
        preds.append(p)
    rep = bracket_f1(golds, preds)
    bp, br, bf, bex = _brute_prf_ex(golds, preds)
    assert (rep.precision, rep.recall, rep.f1, rep.exact) == (bp, br, bf, bex)
    module_uas = uas(golds, preds, table)
    good = total = 0
    for g, p in zip(golds, preds):
        for a, b in zip(_brute_governors(g, table), _brute_governors(p, table)):
            total += 1
            good += a == b
    assert module_uas == 100.0 * good / total


# --------------------------------------------------------- criterion 10

def test_criterion_10_format_round_trips_on_100_discontinuous_trees(tmp_path):
    rng = random.Random(1010)
    trees = [random_tree(rng, max_block_degree=4, require_discontinuity=True,
                         sent_id=str(i + 1))
             for i in range(100)]
    assert all(any(tree.block_degree(nid) > 1 for nid in tree.nodes)
               for tree in trees)

    exp = tmp_path / "rt.export"
    write_export(trees, exp)
    back = read_export(exp)
    assert len(back) == 100
    for a, b in zip(trees, back):
        assert a.signature() == b.signature()
        assert [t.form for t in a.tokens] == [t.form for t in b.tokens]

    dbr = tmp_path / "rt.discbracket"
    write_discbracket(trees, dbr)
    back = read_discbracket(dbr)
    assert len(back) == 100
    for a, b in zip(trees, back):
        assert a.signature() == b.signature()
