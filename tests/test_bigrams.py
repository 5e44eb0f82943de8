import io
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discoparse import synthdata
from discoparse.bigrams import (
    LL,
    RAW,
    ROOT,
    Bucket,
    BigramAssocModel,
    count_pairs,
    g_squared,
    quantile_cuts,
    score_counts,
)
from discoparse.treebank import DepSentence, Token

# reference for the table [[10,10],[20,960]], computed once at 50-digit
# precision and frozen here
G2_10_10_20_960 = 46.496605783458095


def dep(forms, heads):
    return DepSentence([Token(index=i, form=f, pos="X") for i, f in enumerate(forms)],
                       list(heads), ["dep"] * len(forms))


def test_count_pairs_single_sentence():
    counts = count_pairs([dep(["a", "b"], [2, 0])])
    assert counts[("b", "a")] == 1
    assert counts[(ROOT, "b")] == 1
    # every token contributes exactly one pair
    assert counts.total() == 2


def test_count_pairs_additivity():
    one = count_pairs([dep(["a", "b"], [2, 0])])
    two = count_pairs([dep(["a", "b"], [2, 0])] * 2)
    assert two == Counter({k: 2 * v for k, v in one.items()})


def test_count_pairs_total_is_token_count():
    rng = random.Random(9)
    sents = [synthdata.random_dep_sentence(rng) for _ in range(1000)]
    counts = count_pairs(sents)
    assert counts.total() == sum(len(s.tokens) for s in sents)


def test_l1_direct_ratio():
    counts = Counter({("h", "d"): 3, ("h", "x"): 9})
    model = score_counts(counts, "l1")
    assert model.scores["h"]["d"] == pytest.approx(0.25, abs=1e-12)
    assert model.scores["h"]["x"] == pytest.approx(0.75, abs=1e-12)


def test_l1_sums_to_one_per_head():
    rng = random.Random(13)
    pairs = Counter({(f"h{rng.randrange(5)}", f"d{rng.randrange(30)}"): rng.randint(2, 50)
                     for _ in range(200)})
    model = score_counts(pairs, "l1", min_count=2)
    for head, per in model.scores.items():
        assert math.fsum(per.values()) == pytest.approx(1.0, abs=1e-9)


def test_g_squared_frozen_reference():
    got = g_squared(10, 20, 30, 1000)
    assert abs(got - G2_10_10_20_960) <= 1e-9 * G2_10_10_20_960


def test_g_squared_exact_independence_is_zero():
    # 1*100 == 10*10: observed equals expected in every cell
    assert g_squared(1, 10, 10, 100) == 0.0
    assert g_squared(4, 20, 20, 100) == 0.0


def test_g_squared_rejects_bad_tables():
    with pytest.raises(ValueError):
        g_squared(5, 3, 10, 100)
    with pytest.raises(ValueError):
        g_squared(0, 0, 0, 0)


@settings(max_examples=300)
@given(st.integers(1, 400), st.integers(0, 400), st.integers(0, 400), st.integers(0, 400))
def test_g_squared_nonnegative(o11, o12, o21, o22):
    n = o11 + o12 + o21 + o22
    assert g_squared(o11, o11 + o12, o11 + o21, n) >= 0.0


def test_score_counts_min_count_pruning():
    counts = Counter({("h", "d"): 5, ("h", "rare"): 1})
    model = score_counts(counts, "raw")
    assert "rare" not in model.scores["h"]
    keep_all = score_counts(counts, "raw", min_count=1)
    assert keep_all.scores["h"]["rare"] == 1.0
    # marginals are recomputed after pruning, so L1 still sums to 1
    l1 = score_counts(counts, "l1")
    assert l1.scores["h"]["d"] == 1.0


def test_score_counts_drops_independent_ll_pairs():
    # a perfectly independent pair scores 0 and is therefore absent
    pairs = Counter({("h", "d"): 2, ("h", "x"): 18, ("g", "d"): 18, ("g", "x"): 162})
    model = score_counts(pairs, "ll")
    assert model.query("h", "d") == Bucket.NO


def test_score_counts_errors():
    with pytest.raises(ValueError, match="scorer"):
        score_counts(Counter(), "chi2")
    with pytest.raises(ValueError, match="empty"):
        score_counts(Counter({("h", "d"): 1}), "ll")


def bucket_model(values):
    scores = {"h": {f"d{i}": v for i, v in enumerate(values)}}
    return BigramAssocModel(RAW, scores, {"h": quantile_cuts(values)})


def test_bucket_ranks_k10():
    model = bucket_model([20.0 - i for i in range(10)])
    buckets = [model.query("h", f"d{i}") for i in range(10)]
    assert buckets[0] == Bucket.HI
    assert buckets[1] == buckets[2] == Bucket.MI
    assert all(b == Bucket.LO for b in buckets[3:])
    assert model.query("h", "unseen") == Bucket.NO
    assert model.query("unseen_head", "d0") == Bucket.NO


def test_bucket_single_dependent_is_hi():
    model = bucket_model([3.5])
    assert model.query("h", "d0") == Bucket.HI


def test_bucket_rank4_of_20_is_mi():
    model = bucket_model([100.0 - i for i in range(20)])
    assert model.query("h", "d3") == Bucket.MI
    assert model.query("h", "d1") == Bucket.HI
    assert model.query("h", "d6") == Bucket.LO


def test_bucket_ties_share_better_bucket():
    model = bucket_model([5.0, 5.0] + [1.0] * 8)
    assert model.query("h", "d0") == Bucket.HI
    assert model.query("h", "d1") == Bucket.HI


def test_bucket_order():
    assert Bucket.HI > Bucket.MI > Bucket.LO > Bucket.NO


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=40))
def test_bucket_monotone_in_score(values):
    model = bucket_model(values)
    pairs = sorted(zip(values, range(len(values))), reverse=True)
    buckets = [model.query("h", f"d{i}") for _, i in pairs]
    assert all(a >= b for a, b in zip(buckets, buckets[1:]))
    k = len(values)
    eligible_hi = (k + 9) // 10
    eligible_mi = (3 * k + 9) // 10
    n_hi = sum(b == Bucket.HI for b in buckets)
    n_mi = sum(b >= Bucket.MI for b in buckets)
    # ties can only widen the sets, never shrink them
    assert n_hi >= eligible_hi and n_mi >= eligible_mi
    assert n_hi <= n_mi <= k


def test_model_save_load_roundtrip(tmp_path):
    rng = random.Random(21)
    pairs = Counter({(f"h{rng.randrange(6)}", f"d{rng.randrange(40)}"): rng.randint(2, 99)
                     for _ in range(300)})
    for scorer in ("raw", "l1", "ll"):
        model = score_counts(pairs, scorer)
        path = tmp_path / f"model_{scorer}.txt"
        model.save(path)
        back = BigramAssocModel.load(path)
        assert back.scorer == model.scorer
        assert back.scores == model.scores
        assert back.thresholds == model.thresholds


def test_model_load_rejects_garbage():
    with pytest.raises(ValueError, match="scorer"):
        BigramAssocModel.load(io.StringIO("not a model\n"))
    with pytest.raises(ValueError, match="scorer"):
        BigramAssocModel.load(io.StringIO("scorer\tchi2\npairs\t0\nthresholds\t0\n"))


GOOD_MODEL = "scorer\traw\npairs\t2\nh\td\t3.0\nh\tx\t1.0\nthresholds\t1\nh\t3.0\t1.0\n"


@pytest.mark.parametrize("text, message", [
    # a scored head without thresholds would raise KeyError in query
    (GOOD_MODEL.replace("thresholds\t1\nh\t3.0\t1.0\n", "thresholds\t0\n"),
     r"line 3: head 'h' has no thresholds"),
    (GOOD_MODEL + "g\t2.0\t1.0\n", r"line 7: data after the last threshold"),
    (GOOD_MODEL.replace("h\tx\t1.0", "h\t1.0"), r"line 4: expected 3 tab-separated fields"),
    (GOOD_MODEL.replace("h\tx\t1.0", "h\tx\tmany"), r"line 4: could not convert"),
    (GOOD_MODEL.replace("pairs\t2", "pairs\ttwo"), r"line 2: invalid literal"),
    ("# config abc\nscorer\traw\npairs\t2\nh\td\t3.0\n", r"ends early, after line 4"),
], ids=["no-thresholds", "trailing-data", "short-pair", "bad-score", "bad-count", "ends-early"])
def test_model_load_refuses_what_query_would_trip_over(text, message):
    with pytest.raises(ValueError, match=message):
        BigramAssocModel.load(io.StringIO(text))


# forms without control characters or ASCII spaces; "#"-initial and NBSP-bearing
# ones included
FORMS = st.text(st.characters(exclude_categories=("C",), exclude_characters=" "),
                min_size=1, max_size=4)
FORMS = st.one_of(FORMS, FORMS.map("#".__add__), st.just("#"))
SCORES = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(scorer="raw", scores={"#": {"#": 2.0, "#x": 1.0}}, cuts=(2.0, 1.0))
@given(scorer=st.sampled_from(("raw", "l1", "ll")),
       scores=st.dictionaries(FORMS, st.dictionaries(FORMS, SCORES, min_size=1, max_size=4),
                              max_size=5),
       cuts=st.tuples(SCORES, SCORES))
def test_model_save_load_roundtrip_any_forms(scorer, scores, cuts):
    model = BigramAssocModel(scorer, scores, {head: cuts for head in scores})
    out = io.StringIO()
    model.save(out, header="config abc")
    assert BigramAssocModel.load(io.StringIO(out.getvalue())) == model
