import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoparse.evaluate import (
    EvalConfig,
    bracket_f1,
    effective_length,
    evaluate,
    exact_match,
    induced_governors,
    node_heads,
    sentence_brackets,
    uas,
)
from discoparse.headrules import LTR, HeadTable, TagClassification, induce_head_table
from discoparse.synthdata import (
    build_tree,
    planted_head_table,
    planted_sentence,
    random_tree,
    toy_corpus,
    toy_sentence_of_length,
)
from discoparse.treebank import AlignmentError, ConstTree

PUNCT_TAGS = TagClassification({"$.": "punctuation", "$,": "punctuation"})


def chain_tree(depth, label="NP", mislabel_at=None, wrong="PP"):
    """Right nested chain with ``depth`` non-root brackets under S."""
    toks = [(f"w{i}", "NN") for i in range(depth + 1)]
    spec = depth  # innermost leaf
    for d in range(depth):
        lab = wrong if mislabel_at == d else label
        spec = (lab, [depth - 1 - d, spec])
    return build_tree(toks, ("S", [spec]))


# ------------------------------------------------------------- brackets

def test_identity_is_perfect():
    t = chain_tree(4)
    rep = evaluate([t], [t])
    assert (rep.precision, rep.recall, rep.f1, rep.exact) == (100.0,) * 4


def test_one_mislabel_in_ten_brackets_gives_90():
    gold = chain_tree(10)
    pred = chain_tree(10, mislabel_at=5)
    rep = bracket_f1([gold], [pred])
    assert rep.precision == rep.recall == rep.f1 == 90.0
    assert rep.exact == 0.0


def test_discontinuous_bracket_needs_exact_index_set():
    toks = [("geht", "VVFIN"), ("er", "PPER"), ("heim", "PTKVZ")]
    gold = build_tree(toks, ("S", [("VP", [0, 2]), 1]))
    pred = build_tree(toks, ("S", [("VP", [0, 1, 2])]))
    rep = bracket_f1([gold], [pred])
    # the contiguous approximation of the {0, 2} yield is a miss
    assert rep.f1 == 0.0


def test_root_bracket_excluded_by_default():
    toks = [("a", "A"), ("b", "B")]
    gold = build_tree(toks, ("S", [("NP", [0, 1])]))
    pred = build_tree(toks, ("TOP", [("NP", [0, 1])]))
    assert bracket_f1([gold], [pred]).f1 == 100.0
    cfg = EvalConfig(exclude_root=False)
    assert bracket_f1([gold], [pred], cfg).f1 == 50.0


def test_exact_match_half():
    gold = [chain_tree(3), chain_tree(3)]
    pred = [chain_tree(3), chain_tree(3, mislabel_at=1)]
    assert exact_match(gold, pred) == 50.0


def test_exact_hundred_implies_f1_hundred():
    # filtering can empty the bracket sets; EX = 100 must still force F1 = 100
    toks = [(".", "$."), ("!", "$.")]
    gold = build_tree(toks, ("S", [("NP", [0]), 1]))
    pred = build_tree(toks, ("S", [("PP", [0]), 1]))
    cfg = EvalConfig(drop_punct=True, tagclass=PUNCT_TAGS)
    rep = bracket_f1([gold], [pred], cfg)
    assert rep.exact == 100.0
    assert rep.f1 == 100.0


def test_symmetry_swaps_p_and_r():
    rng = random.Random(1)
    gold = random_tree(rng, n_tokens=8)
    other = random_tree(rng, n_tokens=8)
    pred = ConstTree(gold.tokens, other.nodes, other.root_id)
    a = bracket_f1([gold], [pred])
    b = bracket_f1([pred], [gold])
    assert a.precision == b.recall and a.recall == b.precision
    assert a.f1 == b.f1


def test_length_cutoff_filters_sentences():
    short = chain_tree(2)   # 3 tokens
    long = chain_tree(9)    # 10 tokens
    bad_long = chain_tree(9, mislabel_at=0)
    cfg = EvalConfig(max_len=5)
    rep = bracket_f1([short, long], [short, bad_long], cfg)
    assert rep.sentences == 1
    assert rep.f1 == 100.0


def test_cutoff_counts_length_after_punct_drop():
    toks = [("a", "NN"), ("b", "NN"), (".", "$."), ("!", "$.")]
    tree = build_tree(toks, ("S", [("NP", [0, 1]), 2, 3]))
    cfg = EvalConfig(max_len=2, drop_punct=True, tagclass=PUNCT_TAGS)
    assert effective_length(tree, cfg) == 2
    assert bracket_f1([tree], [tree], cfg).sentences == 1


def test_punct_drop_deletes_emptied_brackets():
    toks = [("a", "NN"), (".", "$.")]
    gold = build_tree(toks, ("S", [("NP", [0]), ("X", [1])]))
    pred = build_tree(toks, ("S", [("NP", [0]), ("Y", [1])]))
    cfg = EvalConfig(drop_punct=True, tagclass=PUNCT_TAGS)
    rep = bracket_f1([gold], [pred], cfg)
    # the X/Y disagreement sits on a bracket that punctuation removal empties
    assert rep.f1 == 100.0 and rep.exact == 100.0
    assert sentence_brackets(gold, cfg) == {("NP", frozenset({0})): 1}


def test_unary_duplicate_brackets_are_multiset():
    toks = [("a", "NN"), ("b", "NN")]
    gold = build_tree(toks, ("S", [("NP", [("NP", [0])]), 1]))
    pred = build_tree(toks, ("S", [("NP", [0]), 1]))
    rep = bracket_f1([gold], [pred])
    assert rep.recall == 50.0 and rep.precision == 100.0


def test_unfiltered_equals_infinite_cutoff_with_punct_kept():
    rng = random.Random(2)
    golds, preds = [], []
    for _ in range(20):
        g = random_tree(rng, n_tokens=rng.randint(3, 9))
        other = random_tree(rng, n_tokens=len(g.tokens))
        p = ConstTree(g.tokens, other.nodes, other.root_id)
        golds.append(g)
        preds.append(p)
    base = bracket_f1(golds, preds)
    explicit = bracket_f1(golds, preds, EvalConfig(max_len=10 ** 9,
                                                   drop_punct=False))
    assert base == explicit


def test_per_label_consistency_with_overall():
    rng = random.Random(3)
    golds, preds, labels = [], [], set()
    for _ in range(25):
        g = random_tree(rng, n_tokens=rng.randint(3, 9))
        other = random_tree(rng, n_tokens=len(g.tokens))
        p = ConstTree(g.tokens, other.nodes, other.root_id)
        golds.append(g)
        preds.append(p)
        for t in (g, p):
            labels |= {nd.label for nd in t.internal_nodes()}
    cfg = EvalConfig(labels=tuple(sorted(labels)))
    rep = bracket_f1(golds, preds, cfg)
    # reconstruct overall counts from per-label P/R (brute sum of counts)
    # via the brute-force scorer below
    brute = brute_bracket_counts(golds, preds, cfg)
    by_label_match = sum(m for m, _, _ in brute.values())
    by_label_gold = sum(g for _, g, _ in brute.values())
    by_label_pred = sum(p for _, _, p in brute.values())
    assert rep.f1 == pytest.approx(
        _f1(by_label_match, by_label_gold, by_label_pred))


def test_tokenization_mismatch_raises():
    a = chain_tree(2)
    b = build_tree([("x", "NN"), ("y", "NN"), ("z", "NN")],
                   ("S", [("NP", [0, 1, 2])]))
    with pytest.raises(AlignmentError):
        bracket_f1([a], [b])


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(max_len=0)
    with pytest.raises(ValueError):
        EvalConfig(drop_punct=True)


# ------------------------------------------------------------------ UAS

UAS_TABLE = HeadTable({
    "S": [(LTR, ["VP", "VVFIN"])],
    "VP": [(LTR, ["VVFIN"])],
    "NP": [(LTR, ["NN"])],
})


def test_uas_identity():
    toks = [("der", "ART"), ("hund", "NN"), ("sieht", "VVFIN"), ("was", "NN")]
    t = build_tree(toks, ("S", [("NP", [0, 1]), ("VP", [2, 3])]))
    assert uas([t], [t], UAS_TABLE) == 100.0


def test_uas_single_token_sentence_is_vacuous():
    t = build_tree([("ja", "PTKANT")], ("S", [0]))
    assert uas([t], [t], UAS_TABLE) == 100.0


def test_uas_hand_percolated_75():
    toks = [("der", "ART"), ("hund", "NN"), ("sieht", "VVFIN"), ("katze", "NN")]
    gold = build_tree(toks, ("S", [("NP", [0, 1]), ("VP", [2, 3])]))
    pred = build_tree(toks, ("S", [("NP", [0, 1, 3]), ("VP", [2])]))
    assert induced_governors(gold, UAS_TABLE) == [1, 2, -1, 2]
    assert induced_governors(pred, UAS_TABLE) == [1, 2, -1, 1]
    assert uas([gold], [pred], UAS_TABLE) == 75.0


def test_uas_percolation_heads():
    toks = [("der", "ART"), ("hund", "NN"), ("sieht", "VVFIN"), ("was", "NN")]
    t = build_tree(toks, ("S", [("NP", [0, 1]), ("VP", [2, 3])]))
    heads = node_heads(t, UAS_TABLE)
    labels = {t.nodes[nid].label: h for nid, h in heads.items()}
    assert labels == {"NP": 1, "VP": 2, "S": 2}


def test_uas_skips_dropped_punctuation():
    toks = [("a", "NN"), ("b", "VVFIN"), (".", "$.")]
    gold = build_tree(toks, ("S", [("NP", [0]), ("VP", [1]), 2]))
    pred = build_tree(toks, ("S", [("NP", [0, 2]), ("VP", [1])]))
    cfg = EvalConfig(drop_punct=True, tagclass=PUNCT_TAGS)
    # only the period's attachment differs and it is not scored
    assert uas([gold], [pred], UAS_TABLE, cfg) == 100.0
    assert uas([gold], [pred], UAS_TABLE) < 100.0


def test_evaluate_bundles_uas():
    t = chain_tree(3)
    rep = evaluate([t], [t], table=UAS_TABLE)
    assert rep.uas == 100.0
    assert "UAS" in rep.format_text()
    assert "uas=100.0" in rep.format_kv()


# ------------------------------------------------- brute-force reference

def _f1(match, gold_total, pred_total):
    if match == gold_total == pred_total:
        return 100.0
    p = 100.0 * match / pred_total if pred_total else 0.0
    r = 100.0 * match / gold_total if gold_total else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def brute_brackets(tree, cfg):
    drop = set()
    if cfg.drop_punct:
        drop = {t.index for t in tree.tokens if cfg.tagclass.is_punct(t.pos)}
    out = []
    for nid, node in tree.nodes.items():
        if cfg.exclude_root and nid == tree.root_id:
            continue
        kept = tuple(sorted(set(node.leaves) - drop))
        if kept:
            out.append((node.label, kept))
    return sorted(out)


def brute_bracket_counts(golds, preds, cfg):
    """Per-label (match, gold, pred) counts by explicit list removal."""
    counts = {}
    for g, p in zip(golds, preds):
        if cfg.max_len is not None:
            n = sum(1 for t in g.tokens
                    if not (cfg.drop_punct and cfg.tagclass.is_punct(t.pos)))
            if n > cfg.max_len:
                continue
        gb = brute_brackets(g, cfg)
        pool = list(brute_brackets(p, cfg))
        for item in pool:
            lab = item[0]
            counts.setdefault(lab, [0, 0, 0])[2] += 1
        for item in gb:
            lab = item[0]
            counts.setdefault(lab, [0, 0, 0])[1] += 1
            if item in pool:
                pool.remove(item)
                counts[lab][0] += 1
    return {k: tuple(v) for k, v in counts.items()}


def brute_report(golds, preds, cfg):
    counts = brute_bracket_counts(golds, preds, cfg)
    match = sum(m for m, _, _ in counts.values())
    gt = sum(g for _, g, _ in counts.values())
    pt = sum(p for _, _, p in counts.values())
    exact = 0
    n = 0
    for g, p in zip(golds, preds):
        if cfg.max_len is not None:
            ln = sum(1 for t in g.tokens
                     if not (cfg.drop_punct and cfg.tagclass.is_punct(t.pos)))
            if ln > cfg.max_len:
                continue
        n += 1
        exact += brute_brackets(g, cfg) == brute_brackets(p, cfg)
    p_ = 100.0 * match / pt if pt else 0.0
    r_ = 100.0 * match / gt if gt else 0.0
    if match == gt == pt:
        p_ = r_ = 100.0
    return {
        "precision": p_, "recall": r_, "f1": _f1(match, gt, pt),
        "exact": 100.0 * exact / n if n else 100.0,
    }


@pytest.mark.parametrize("seed", [5, 6])
def test_matches_brute_force_on_random_pairs(seed):
    rng = random.Random(seed)
    configs = [
        EvalConfig(),
        EvalConfig(max_len=6),
        EvalConfig(exclude_root=False),
        EvalConfig(drop_punct=True, tagclass=PUNCT_TAGS),
    ]
    golds, preds = [], []
    for _ in range(25):
        g = random_tree(rng, n_tokens=rng.randint(2, 9))
        other = random_tree(rng, n_tokens=len(g.tokens))
        p = ConstTree(g.tokens, other.nodes, other.root_id)
        golds.append(g)
        preds.append(p)
    for cfg in configs:
        rep = bracket_f1(golds, preds, cfg)
        ref = brute_report(golds, preds, cfg)
        assert rep.precision == ref["precision"]
        assert rep.recall == ref["recall"]
        assert rep.f1 == ref["f1"]
        assert rep.exact == ref["exact"]


# ---------------------------------------------- governor reference

def reference_governors(tree, table):
    """Per token, the head of the smallest constituent that contains it
    and is headed by another token, found by scanning every node."""
    heads = node_heads(tree, table)
    gov = [-1] * len(tree.tokens)
    for t in range(len(tree.tokens)):
        best = None
        for nid, node in tree.nodes.items():
            if t in node.leaves and heads[nid] != t:
                if best is None or len(node.leaves) < best[0]:
                    best = (len(node.leaves), nid)
        if best is not None:
            gov[t] = heads[best[1]]
    return gov


GOVERNOR_TABLES = {
    "planted": planted_head_table(),
    "toy": induce_head_table(toy_corpus(60, random.Random(3))),
    "uas": UAS_TABLE,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "toy", "planted"]),
       table=st.sampled_from(sorted(GOVERNOR_TABLES)),
       unary_prob=st.sampled_from([0.0, 0.15, 0.6]))
def test_induced_governors_equal_smallest_containing_constituent(seed, kind, table, unary_prob):
    rng = random.Random(seed)
    if kind == "random":
        tree = random_tree(rng, n_tokens=rng.randint(2, 14), unary_prob=unary_prob)
    elif kind == "toy":
        tree, _ = toy_sentence_of_length(rng, rng.randint(6, 20))
    else:
        tree, dep = planted_sentence(rng, GOVERNOR_TABLES["planted"])
        ref = reference_governors(tree, GOVERNOR_TABLES["planted"])
        assert dep.heads == [g + 1 for g in ref]
    table = GOVERNOR_TABLES[table]
    assert induced_governors(tree, table) == reference_governors(tree, table)
