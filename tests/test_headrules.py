import io
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoparse import synthdata
from discoparse.headrules import (
    CLOSED,
    LTR,
    NORMAL,
    PUNCT,
    RTL,
    HeadTable,
    TagClassification,
    TagStats,
    _induce_order,
    classify_tags_heuristic,
    classify_tags_universal,
    collect_tag_stats,
    induce_head_table,
    load_upos_map,
    observed_heads,
)
from discoparse.treebank import DepSentence, Token


def make_pair(token_specs, structure, heads):
    tree = synthdata.build_tree(token_specs, structure)
    dep = DepSentence(list(tree.tokens), list(heads), ["dep"] * len(heads))
    dep.validate()
    return tree, dep


def test_observed_heads_hand_example():
    tree, dep = make_pair(
        [("der", "ART"), ("Hund", "NN"), ("schläft", "VVFIN")],
        ("S", [("NP", [0, 1]), 2]),
        [2, 3, 0],
    )
    obs = {o.parent_label: o for o in observed_heads(tree, dep)}
    assert obs["S"].child_labels == ["NP", "VVFIN"]
    assert obs["S"].head_positions == frozenset({1})
    assert obs["S"].head_tokens == frozenset({2})
    assert obs["NP"].child_labels == ["ART", "NN"]
    assert obs["NP"].head_positions == frozenset({1})


def test_observed_heads_discontinuous_phrase():
    # VP covers {0, 2}; its internal head is the token whose governor lies
    # outside the phrase
    tree, dep = make_pair(
        [("a", "PTKVZ"), ("b", "NN"), ("c", "VVFIN")],
        ("S", [("VP", [0, 2]), 1]),
        [3, 3, 0],
    )
    obs = {o.parent_label: o for o in observed_heads(tree, dep)}
    assert obs["VP"].child_labels == ["PTKVZ", "VVFIN"]
    assert obs["VP"].head_positions == frozenset({1})


def induce_order_reference(instances):
    """Slow literal re-derivation of the greedy candidate ordering."""
    candidates = sorted({labels[k] for labels, heads in instances for k in heads})
    order = []
    while candidates:
        scores = {}
        for lab in candidates:
            wins = losses = 0
            for labels, heads in instances:
                for i, li in enumerate(labels):
                    for j, lj in enumerate(labels):
                        if i >= j or li == lj:
                            continue
                        if li not in candidates or lj not in candidates:
                            continue
                        if i in heads:
                            if li == lab:
                                wins += 1
                            if lj == lab:
                                losses += 1
                        if j in heads:
                            if lj == lab:
                                wins += 1
                            if li == lab:
                                losses += 1
            scores[lab] = (wins - losses, wins)
    # pick the best-scoring candidate, ties by raw wins then alphabet
        best = sorted(candidates, key=lambda lab: (-scores[lab][0], -scores[lab][1], lab))[0]
        left = right = 0
        for labels, heads in instances:
            spots = [k for k, lab in enumerate(labels) if lab == best]
            for a in range(len(spots)):
                for b in range(a + 1, len(spots)):
                    left += spots[a] in heads
                    right += spots[b] in heads
        order.append((best, RTL if right > left else LTR))
        candidates.remove(best)
    return order


def test_induce_order_ranks_by_wins_minus_losses():
    instances = (
        [(["A", "B"], frozenset({0}))] * 3
        + [(["B", "C"], frozenset({0}))] * 2
        + [(["A", "C"], frozenset({1}))] * 1
    )
    assert [lab for lab, _ in _induce_order(instances)] == ["A", "B", "C"]


def test_induce_order_tiebreaks():
    # A and C tie on wins minus losses; A has more raw wins.  B never
    # meets another candidate, so its rank falls back to the alphabet.
    instances = (
        [(["A", "C"], frozenset({0}))] * 5
        + [(["A", "C"], frozenset({1}))] * 5
        + [(["B", "X"], frozenset({0}))] * 1
    )
    order = [lab for lab, _ in _induce_order(instances)]
    assert order == ["A", "B", "C"]


def test_induce_order_direction_from_same_label_conflicts():
    instances = (
        [(["N", "N"], frozenset({1}))] * 3
        + [(["N", "N"], frozenset({0}))] * 1
    )
    assert _induce_order(instances) == [("N", RTL)]
    # equal counts keep the left-to-right default
    balanced = [(["N", "N"], frozenset({1}))] * 2 + [(["N", "N"], frozenset({0}))] * 2
    assert induce_order_reference(balanced) == [("N", LTR)]
    assert _induce_order(balanced) == [("N", LTR)]


def test_induce_order_matches_reference_on_random_instances():
    rng = random.Random(11)
    alphabet = ["A", "B", "C", "D"]
    for _ in range(200):
        instances = []
        for _ in range(rng.randint(1, 12)):
            labels = [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
            heads = frozenset({rng.randrange(len(labels))})
            instances.append((labels, heads))
        assert _induce_order(instances) == induce_order_reference(instances)


def test_induce_head_table_singleton_rule_and_merging():
    pairs = []
    for _ in range(4):
        pairs.append(make_pair(
            [("der", "ART"), ("Hund", "NN"), ("schläft", "VVFIN")],
            ("S", [("NP", [0, 1]), ("VP", [2])]),
            [2, 3, 0],
        ))
    table = induce_head_table(pairs)
    assert table.rules["S"] == [(LTR, ["VP"])]
    assert table.rules["NP"] == [(LTR, ["NN"])]
    assert table.rules["VP"] == [(LTR, ["VVFIN"])]


def test_induce_head_table_merges_same_direction_runs():
    # D always beats E; E's two same-label conflicts prefer the right one
    pairs = []
    for _ in range(4):
        pairs.append(make_pair(
            [("x", "D"), ("y", "E")], ("Z", [0, 1]), [0, 1]))
    for _ in range(2):
        pairs.append(make_pair(
            [("y", "E"), ("z", "E")], ("Z", [0, 1]), [2, 0]))
    table = induce_head_table(pairs)
    assert table.rules["Z"] == [(LTR, ["D"]), (RTL, ["E"])]


def test_find_head_child_label_priority_beats_position():
    table = HeadTable({"NP": [(LTR, ["NN", "NE"])]})
    assert table.find_head_child("NP", ["NE", "NN"]) == 1
    assert table.find_head_child("NP", ["NE", "XY"]) == 0
    assert table.find_head_child("NP", ["XY", "ZZ"], default=0) == 0
    assert table.find_head_child_or_none("NP", ["XY", "ZZ"]) is None
    assert table.find_head_child_or_none("??", ["NN"]) is None


def test_find_head_child_rtl_scans_from_the_right():
    table = HeadTable({"Y": [(RTL, ["N"])]})
    assert table.find_head_child("Y", ["N", "X", "N"]) == 2


def test_head_table_save_load_roundtrip(tmp_path):
    table = HeadTable({"S": [(LTR, ["VP", "S"]), (RTL, ["NP"])],
                       "NP": [(RTL, ["NN", "NE"])]})
    path = tmp_path / "heads.txt"
    table.save(path, header="induced on toy data")
    loaded = HeadTable.load(path)
    assert loaded.rules == table.rules
    # the short direction aliases are accepted on input
    alias = io.StringIO("S right NP\nS left VP\n")
    assert HeadTable.load(alias).rules == {"S": [(RTL, ["NP"]), (LTR, ["VP"])]}
    with pytest.raises(ValueError, match="direction"):
        HeadTable.load(io.StringIO("S sideways NP\n"))


def test_planted_corpus_recovery_smoke():
    rng = random.Random(5)
    corpus, planted = synthdata.planted_corpus(rng, 200)
    induced = induce_head_table(corpus)
    mismatches = 0
    total = 0
    for tree, dep in corpus:
        for obs in observed_heads(tree, dep):
            total += 1
            want = planted.find_head_child(obs.parent_label, obs.child_labels)
            got = induced.find_head_child(obs.parent_label, obs.child_labels)
            mismatches += want != got
    assert total > 500
    assert mismatches == 0


def test_classify_tags_universal(caplog):
    counts = Counter({"APPR": 5, "KON": 3, "NN": 10, "$,": 2, "XY": 1})
    upos = {"APPR": "ADP", "KON": "CONJ", "NN": "NOUN", "$,": "."}
    with caplog.at_level(logging.WARNING):
        cls = classify_tags_universal(counts, upos)
    assert cls.of("APPR") == CLOSED
    assert cls.of("KON") == CLOSED
    assert cls.of("NN") == NORMAL
    assert cls.of("$,") == PUNCT
    assert cls.of("XY") == NORMAL
    assert "XY" in caplog.text
    assert cls.of("NEVER_SEEN") == NORMAL


def test_load_upos_map(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("# fine\tuniversal\nAPPR\tADP\nNN NOUN\n")
    assert load_upos_map(path) == {"APPR": "ADP", "NN": "NOUN"}
    with pytest.raises(ValueError):
        load_upos_map(io.StringIO("APPR ADP NOUN extra\n"))


def test_collect_tag_stats():
    sents = [
        [Token(0, "der", pos="ART"), Token(1, "Hund", pos="NN"), Token(2, ".", pos="$.")],
        [Token(0, "die", pos="ART"), Token(1, "Katze", pos="NN"), Token(2, "!", pos="$.")],
    ]
    stats = collect_tag_stats(sents)
    assert stats["ART"] == TagStats(tokens=2, distinct_forms=2, with_letter=2, with_punct=0)
    assert stats["$."] == TagStats(tokens=2, distinct_forms=2, with_letter=0, with_punct=2)


def test_classify_tags_heuristic_thresholds():
    stats = {
        "$.": TagStats(tokens=50, distinct_forms=3, with_letter=0, with_punct=50),
        "MIXED": TagStats(tokens=50, distinct_forms=10, with_letter=5, with_punct=45),
        "APPR": TagStats(tokens=101, distinct_forms=39, with_letter=101, with_punct=0),
        "EDGE1": TagStats(tokens=100, distinct_forms=39, with_letter=100, with_punct=0),
        "EDGE2": TagStats(tokens=101, distinct_forms=40, with_letter=101, with_punct=0),
        "NN": TagStats(tokens=500, distinct_forms=400, with_letter=500, with_punct=3),
    }
    cls = classify_tags_heuristic(stats)
    assert cls.of("$.") == PUNCT
    # five or more letter-bearing tokens rule out the punctuation class
    assert cls.of("MIXED") == NORMAL
    assert cls.of("APPR") == CLOSED
    assert cls.of("EDGE1") == NORMAL
    assert cls.of("EDGE2") == NORMAL
    assert cls.of("NN") == NORMAL


def test_tag_classification_save_load(tmp_path):
    cls = TagClassification({"APPR": CLOSED, "$.": PUNCT, "NN": NORMAL})
    path = tmp_path / "classes.txt"
    cls.save(path, header="heuristic")
    assert TagClassification.load(path).classes == cls.classes
    with pytest.raises(ValueError):
        TagClassification.load(io.StringIO("APPR\topen_class\n"))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_induced_table_always_picks_a_valid_child(seed):
    rng = random.Random(seed)
    corpus, _ = synthdata.planted_corpus(rng, 10)
    table = induce_head_table(corpus)
    for tree, dep in corpus:
        for obs in observed_heads(tree, dep):
            k = table.find_head_child(obs.parent_label, obs.child_labels)
            assert 0 <= k < len(obs.child_labels)
