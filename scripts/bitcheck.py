#!/usr/bin/env python3
"""Print bit-identity digests of training and parsing on fixed seeds.

For each feature config (default templates, Brown clusters full+6bit,
bigram buckets), with and without ``continue_after_error``, trains a
parser on the toy corpus and prints one SHA-256 over the trained
weights, the AdaGrad accumulators, the per-epoch ``updates``/``clean``
counts and the parses of 40 held-out sentences.  A refactor that claims
to keep behaviour prints the same lines before and after.

Usage: python3 scripts/bitcheck.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discoparse.bigrams import LL, count_pairs, score_counts
from discoparse.clusters import FULL, SIX_BIT, ClusterLexicon
from discoparse.engine import EasyFirstParser, label_inventory
from discoparse.features import FeatureConfig
from discoparse.headrules import induce_head_table
from discoparse.learner import WeightStore
from discoparse.synthdata import toy_corpus
from discoparse.treebank import discbracket_line

TRAIN = 80
EPOCHS = 4
DIM = 2 ** 18


def toy_lexicon(trees):
    """Deterministic 8-bit cluster paths for four of every five forms,
    so that lookups both hit and miss."""
    forms = sorted({t.form for tree in trees for t in tree.tokens})
    return ClusterLexicon({f: format(k * 37 % 256, "08b")
                           for k, f in enumerate(forms) if k % 5})


def digest(parser, stats, dev):
    h = hashlib.sha256()
    h.update(parser.store.weights.tobytes())
    h.update(parser.store.gradsq.tobytes())
    h.update(json.dumps([(e["updates"], e["clean"]) for e in stats["epochs"]]).encode())
    for tree in dev:
        h.update(discbracket_line(parser.parse_tokens(tree.tokens)).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def main():
    corpus = toy_corpus(TRAIN, random.Random(9))
    trees = [t for t, _ in corpus]
    dev = [t for t, _ in toy_corpus(40, random.Random(10))]
    table = induce_head_table(corpus)
    labels = label_inventory(trees)
    configs = {
        "default": (FeatureConfig(dim=DIM), {}),
        "clusters": (FeatureConfig(dim=DIM, cluster_kinds=(FULL, SIX_BIT)),
                     {"lexicon": toy_lexicon(trees)}),
        "bigrams": (FeatureConfig(dim=DIM),
                    {"bigram_model": score_counts(count_pairs(d for _, d in corpus), LL)}),
    }
    total = hashlib.sha256()
    for name, (feat, resources) in configs.items():
        for cae in (False, True):
            parser = EasyFirstParser(WeightStore(DIM), feat, table, labels, **resources)
            stats = parser.train(trees, epochs=EPOCHS, seed=42,
                                 continue_after_error=cae)
            d = digest(parser, stats, dev)
            total.update(d.encode())
            print(f"{name:9s} continue_after_error={cae!s:5s} {d}")
    print(f"{'all':9s} {'':26s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
