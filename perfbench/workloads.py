"""The benchmark workloads.

A workload has four steps.  ``prepare`` generates the inputs from the seed
and writes them as files (not timed).  ``setup`` does what the program
does before its first training or parsing step, reading those files; it
is timed as ``setup_s`` and repeated.  ``run_round`` does one round of the
measured work; all rounds of a run repeat the same operations.  ``check``
verifies the outputs with the independent checks in ``checks``.

The program is driven through ``discoparse.cli.main`` where a subcommand
does the whole step (``induce-heads``, ``bigram-build``) and otherwise
through the public calls ``cmd_train`` and ``cmd_parse`` make, so that
training and each sentence's parse can be timed on their own.  Module
functions are called through their module (``evaluate.evaluate``), so
that the traced run's wrappers see these calls.
"""

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field

from discoparse import clusters, evaluate
from discoparse.bigrams import BigramAssocModel
from discoparse.cli import main as cli_main
from discoparse.cli import read_trees, write_trees
from discoparse.engine import EasyFirstParser, label_inventory
from discoparse.features import FeatureConfig, config_digest
from discoparse.headrules import HeadTable, TagClassification
from discoparse.learner import WeightStore
from discoparse.treebank import write_conll

import checks
import gen


def cli(*argv):
    """Run one ``discoparse`` subcommand in-process; its report lines go
    to stderr so that stdout ends with the result line."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"discoparse {argv[0]} exited with code {code}")


# ------------------------------------------------- what cmd_train does

def train_parser(trees, table, feat, epochs, tagclass=None, lexicon=None,
                 bigram_model=None):
    """Train as ``discoparse train`` does, per-epoch dev evaluation
    included.  Returns (parser, labels, seconds per epoch)."""
    store = WeightStore(feat.dim)
    store.set_lambda_from_corpus(len(trees), 0.001)
    labels = label_inventory(trees)
    parser = EasyFirstParser(store, feat, table, labels, tagclass=tagclass,
                             lexicon=lexicon, bigram_model=bigram_model)
    dev = trees[:max(1, min(50, len(trees) // 10))]
    ends = [time.perf_counter()]

    def hook(epoch, stats):
        evaluate.evaluate(dev, [parser.parse_tokens(t.tokens, sent_id=t.sent_id) for t in dev])
        ends.append(time.perf_counter())

    parser.train(trees, epochs=epochs, seed=42, epoch_hook=hook)
    return parser, labels, [b - a for a, b in zip(ends, ends[1:])]


def save_model(parser, labels, n_sentences, path):
    feat = parser.extractor.config
    parser.store.save(path, config_digest=config_digest(feat), extra={
        "labels": list(labels),
        "feature_config": {"dim": feat.dim,
                           "cluster_kinds": list(feat.cluster_kinds),
                           "pair_minus1_0": feat.pair_minus1_0,
                           "literal_duplicate_ww": feat.literal_duplicate_ww,
                           "lemma_templates": feat.lemma_templates},
        "sentences": n_sentences,
    })


# ------------------------------------------------- what cmd_parse does

def load_parser(path, table, tagclass=None, lexicon=None, bigram_model=None):
    store = WeightStore.load(path)
    meta = store.extra
    fc = meta["feature_config"]
    feat = FeatureConfig(dim=fc["dim"], cluster_kinds=tuple(fc["cluster_kinds"]),
                         pair_minus1_0=fc["pair_minus1_0"],
                         literal_duplicate_ww=fc["literal_duplicate_ww"],
                         lemma_templates=fc["lemma_templates"])
    return EasyFirstParser(store, feat, table, meta["labels"], tagclass=tagclass,
                           lexicon=lexicon, bigram_model=bigram_model)


def fresh_parser(parser):
    """A parser over the same weights and resources with empty caches."""
    return EasyFirstParser(parser.store, parser.extractor.config, parser.table,
                           parser.inventory.labels, tagclass=parser.tagclass,
                           lexicon=parser.lexicon, bigram_model=parser.extractor.model)


# ----------------------------------------------------------- rounds

@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    epoch_s: list = None           # seconds per training epoch, if it trains
    train_sents: int = 0
    lengths: list = field(default_factory=list)
    times: list = field(default_factory=list)
    preds: list = field(default_factory=list)
    golds: list = field(default_factory=list)
    f1: float = None
    trained: object = None         # in-memory parser of a training round
    loaded: object = None          # the parser that parsed the held-out set

    def strip(self):
        """Drop what only the checks need: parses and models."""
        self.preds = self.golds = self.trained = self.loaded = None


def parse_timed(parser, trees, rnd):
    """Parse each tree's tokens, timing every sentence on its own."""
    for tree in trees:
        rnd.attempted += 1
        t0 = time.perf_counter()
        try:
            pred = parser.parse_tokens(tree.tokens, sent_id=tree.sent_id)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"parse of sentence {tree.sent_id} failed: {exc!r}", file=sys.stderr)
            rnd.failed += 1
            continue
        rnd.times.append(time.perf_counter() - t0)
        rnd.lengths.append(len(tree.tokens))
        rnd.preds.append(pred)
        rnd.golds.append(tree)
    rnd.f1 = evaluate.evaluate(rnd.golds, rnd.preds).f1


def draw(make, count, seen, first_id):
    """``make(k, sent_id)`` for k < ``count``, drawn again while the token
    sequence is in ``seen``, so that no two drawn sentences are equal and
    held-out sentences never occurred in training."""
    out = []
    for k in range(count):
        while True:
            tree, dep = make(k, str(first_id + k))
            key = tuple(t.form for t in tree.tokens)
            if key not in seen:
                break
        seen.add(key)
        out.append((tree, dep))
    return out


def write_pairs(pairs, directory, stem):
    write_trees([t for t, _ in pairs], directory / f"{stem}.export")
    write_conll([d for _, d in pairs], directory / f"{stem}.conll")


# -------------------------------------------------------- workloads

class TrainToy:
    """Error-driven training on short toy sentences that repeat every
    epoch, then parsing a held-out set with the saved and reloaded model."""

    name = "train-toy"
    setup_reps = 7
    sizes = {"full": dict(train=108, held=54, epochs=5, f1_floor=85.0),
             "smoke": dict(train=12, held=6, epochs=2, f1_floor=0.0)}
    dim = 2 ** 20

    def __init__(self, size="full"):
        self.size = self.sizes[size]

    def prepare(self, ctx):
        rng = gen.workload_rng(ctx.seed, self.name, "words")
        seen = set()
        train = draw(lambda k, sid: gen.short_pair(rng, k, sid), self.size["train"], seen, 1)
        held = draw(lambda k, sid: gen.short_pair(rng, k, sid), self.size["held"], seen, 100001)
        write_pairs(train, ctx.dir, "train")
        write_trees([t for t, _ in held], ctx.dir / "held.export")

    def setup(self, ctx):
        d = ctx.dir
        cli("induce-heads", d / "train.export", d / "train.conll",
            "--out-table", d / "toy.heads", "--out-tags", d / "toy.tags")
        return {"trees": read_trees(d / "train.export"),
                "held": read_trees(d / "held.export"),
                "table": HeadTable.load(d / "toy.heads")}

    def features(self):
        return FeatureConfig(dim=self.dim)

    def resources(self, st):
        """Keyword arguments for the parser besides weights and head table."""
        return {}

    def run_round(self, ctx, st):
        rnd = Round()
        trees = st["trees"]
        res = self.resources(st)
        rnd.attempted += 1
        parser, labels, rnd.epoch_s = train_parser(
            trees, st["table"], self.features(), self.size["epochs"], **res)
        rnd.train_sents = len(trees)
        save_model(parser, labels, len(trees), ctx.dir / "model.npz")
        loaded = load_parser(ctx.dir / "model.npz", st["table"], **res)
        parse_timed(loaded, st["held"], rnd)
        write_trees(rnd.preds, ctx.dir / "held.pred.export")
        rnd.trained, rnd.loaded = parser, loaded
        return rnd

    def check(self, ctx, st, rnd):
        sample = st["held"][:10]
        return (checks.check_trees(rnd.golds, rnd.preds)
                + checks.check_f1(rnd.f1, rnd.golds, rnd.preds, self.size["f1_floor"])
                + checks.check_replay(st["trees"], st["table"])
                + round_trip(rnd.trained, rnd.loaded, sample))


def round_trip(trained, loaded, sample):
    """The saved and reloaded model parses like the in-memory one."""
    a = [fresh_parser(trained).parse_tokens(t.tokens, sent_id=t.sent_id) for t in sample]
    b = [fresh_parser(loaded).parse_tokens(t.tokens, sent_id=t.sent_id) for t in sample]
    return checks.check_same_parses(sample, a, b, "reloaded model parses differently")


class ParseLong:
    """A default-size model, trained before timing starts, parses unseen
    toy sentences of 20-320 tokens in interleaved order; every round uses
    a parser with empty caches."""

    name = "parse-long"
    setup_reps = 5
    # one fixed interleaving of the lengths, so that cache warm-up within a
    # round favours neither end
    sizes = {"full": dict(short=36, long=32, epochs=6, f1_floor=50.0,
                          lengths=[20, 320, 40, 20, 80, 20, 40, 160, 20, 40, 80, 20, 40, 20]),
             "smoke": dict(short=10, long=4, epochs=2, f1_floor=0.0,
                           lengths=[20, 80, 40])}
    dim = 2 ** 24
    sample = 4

    def __init__(self, size="full"):
        self.size = self.sizes[size]

    def prepare(self, ctx):
        rng = gen.workload_rng(ctx.seed, self.name, "words")
        seen = set()
        short, long = self.size["short"], self.size["long"]
        train = draw(lambda k, sid: gen.short_pair(rng, k, sid), short, seen, 1)
        # without 20-50-token training sentences, accuracy on the long
        # sentences swings from seed to seed (see README)
        train += draw(lambda k, sid: gen.sized_pair(rng, 20 + 2 * (k % 16),
                                                    ("objpp", "extra")[k // 16 % 2], sid),
                      long, seen, short + 1)
        lengths = self.size["lengths"]
        held = draw(lambda k, sid: gen.sized_pair(rng, lengths[k], "objpp", sid),
                    len(lengths), seen, 100001)
        write_pairs(train, ctx.dir, "train")
        write_trees([t for t, _ in held], ctx.dir / "input.export")

    def train_model(self, ctx):
        """Induce heads, train, save; also parse a sample with the
        in-memory model for the round-trip check.  Returns the training
        measurement."""
        d = ctx.dir
        cli("induce-heads", d / "train.export", d / "train.conll",
            "--out-table", d / "long.heads", "--out-tags", d / "long.tags")
        trees = read_trees(d / "train.export")
        table = HeadTable.load(d / "long.heads")
        epochs = self.size["epochs"]
        parser, labels, epoch_s = train_parser(trees, table, FeatureConfig(dim=self.dim),
                                               epochs)
        save_model(parser, labels, len(trees), d / "model.npz")
        sample = read_trees(d / "input.export")[:self.sample]
        parses = [checks.canonical(parser.parse_tokens(t.tokens, sent_id=t.sent_id))
                  for t in sample]
        result = {"epoch_s": epoch_s, "train_sents": len(trees),
                  "sample_parses": parses,
                  "replay_errors": checks.check_replay(trees, table)}
        (d / "trained.json").write_text(json.dumps(result))
        return result

    def setup(self, ctx):
        d = ctx.dir
        table = HeadTable.load(d / "long.heads")
        return {"parser": load_parser(d / "model.npz", table),
                "held": read_trees(d / "input.export")}

    def run_round(self, ctx, st):
        rnd = Round()
        parser = fresh_parser(st["parser"])
        parse_timed(parser, st["held"], rnd)
        write_trees(rnd.preds, ctx.dir / "input.pred.export")
        rnd.loaded = parser
        return rnd

    def check(self, ctx, st, rnd):
        trained = json.loads((ctx.dir / "trained.json").read_text())
        sample = st["held"][:self.sample]
        mine = [checks.canonical(fresh_parser(st["parser"]).parse_tokens(t.tokens))
                for t in sample]
        # JSON turns the canonical tuples into lists
        mine = json.loads(json.dumps(mine))
        errors = (checks.check_trees(rnd.golds, rnd.preds)
                  + checks.check_f1(rnd.f1, rnd.golds, rnd.preds, self.size["f1_floor"])
                  + trained["replay_errors"])
        if mine != trained["sample_parses"]:
            errors.append("reloaded model parses the sample differently")
        return errors


class RichUnlabeled(TrainToy):
    """The paper's setting: an open Zipfian vocabulary, a Brown-style
    cluster lexicon and G2 bigram buckets from a larger unlabeled corpus,
    with tag classes; rows carry 94 templates.  Rounds are those of
    ``TrainToy`` with these resources."""

    name = "rich-unlabeled"
    setup_reps = 5
    sizes = {"full": dict(train=36, held=50, epochs=4, unlabeled=3000, f1_floor=50.0),
             "smoke": dict(train=12, held=6, epochs=2, unlabeled=100, f1_floor=0.0)}
    dim = 2 ** 22
    cluster_kinds = ("full", "6bit")

    def prepare(self, ctx):
        vocab = gen.RichVocabulary()
        rng = gen.workload_rng(ctx.seed, self.name, "words")
        seen = set()

        def make(k, sid):
            return vocab.relex(rng, *gen.short_pair(rng, k, sid))

        train = draw(make, self.size["train"], seen, 1)
        held = draw(make, self.size["held"], seen, 100001)
        unlabeled = gen.unlabeled_deps(gen.workload_rng(ctx.seed, self.name, "unlabeled"),
                                       vocab, self.size["unlabeled"])
        write_pairs(train, ctx.dir, "train")
        write_trees([t for t, _ in held], ctx.dir / "held.export")
        write_conll(unlabeled, ctx.dir / "unlabeled.conll")
        (ctx.dir / "clusters.txt").write_text("\n".join(vocab.lexicon_lines()) + "\n")
        ctx.facts["covered_tokens"] = sum(t.form in vocab.known
                                          for tree, _ in held for t in tree.tokens)

    def setup(self, ctx):
        d = ctx.dir
        cli("induce-heads", d / "train.export", d / "train.conll",
            "--out-table", d / "rich.heads", "--out-tags", d / "rich.tags")
        cli("bigram-build", d / "unlabeled.conll", d / "bigrams.txt")
        return {"trees": read_trees(d / "train.export"),
                "held": read_trees(d / "held.export"),
                "table": HeadTable.load(d / "rich.heads"),
                "tagclass": TagClassification.load(d / "rich.tags"),
                "lexicon": clusters.load_clusters(d / "clusters.txt"),
                "bigrams": BigramAssocModel.load(d / "bigrams.txt")}

    def features(self):
        return FeatureConfig(dim=self.dim, cluster_kinds=self.cluster_kinds)

    def resources(self, st):
        return dict(tagclass=st["tagclass"], lexicon=st["lexicon"],
                    bigram_model=st["bigrams"])

    def check(self, ctx, st, rnd):
        return super().check(ctx, st, rnd) + checks.check_coverage(
            st["lexicon"], st["held"], ctx.facts["covered_tokens"])


WORKLOADS = {w.name: w for w in (TrainToy, ParseLong, RichUnlabeled)}
