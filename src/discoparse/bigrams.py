"""Dependency bigram association model: pair counting over auto-parsed
corpora, Raw / L1 / G2 scoring, and per-head quantile buckets."""

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum

from .treebank import _open_read, _open_write

ROOT = "*ROOT*"

RAW = "raw"
L1 = "l1"
LL = "ll"
SCORERS = (RAW, L1, LL)


class Bucket(IntEnum):
    NO = 0
    LO = 1
    MI = 2
    HI = 3


@dataclass
class PairCounts:
    """Raw (governor form, dependent form) counts; root-governed tokens
    use the governor form ``*ROOT*``."""

    pairs: Counter = field(default_factory=Counter)

    @property
    def total(self):
        return sum(self.pairs.values())

    def add_sentence(self, dep):
        for i, tok in enumerate(dep.tokens):
            self.pairs[(dep.governor_form(i, ROOT), tok.form)] += 1

    def __len__(self):
        return len(self.pairs)


def count_pairs(sentences) -> PairCounts:
    counts = PairCounts()
    for dep in sentences:
        counts.add_sentence(dep)
    return counts


def g_squared(o11, row1, col1, n):
    """G2 of the 2x2 table with cell (1,1) = o11 and the given marginals.

    Each log argument is written as 1 + (o*n - r*c)/(r*c) with an exact
    integer numerator, so an exactly independent table (o * n == row *
    col in every cell) comes out as exactly 0 and near-independent ones
    do not lose digits to cancellation inside the logs.
    """
    if n <= 0:
        raise ValueError("G2 needs a positive total count")
    cells = (
        (o11, row1, col1),
        (row1 - o11, row1, n - col1),
        (col1 - o11, n - row1, col1),
        (n - row1 - col1 + o11, n - row1, n - col1),
    )
    terms = []
    for o, r, c in cells:
        if o < 0:
            raise ValueError("inconsistent 2x2 table")
        if o:
            num = o * n - r * c
            if num:
                terms.append(o * math.log1p(num / (r * c)))
    g2 = 2.0 * math.fsum(terms)
    if -1e-9 < g2 < 0.0:
        g2 = 0.0
    return g2


@dataclass
class BigramAssocModel:
    """Scored and bucketized association model.

    ``scores`` holds only positive values; absence means bucket NO.
    ``thresholds`` maps a head form to (hi_cut, mi_cut) with hi_cut >=
    mi_cut, both attained by some stored score of that head.
    """

    scorer: str
    scores: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)

    def query(self, head_form, dep_form) -> Bucket:
        s = self.scores.get(head_form, {}).get(dep_form)
        if s is None:
            return Bucket.NO
        hi_cut, mi_cut = self.thresholds[head_form]
        if s >= hi_cut:
            return Bucket.HI
        if s >= mi_cut:
            return Bucket.MI
        return Bucket.LO

    def save(self, dest, header=None):
        with _open_write(dest) as f:
            if header:
                f.write(f"# {header}\n")
            f.write(f"scorer\t{self.scorer}\n")
            n_pairs = sum(len(d) for d in self.scores.values())
            f.write(f"pairs\t{n_pairs}\n")
            for head in sorted(self.scores):
                for dep in sorted(self.scores[head]):
                    f.write(f"{head}\t{dep}\t{self.scores[head][dep]!r}\n")
            f.write(f"thresholds\t{len(self.thresholds)}\n")
            for head in sorted(self.thresholds):
                hi_cut, mi_cut = self.thresholds[head]
                f.write(f"{head}\t{hi_cut!r}\t{mi_cut!r}\n")

    @classmethod
    def load(cls, source):
        with _open_read(source) as f:
            lines = [line.rstrip("\n") for line in f]
        it = iter((n, line) for n, line in enumerate(lines, 1)
                  if not line.startswith("#"))

        def expect(tag):
            lineno, line = next(it)
            fields = line.split("\t")
            if len(fields) != 2 or fields[0] != tag:
                raise ValueError(f"bigram model line {lineno}: expected {tag!r} header")
            return fields[1]

        try:
            scorer = expect("scorer")
            if scorer not in SCORERS:
                raise ValueError(f"unknown scorer kind {scorer!r}")
            scores = {}
            for _ in range(int(expect("pairs"))):
                lineno, line = next(it)
                head, dep, val = line.split("\t")
                scores.setdefault(head, {})[dep] = float(val)
            thresholds = {}
            for _ in range(int(expect("thresholds"))):
                lineno, line = next(it)
                head, hi_cut, mi_cut = line.split("\t")
                thresholds[head] = (float(hi_cut), float(mi_cut))
        except StopIteration:
            raise ValueError(f"bigram model ends early, after line {len(lines)}") from None
        return cls(scorer, scores, thresholds)


def quantile_cuts(values):
    """(hi_cut, mi_cut) for one head's non-zero score list: the scores at
    descending ranks ceil(0.1 k) and ceil(0.3 k).  Ties share the better
    bucket because query compares with >=."""
    ordered = sorted(values, reverse=True)
    k = len(ordered)
    # integer ceil of k/10 and 3k/10; exact at any k, unlike float ceil
    hi_rank = (k + 9) // 10
    mi_rank = (3 * k + 9) // 10
    return ordered[hi_rank - 1], ordered[mi_rank - 1]


def score_counts(counts, scorer, min_count=2) -> BigramAssocModel:
    """Score a count table and attach per-head quantile thresholds.

    Pairs rarer than ``min_count`` are dropped first; marginals and the
    total are recomputed over the kept table so the G2 cells stay
    consistent.  Non-positive scores are dropped (zero = absence).
    """
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer kind {scorer!r}")
    kept = {pair: c for pair, c in counts.pairs.items() if c >= min_count}
    head_marginal = Counter()
    dep_marginal = Counter()
    for (head, dep), c in kept.items():
        head_marginal[head] += c
        dep_marginal[dep] += c
    total = sum(kept.values())
    if scorer == LL and total == 0:
        raise ValueError("G2 scoring over an empty table")

    scores = {}
    for (head, dep), c in kept.items():
        if scorer == RAW:
            s = float(c)
        elif scorer == L1:
            s = c / head_marginal[head]
        else:
            s = g_squared(c, head_marginal[head], dep_marginal[dep], total)
        if s > 0.0:
            scores.setdefault(head, {})[dep] = s

    thresholds = {head: quantile_cuts(per.values()) for head, per in scores.items()}
    return BigramAssocModel(scorer, scores, thresholds)
