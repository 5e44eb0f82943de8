"""Scoring of predicted constituent trees against gold trees.

A bracket is a (label, terminal index set) pair, so discontinuous
constituents only count as correct when the full index set matches.
Attachment accuracy comes from percolating heads through both trees
with a head table and comparing the induced per-token governors.
"""

from dataclasses import dataclass, field
from collections import Counter

from .treebank import AlignmentError

DEFAULT_LABELS = ("NP", "PP", "VP")

_ROOT_GOV = -1


@dataclass(frozen=True)
class EvalConfig:
    max_len: int | None = None          # None = no cutoff
    drop_punct: bool = False
    tagclass: object = None             # required when drop_punct is set
    exclude_root: bool = True
    labels: tuple = DEFAULT_LABELS

    def __post_init__(self):
        if self.max_len is not None and self.max_len <= 0:
            raise ValueError("length cutoff must be positive")
        if self.drop_punct and self.tagclass is None:
            raise ValueError("dropping punctuation needs a tag classification")


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    exact: float
    uas: float | None
    per_label: dict = field(default_factory=dict)
    sentences: int = 0

    def format_text(self) -> str:
        lines = [
            f"sentences    {self.sentences}",
            f"precision    {self.precision:6.2f}",
            f"recall       {self.recall:6.2f}",
            f"F1           {self.f1:6.2f}",
            f"exact match  {self.exact:6.2f}",
        ]
        if self.uas is not None:
            lines.append(f"UAS          {self.uas:6.2f}")
        for lab, (p, r, f) in sorted(self.per_label.items()):
            lines.append(f"F1[{lab}]"[:12].ljust(13) + f"{f:6.2f}")
        return "\n".join(lines)

    def format_kv(self) -> str:
        pairs = [("sentences", self.sentences),
                 ("precision", self.precision), ("recall", self.recall),
                 ("f1", self.f1), ("exact", self.exact)]
        if self.uas is not None:
            pairs.append(("uas", self.uas))
        for lab, (p, r, f) in sorted(self.per_label.items()):
            pairs.append((f"f1_{lab}", f))
        return "\n".join(f"{k}={v}" for k, v in pairs)


def _token_kept(token, config) -> bool:
    return not (config.drop_punct and config.tagclass.is_punct(token.pos))


def effective_length(tree, config) -> int:
    return sum(1 for t in tree.tokens if _token_kept(t, config))


def sentence_brackets(tree, config) -> Counter:
    """Bracket multiset of one tree under the config's punctuation and
    root conventions."""
    dropped = {t.index for t in tree.tokens if not _token_kept(t, config)}
    out = Counter()
    for node in tree.internal_nodes():
        if config.exclude_root and node.id == tree.root_id:
            continue
        kept = frozenset(node.leaves - dropped)
        if not kept:
            continue
        out[(node.label, kept)] += 1
    return out


def _check_pair(gold, pred):
    if len(gold.tokens) != len(pred.tokens) or any(
            g.form != p.form for g, p in zip(gold.tokens, pred.tokens)):
        raise AlignmentError(
            f"tokenization mismatch in sentence {gold.sent_id or '?'}")


def _eligible(gold, config) -> bool:
    return config.max_len is None or effective_length(gold, config) <= config.max_len


def _prf(match, gold_total, pred_total):
    if match == gold_total == pred_total:
        return 100.0, 100.0, 100.0
    p = 100.0 * match / pred_total if pred_total else 0.0
    r = 100.0 * match / gold_total if gold_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def bracket_f1(golds, preds, config=EvalConfig()) -> EvalReport:
    """Labeled bracket P/R/F1, exact match, and per-label F1."""
    if len(golds) != len(preds):
        raise AlignmentError("corpora differ in sentence count")
    match = Counter()
    gold_total = Counter()
    pred_total = Counter()
    n_eligible = 0
    n_exact = 0
    for gold, pred in zip(golds, preds):
        _check_pair(gold, pred)
        if not _eligible(gold, config):
            continue
        n_eligible += 1
        gb = sentence_brackets(gold, config)
        pb = sentence_brackets(pred, config)
        if gb == pb:
            n_exact += 1
        hit = gb & pb
        for (lab, _), c in hit.items():
            match[lab] += c
        for (lab, _), c in gb.items():
            gold_total[lab] += c
        for (lab, _), c in pb.items():
            pred_total[lab] += c
    p, r, f = _prf(sum(match.values()), sum(gold_total.values()),
                   sum(pred_total.values()))
    per_label = {lab: _prf(match[lab], gold_total[lab], pred_total[lab])
                 for lab in config.labels}
    exact = 100.0 * n_exact / n_eligible if n_eligible else 100.0
    return EvalReport(precision=p, recall=r, f1=f, exact=exact, uas=None,
                      per_label=per_label, sentences=n_eligible)


def exact_match(golds, preds, config=EvalConfig()) -> float:
    return bracket_f1(golds, preds, config).exact


# ------------------------------------------------------------------ UAS

def node_heads(tree, table) -> dict:
    """Percolated head token of every internal node."""
    heads = {}

    def visit(nid):
        node = tree.nodes[nid]
        labels = []
        child_heads = []
        for ref in tree.children_sorted(node):
            if ref in tree.nodes:
                labels.append(tree.nodes[ref].label)
                child_heads.append(visit(ref))
            else:
                labels.append(tree.tokens[ref].pos)
                child_heads.append(ref)
        k = table.find_head_child(node.label, labels, default=0)
        heads[nid] = child_heads[k]
        return heads[nid]

    visit(tree.root_id)
    return heads


def induced_governors(tree, table) -> list:
    """Governor token index per token: the head of the smallest
    constituent properly containing the token whose head is a different
    token, which is the parent of the token's maximal projection.  Tokens
    governed by nothing (the root path) get -1."""
    heads = node_heads(tree, table)
    gov = [_ROOT_GOV] * len(tree.tokens)
    for nid, head in heads.items():
        for c in tree.nodes[nid].children:
            h = heads.get(c, c)
            if h != head:
                gov[h] = head
    return gov


def uas(golds, preds, table, config=EvalConfig()) -> float:
    """Unlabeled attachment score of percolated heads; sentences past
    the length cutoff are skipped and dropped punctuation is not scored.
    No scorable tokens at all counts as 100 by convention."""
    good = 0
    total = 0
    for gold, pred in zip(golds, preds):
        _check_pair(gold, pred)
        if not _eligible(gold, config):
            continue
        gg = induced_governors(gold, table)
        pg = induced_governors(pred, table)
        for tok, (a, b) in zip(gold.tokens, zip(gg, pg)):
            if not _token_kept(tok, config):
                continue
            total += 1
            good += a == b
    return 100.0 * good / total if total else 100.0


def evaluate(golds, preds, config=EvalConfig(), table=None) -> EvalReport:
    """All metrics in one report; UAS only when a head table is given."""
    report = bracket_f1(golds, preds, config)
    if table is not None:
        report.uas = uas(golds, preds, table, config)
    return report
