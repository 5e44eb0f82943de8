"""Output checks that do not trust the program's own helpers.

Each check returns a list of failure messages; an empty list is a pass.
The bracket scorer and the tree walk here are written from the format's
definition, so they can disagree with ``discoparse.evaluate`` and
``ConstTree.validate`` when either is wrong.
"""

from collections import Counter

from discoparse.clusters import UNK
from discoparse.engine import replay_gold


def _yield_of(tree, ref, memo):
    if ref not in tree.nodes:
        return frozenset((ref,))
    got = memo.get(ref)
    if got is None:
        got = frozenset().union(*(_yield_of(tree, c, memo) for c in tree.nodes[ref].children))
        memo[ref] = got
    return got


def canonical(tree):
    """Nested (label, children...) form with children in surface order,
    built from the child lists alone."""
    memo = {}

    def walk(ref):
        if ref not in tree.nodes:
            tok = tree.tokens[ref]
            return (ref, tok.form, tok.pos)
        kids = sorted(tree.nodes[ref].children, key=lambda c: min(_yield_of(tree, c, memo)))
        return (tree.nodes[ref].label, tuple(walk(c) for c in kids))

    return walk(tree.root_id)


def brackets(tree):
    """Multiset of (label, yield) over all nodes but the root."""
    memo = {}
    return Counter((node.label, _yield_of(tree, nid, memo))
                   for nid, node in tree.nodes.items() if nid != tree.root_id)


def bracket_f1(golds, preds):
    """Labeled bracket F1 in percent, pooled over the corpus."""
    match = gold_total = pred_total = 0
    for gold, pred in zip(golds, preds, strict=True):
        gb, pb = brackets(gold), brackets(pred)
        match += sum((gb & pb).values())
        gold_total += sum(gb.values())
        pred_total += sum(pb.values())
    if match == gold_total == pred_total:
        return 100.0
    p = match / pred_total if pred_total else 0.0
    r = match / gold_total if gold_total else 0.0
    return 200.0 * p * r / (p + r) if p + r else 0.0


def check_trees(inputs, preds):
    """Every prediction carries exactly its input's tokens, attaches each
    token once, reaches every node from the root, and passes
    ``validate``."""
    errors = []
    if len(inputs) != len(preds):
        return [f"{len(preds)} parses for {len(inputs)} inputs"]
    for gold, pred in zip(inputs, preds):
        sid = gold.sent_id
        if [(t.index, t.form, t.pos) for t in pred.tokens] != \
                [(t.index, t.form, t.pos) for t in gold.tokens]:
            errors.append(f"sentence {sid}: tokens differ from the input")
            continue
        seen_tokens = []
        seen_nodes = set()
        stack = [pred.root_id]
        while stack:
            ref = stack.pop()
            if ref in pred.nodes:
                if ref in seen_nodes:
                    seen_nodes = None
                    break
                seen_nodes.add(ref)
                stack.extend(pred.nodes[ref].children)
            else:
                seen_tokens.append(ref)
        if seen_nodes is None or seen_nodes != set(pred.nodes):
            errors.append(f"sentence {sid}: nodes not reached exactly once from the root")
            continue
        if sorted(seen_tokens) != list(range(len(gold.tokens))):
            errors.append(f"sentence {sid}: tokens not covered exactly once")
            continue
        try:
            pred.validate()
        except ValueError as exc:
            errors.append(f"sentence {sid}: validate() failed: {exc}")
    return errors


def check_f1(reported, golds, preds, floor):
    """The reported F1 equals this module's scorer and clears the floor."""
    own = bracket_f1(golds, preds)
    errors = []
    if abs(own - reported) > 1e-9:
        errors.append(f"reported F1 {reported!r} but the bracket scorer gives {own!r}")
    if own < floor:
        errors.append(f"F1 {own:.2f} is below the floor {floor}")
    return errors


def check_replay(trees, table):
    """Replaying the gold oracle rebuilds every training tree."""
    errors = []
    for tree in trees:
        rebuilt, _ = replay_gold(tree, table)
        if canonical(rebuilt) != canonical(tree):
            errors.append(f"sentence {tree.sent_id}: oracle replay built another tree")
    return errors


def check_same_parses(sample, first, second, what):
    errors = []
    for tree, a, b in zip(sample, first, second, strict=True):
        if canonical(a) != canonical(b):
            errors.append(f"sentence {tree.sent_id}: {what}")
    return errors


def check_coverage(lexicon, trees, predicted_hits):
    """Tokens whose form the loaded lexicon knows, against the count the
    generator predicts from the forms it put into the cluster file."""
    hits = sum(lexicon.lookup(t.form) != UNK for tree in trees for t in tree.tokens)
    if hits != predicted_hits:
        return [f"{hits} tokens have a cluster, the generator predicts {predicted_hits}"]
    return []
