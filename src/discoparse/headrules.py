"""Head-rule induction from aligned constituent and dependency corpora.

A phrase's actual head tokens are those whose governor lies outside the
phrase's yield (the virtual root counts as outside).  Per parent label, the
observed head-constituent child labels compete pairwise; repeatedly taking
the label with the best win/loss balance yields a priority ordering, and
same-label conflicts decide the scan direction for each entry.
"""

from __future__ import annotations

import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .treebank import _open_read, _open_write

logger = logging.getLogger(__name__)

LTR = "left-to-right"
RTL = "right-to-left"

NORMAL = "normal"
CLOSED = "closed_class"
PUNCT = "punctuation"

# universal tags whose members behave as closed classes
_CLOSED_UNIVERSAL = ("ADP", "CONJ")
_PUNCT_UNIVERSAL = "."


@dataclass
class PhraseObservation:
    """One phrase instance: ordered child labels plus which ones hold a head."""

    parent_label: str
    child_labels: list
    head_positions: frozenset
    head_tokens: frozenset


def observed_heads(tree, dep) -> list:
    """Phrase observations for one aligned sentence pair.

    Children are listed in surface order (smallest covered index first);
    terminal children contribute their POS tag as label.
    """
    out = []
    for node in tree.internal_nodes():
        leaves = node.leaves
        actual = frozenset(
            t for t in leaves
            if dep.heads[t] == 0 or (dep.heads[t] - 1) not in leaves)
        child_labels = []
        head_positions = set()
        for k, c in enumerate(tree.children_sorted(node)):
            if c in tree.nodes:
                child_labels.append(tree.nodes[c].label)
                if tree.nodes[c].leaves & actual:
                    head_positions.add(k)
            else:
                child_labels.append(tree.tokens[c].pos)
                if c in actual:
                    head_positions.add(k)
        out.append(PhraseObservation(node.label, child_labels,
                                     frozenset(head_positions), actual))
    return out


@dataclass
class HeadTable:
    """Ordered head rules per parent label.

    ``rules`` maps a parent label to a list of ``(direction, labels)`` lines.
    Lines are tried in order; within a line each label is tried in order and
    the children are scanned in the line's direction.
    """

    rules: dict = field(default_factory=dict)

    def find_head_child(self, parent_label, child_labels, default=0):
        """Index of the head child, or ``default`` when no rule matches."""
        pos = self.find_head_child_or_none(parent_label, child_labels)
        return default if pos is None else pos

    def find_head_child_or_none(self, parent_label, child_labels):
        for direction, labels in self.rules.get(parent_label, ()):
            order = range(len(child_labels))
            if direction == RTL:
                order = reversed(order)
            order = list(order)
            for lab in labels:
                for k in order:
                    if child_labels[k] == lab:
                        return k
        return None

    def save(self, dest, header=None):
        with _open_write(dest) as f:
            if header:
                f.write(f"# {header}\n")
            for parent in sorted(self.rules):
                for direction, labels in self.rules[parent]:
                    f.write(" ".join([parent, direction, *labels]) + "\n")

    @classmethod
    def load(cls, source):
        rules = {}
        with _open_read(source) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith(("#", "%")):
                    continue
                fields = line.split()
                if len(fields) < 2:
                    raise ValueError(f"head table line {lineno}: expected 'PARENT direction ...'")
                parent, direction, *labels = fields
                direction = {"left": LTR, "right": RTL}.get(direction, direction)
                if direction not in (LTR, RTL):
                    raise ValueError(f"head table line {lineno}: unknown direction {direction!r}")
                rules.setdefault(parent, []).append((direction, labels))
        return cls(rules)


def _induce_order(instances):
    """Greedy priority ordering for one parent label.

    ``instances`` is a list of (child_labels, head_positions).  Returns a
    list of (label, direction) entries.
    """
    candidates = set()
    for labels, heads in instances:
        for k in heads:
            candidates.add(labels[k])
    order = []
    while candidates:
        wins = Counter()
        losses = Counter()
        for labels, heads in instances:
            present = [(k, lab) for k, lab in enumerate(labels) if lab in candidates]
            for a in range(len(present)):
                for b in range(a + 1, len(present)):
                    ka, la = present[a]
                    kb, lb = present[b]
                    if la == lb:
                        continue
                    if ka in heads:
                        wins[la] += 1
                        losses[lb] += 1
                    if kb in heads:
                        wins[lb] += 1
                        losses[la] += 1
        best = min(candidates,
                   key=lambda lab: (losses[lab] - wins[lab], -wins[lab], lab))
        # scan direction from conflicts between two instances of the label
        left = right = 0
        for labels, heads in instances:
            spots = [k for k, lab in enumerate(labels) if lab == best]
            for a in range(len(spots)):
                for b in range(a + 1, len(spots)):
                    if spots[a] in heads:
                        left += 1
                    if spots[b] in heads:
                        right += 1
        order.append((best, RTL if right > left else LTR))
        candidates.remove(best)
    return order


def induce_head_table(corpus, stats_out=None) -> HeadTable:
    """Induce a head table from (tree, dep) pairs, as ``treebank.align``
    returns them.

    ``stats_out``, when given, receives per-parent conflict statistics as a
    dict: parent -> (instance count, conflicting-instance count).
    """
    grouped = {}
    for tree, dep in corpus:
        for obs in observed_heads(tree, dep):
            grouped.setdefault(obs.parent_label, []).append(
                (obs.child_labels, obs.head_positions))
    rules = {}
    for parent, instances in grouped.items():
        order = _induce_order(instances)
        if not order:
            continue
        if stats_out is not None:
            cands = {lab for lab, _ in order}
            conflicted = sum(
                1 for labels, _ in instances
                if len([lab for lab in labels if lab in cands]) > 1)
            stats_out[parent] = (len(instances), conflicted)
        # merge runs that share a direction into one rule line
        lines = []
        for lab, direction in order:
            if lines and lines[-1][0] == direction:
                lines[-1][1].append(lab)
            else:
                lines.append([direction, [lab]])
        rules[parent] = [(direction, labels) for direction, labels in lines]
    return HeadTable(rules)


# ----------------------------------------------------- tag classification

@dataclass
class TagClassification:
    """POS tag -> {normal, closed_class, punctuation}; unseen tags are normal."""

    classes: dict = field(default_factory=dict)

    def of(self, tag) -> str:
        return self.classes.get(tag, NORMAL)

    def is_closed(self, tag) -> bool:
        return self.of(tag) == CLOSED

    def is_punct(self, tag) -> bool:
        return self.of(tag) == PUNCT

    def save(self, dest, header=None):
        with _open_write(dest) as f:
            if header:
                f.write(f"# {header}\n")
            for tag in sorted(self.classes):
                f.write(f"{tag}\t{self.classes[tag]}\n")

    @classmethod
    def load(cls, source):
        classes = {}
        with _open_read(source) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or fields[1] not in (NORMAL, CLOSED, PUNCT):
                    raise ValueError(f"tag classification line {lineno}: {line!r}")
                classes[fields[0]] = fields[1]
        return cls(classes)


def load_upos_map(source) -> dict:
    """Two-column fine-to-universal tag map (tab separated)."""
    mapping = {}
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) == 1:
                fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"universal tag map line {lineno}: {line!r}")
            mapping[fields[0]] = fields[1]
    return mapping


def classify_tags_universal(tag_counts, upos_map) -> TagClassification:
    """Classify via a fine-to-universal map; unmapped tags stay normal."""
    classes = {}
    for tag in tag_counts:
        upos = upos_map.get(tag)
        if upos is None:
            logger.warning("tag %r missing from universal map; treating as normal", tag)
            classes[tag] = NORMAL
        elif upos in _CLOSED_UNIVERSAL:
            classes[tag] = CLOSED
        elif upos == _PUNCT_UNIVERSAL:
            classes[tag] = PUNCT
        else:
            classes[tag] = NORMAL
    return TagClassification(classes)


@dataclass
class TagStats:
    tokens: int = 0
    distinct_forms: int = 0
    with_letter: int = 0
    with_punct: int = 0


def _has_letter(form):
    return any(unicodedata.category(ch).startswith("L") for ch in form)


def _has_punct(form):
    return any(unicodedata.category(ch).startswith("P") for ch in form)


def collect_tag_stats(token_lists) -> dict:
    """Per-tag occurrence statistics over an iterable of token lists."""
    counts = Counter()
    forms = {}
    letters = Counter()
    puncts = Counter()
    for tokens in token_lists:
        for tok in tokens:
            counts[tok.pos] += 1
            forms.setdefault(tok.pos, set()).add(tok.form)
            if _has_letter(tok.form):
                letters[tok.pos] += 1
            if _has_punct(tok.form):
                puncts[tok.pos] += 1
    return {tag: TagStats(counts[tag], len(forms[tag]), letters[tag], puncts[tag])
            for tag in counts}


def classify_tags_heuristic(stats) -> TagClassification:
    """Distributional fallback when no universal tag map is available.

    A tag is punctuation when more of its tokens contain punctuation than
    contain a letter and fewer than 5 contain a letter; it is closed-class
    when it occurs more than 100 times with fewer than 40 distinct forms.
    """
    classes = {}
    for tag, st in stats.items():
        if st.with_punct > st.with_letter and st.with_letter < 5:
            classes[tag] = PUNCT
        elif st.tokens > 100 and st.distinct_forms < 40:
            classes[tag] = CLOSED
        else:
            classes[tag] = NORMAL
    return TagClassification(classes)
