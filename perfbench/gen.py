"""Input generators for the benchmark workloads.

Every generator takes a ``random.Random`` so that one ``--seed`` gives the
same inputs on every machine.  Only the generated files reach the program;
``RichVocabulary.known`` tells the coverage check which forms the cluster
file holds.
"""

import dataclasses
import random

from discoparse.synthdata import TOY_ARTICLES, TOY_EXTRA_PREPS, TOY_NP_PREPS, toy_sentence
from discoparse.treebank import ConstTree, DepSentence

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "ze",
              "bi", "du", "fe", "go", "hu", "ji", "pa", "so")

# open word classes of the rich vocabulary: tag -> (vocabulary size,
# form suffix, Brown path prefix); the sizes make most forms rare
OPEN_CLASSES = {
    "NN": (4000, "ung", "0"),
    "VVFIN": (600, "et", "10"),
    "ADV": (150, "ig", "110"),
}
CLOSED_PATH_PREFIX = "111"
# share of each open class's ranks that the cluster lexicon knows
LEXICON_COVERAGE = 0.5
ZIPF_EXPONENT = 1.0


def pseudo_word(rank, suffix):
    """Distinct pronounceable form for ``rank`` >= 1 (bijective base 16)."""
    parts = []
    n = rank
    while n > 0:
        n, d = divmod(n - 1, len(_SYLLABLES))
        parts.append(_SYLLABLES[d])
    return "".join(reversed(parts)) + suffix


def _cluster_path(prefix, rank):
    # 12 more bits, scattered but fixed per rank
    bits = (rank * 2654435761) % 4096
    return prefix + format(bits, "012b")


class RichVocabulary:
    """Zipf-distributed open-class forms plus a Brown-style lexicon whose
    paths follow word class and cover the top ranks of each class."""

    def __init__(self):
        self.forms = {}
        self.cum_weights = {}
        for tag, (size, suffix, _) in OPEN_CLASSES.items():
            self.forms[tag] = [pseudo_word(r, suffix) for r in range(1, size + 1)]
            acc = 0.0
            cw = []
            for r in range(1, size + 1):
                acc += 1.0 / r ** ZIPF_EXPONENT
                cw.append(acc)
            self.cum_weights[tag] = cw
        self.known = set()
        for tag, (size, _, _) in OPEN_CLASSES.items():
            self.known.update(self.forms[tag][:int(size * LEXICON_COVERAGE)])
        self.closed = set(TOY_ARTICLES) | set(TOY_NP_PREPS) | set(TOY_EXTRA_PREPS) | {"."}
        open_forms = [f for forms in self.forms.values() for f in forms]
        if len(set(open_forms)) != len(open_forms) or self.closed & set(open_forms):
            raise ValueError("generated forms collide")
        self.known |= self.closed

    def draw(self, rng, tag):
        return rng.choices(self.forms[tag], cum_weights=self.cum_weights[tag])[0]

    def lexicon_lines(self):
        """"path<TAB>word<TAB>count" lines of the cluster file."""
        lines = []
        for tag, (size, _, prefix) in OPEN_CLASSES.items():
            for rank, form in enumerate(self.forms[tag][:int(size * LEXICON_COVERAGE)], 1):
                lines.append(f"{_cluster_path(prefix, rank)}\t{form}\t{max(1, 100000 // rank)}")
        for rank, form in enumerate(sorted(self.closed), 1):
            lines.append(f"{_cluster_path(CLOSED_PATH_PREFIX, rank)}\t{form}\t100000")
        return lines

    def relex(self, rng, tree, dep):
        """Copy of a toy (tree, dep) pair with open-class forms redrawn."""
        tokens = []
        for tok in tree.tokens:
            if tok.pos in self.forms:
                form = self.draw(rng, tok.pos)
                tok = dataclasses.replace(tok, form=form, lemma=form)
            tokens.append(tok)
        new_tree = ConstTree(tokens, tree.nodes, tree.root_id, sent_id=tree.sent_id)
        new_dep = DepSentence(tokens, dep.heads, dep.deprels, sent_id=dep.sent_id)
        return new_tree.validate(), new_dep.validate()


# The shape of every sentence (pattern, PP count, adverb count) is fixed by
# its position, so that inputs of different seeds differ only in their words
# and the work per run does not drift with the seed.
PATTERNS = ("plain", "objpp", "extra")
SHAPES = [(PATTERNS[k % 3], 1 + (k // 3) % 2, (k // 6) % 3) for k in range(18)]


def short_pair(rng, k, sid):
    """Toy pair of 6-14 tokens in the ``k``-th of the 18 short shapes."""
    pattern, chain, advs = SHAPES[k % len(SHAPES)]
    return toy_sentence(rng, pattern, pp_chain=chain, advs=advs, sent_id=sid)


def sized_pair(rng, n, pattern, sid):
    """Toy pair of exactly ``n`` >= 9 tokens: ``objpp`` nests all PPs under
    the object, ``extra`` puts the last one after the verb phrase as part
    of the subject, which makes the subject discontinuous."""
    pps, advs = divmod(n - 6, 3)
    return toy_sentence(rng, pattern, pp_chain=pps, advs=advs, sent_id=sid)


def unlabeled_deps(rng, vocab, count):
    """Dependency side of ``count`` relexicalised short toy sentences; it
    stands in for an automatically parsed unlabeled corpus."""
    return [vocab.relex(rng, *short_pair(rng, k, str(k + 1)))[1] for k in range(count)]


def workload_rng(seed, workload, part):
    """Independent stream per (seed, workload, part)."""
    return random.Random(f"{seed}:{workload}:{part}")
