"""Synthetic corpora: random discontinuous trees, a small deterministic
grammar with one systematic discontinuity pattern, and corpora generated
from a planted head table.

Everything is driven by a caller-supplied ``random.Random`` so tests and
experiment scripts stay reproducible.
"""

from __future__ import annotations

from .evaluate import induced_governors
from .headrules import LTR, RTL, HeadTable
from .treebank import ConstTree, DepSentence, Token, block_count, build_tree

_VOCAB = (
    "apfel", "birne", "baum", "haus", "hund", "katze", "kind", "frau",
    "mann", "tag", "jahr", "stadt", "straße", "tür", "wasser", "wörter",
    "über", "lang", "rot", "sehen", "gehen", "laufen", "schön", "gut",
)
_TAGS = ("NN", "NE", "VVFIN", "ADJA", "ADV", "ART", "APPR", "KON")
_LABELS = ("S", "NP", "VP", "PP", "AP", "AVP")
_MORPHS = ("_", "case=nom", "case=acc|num=sg", "num=pl")


# ------------------------------------------------------------ random trees

def _maybe_wrap(rng, node, labels, unary_prob):
    # chains longer than two are not buildable by the engine
    if rng.random() < unary_prob:
        node = (rng.choice(labels), [node])
        if rng.random() < unary_prob * 0.3:
            node = (rng.choice(labels), [node])
    return node


def _random_spans(rng, span, labels, max_arity, unary_prob, is_root):
    if len(span) == 1:
        return _maybe_wrap(rng, span[0], labels, unary_prob)
    arity = rng.randint(2, max(2, min(max_arity, len(span))))
    cuts = sorted(rng.sample(range(1, len(span)), arity - 1))
    parts = []
    prev = 0
    for cut in [*cuts, len(span)]:
        parts.append(span[prev:cut])
        prev = cut
    node = (rng.choice(labels), [_random_spans(rng, p, labels, max_arity, unary_prob, False)
                                 for p in parts])
    if is_root:
        return node
    return _maybe_wrap(rng, node, labels, unary_prob)


def random_tree(rng, n_tokens=None, labels=_LABELS, tags=_TAGS, vocab=_VOCAB,
                max_arity=4, unary_prob=0.15, max_block_degree=None,
                require_discontinuity=False, max_swaps=None, rich_tokens=True,
                sent_id=None) -> ConstTree:
    """Random labeled tree with possibly discontinuous yields.

    The tree is built over a target linearization; a bounded number of
    adjacent transpositions then maps that order back onto the surface, so
    small block degrees are typical and can be enforced exactly with
    ``max_block_degree`` (resampling until the constraint holds).
    """
    if n_tokens is not None and n_tokens < 2:
        raise ValueError("need at least 2 tokens")
    lo = 4 if require_discontinuity else 2
    for _attempt in range(500):
        n = n_tokens if n_tokens is not None else rng.randint(lo, 12)
        perm = list(range(n))
        budget = max_swaps if max_swaps is not None else n
        for _ in range(rng.randint(0, budget)):
            k = rng.randrange(n - 1)
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        spec = _random_spans(rng, perm, labels, max_arity, unary_prob, True)
        tokens = []
        for i in range(n):
            form = rng.choice(vocab)
            if rich_tokens:
                tokens.append(Token(index=i, form=form, lemma="l_" + form,
                                    pos=rng.choice(tags), morph=rng.choice(_MORPHS)))
            else:
                tokens.append(Token(index=i, form=form, pos=rng.choice(tags)))
        tree = build_tree(tokens, spec, sent_id=sent_id)
        degrees = [block_count(nd.leaves) for nd in tree.internal_nodes()]
        if max_block_degree is not None and max(degrees) > max_block_degree:
            continue
        if require_discontinuity and max(degrees) < 2:
            continue
        if any(_node_chain(tree, nid) > 2 for nid in tree.nodes):
            continue
        return tree
    raise RuntimeError("could not satisfy tree constraints")


def _node_chain(tree, nid):
    depth = 0
    while nid in tree.nodes and len(tree.nodes[nid].children) == 1:
        depth += 1
        nid = tree.nodes[nid].children[0]
    return depth


def random_dep_sentence(rng, n_tokens=None, vocab=_VOCAB, tags=_TAGS,
                        sent_id="") -> DepSentence:
    n = n_tokens if n_tokens is not None else rng.randint(1, 10)
    tokens = [Token(index=i, form=rng.choice(vocab), lemma="l_" + str(i),
                    pos=rng.choice(tags), morph=rng.choice(_MORPHS),
                    cpos=rng.choice(tags)[:1])
              for i in range(n)]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    placed = [0]
    heads = [0] * n
    for tid in order:
        heads[tid - 1] = rng.choice(placed)
        placed.append(tid)
    deprels = [rng.choice(("nsubj", "obj", "det", "nmod", "dep")) for _ in range(n)]
    return DepSentence(tokens, heads, deprels, sent_id=sent_id).validate()


# ------------------------------------------------------------- toy grammar

TOY_ARTICLES = ("der", "die", "das", "den", "eine")
TOY_NOUNS = ("hund", "katze", "frau", "mann", "kind", "haus", "baum", "garten")
TOY_VERBS = ("sieht", "sucht", "findet", "mag")
TOY_NP_PREPS = ("mit", "auf", "unter")
TOY_EXTRA_PREPS = ("über", "wegen")
TOY_ADVS = ("heute", "gern", "oft")


def toy_sentence(rng, pattern="plain", pp_chain=1, advs=0, sent_id=None):
    """One sentence of the toy grammar as a (ConstTree, DepSentence) pair.

    Patterns: ``plain`` has no PPs; ``objpp`` nests ``pp_chain`` PPs under
    the object noun (continuous); ``extra`` additionally realizes one PP of
    the subject noun at the end of the clause, giving the subject NP a
    two-block yield.  The preposition's form decides the attachment, so the
    structure is recoverable from the surface.
    """
    toks = []
    deps = []

    def push(form, pos, head, deprel):
        toks.append((form, pos))
        deps.append((head, deprel))
        return len(toks) - 1

    art_s = push(rng.choice(TOY_ARTICLES), "ART", None, "det")
    nn_s = push(rng.choice(TOY_NOUNS), "NN", None, "nsubj")
    deps[art_s] = (nn_s, "det")
    verb = push(rng.choice(TOY_VERBS), "VVFIN", -1, "root")
    deps[nn_s] = (verb, "nsubj")
    adv_ids = [push(rng.choice(TOY_ADVS), "ADV", verb, "advmod") for _ in range(advs)]
    art_o = push(rng.choice(TOY_ARTICLES), "ART", None, "det")
    nn_o = push(rng.choice(TOY_NOUNS), "NN", verb, "obj")
    deps[art_o] = (nn_o, "det")

    def push_pp(attach_noun, prep_pool):
        p = push(rng.choice(prep_pool), "APPR", attach_noun, "nmod")
        a = push(rng.choice(TOY_ARTICLES), "ART", None, "det")
        n = push(rng.choice(TOY_NOUNS), "NN", p, "pobj")
        deps[a] = (n, "det")
        return p, a, n

    chain = pp_chain if pattern in ("objpp", "extra") else 0
    if pattern == "extra":
        chain = pp_chain - 1
    pp_groups = []
    attach = nn_o
    for _ in range(chain):
        p, a, n = push_pp(attach, TOY_NP_PREPS)
        pp_groups.append((p, a, n))
        attach = n
    extra_group = None
    if pattern == "extra":
        extra_group = push_pp(nn_s, TOY_EXTRA_PREPS)
    period = push(".", "$.", verb, "punct")

    # constituent structure: PPs nest under the noun they modify
    def np_of(art, noun, pps):
        kids = [art, noun]
        if pps:
            first, rest = pps[0], pps[1:]
            p, a, n = first
            kids.append(("PP", [p, np_of(a, n, rest)]))
        return ("NP", kids)

    obj_np = np_of(art_o, nn_o, pp_groups)
    vp = ("VP", [verb, *adv_ids, obj_np])
    subj_kids = [art_s, nn_s]
    if extra_group is not None:
        p, a, n = extra_group
        subj_kids.append(("PP", [p, np_of(a, n, [])]))
    structure = ("S", [("NP", subj_kids), vp, period])

    tree = build_tree(toks, structure, sent_id=sent_id)
    heads = [0 if h == -1 else h + 1 for h, _ in deps]
    dep = DepSentence(tree.tokens, heads, [rel for _, rel in deps],
                      sent_id=sent_id or "").validate()
    return tree, dep


def toy_sentence_of_length(rng, target_len, sent_id=None):
    """Toy sentence with exactly ``target_len`` tokens (>= 6)."""
    if target_len < 6:
        raise ValueError("toy sentences have at least 6 tokens")
    pps, advs = divmod(target_len - 6, 3)
    if pps == 0:
        return toy_sentence(rng, "plain", advs=advs, sent_id=sent_id)
    pattern = "extra" if rng.random() < 0.5 else "objpp"
    return toy_sentence(rng, pattern, pp_chain=pps, advs=advs, sent_id=sent_id)


def toy_corpus(count, seed_rng, patterns=(("plain", 0.3), ("objpp", 0.35), ("extra", 0.35)),
               max_chain=2, max_advs=2) -> list:
    """``count`` toy sentences drawn from ``seed_rng``, as (tree, dep) pairs."""
    names = [p for p, _ in patterns]
    weights = [w for _, w in patterns]
    pairs = []
    for i in range(count):
        pattern = seed_rng.choices(names, weights)[0]
        chain = seed_rng.randint(1, max_chain)
        advs = seed_rng.randint(0, max_advs)
        pairs.append(toy_sentence(seed_rng, pattern, pp_chain=chain, advs=advs,
                                  sent_id=str(i + 1)))
    return pairs


# ------------------------------------------------------ planted head table

PLANTED_LABELS = ("S", "VP", "NP", "PP", "AP", "AVP")
PLANTED_TAGS = ("V", "N", "P", "A", "D", "ADV")


def planted_head_table() -> HeadTable:
    return HeadTable({
        "S": [(LTR, ["VP", "V", "NP"])],
        "VP": [(RTL, ["V", "VP", "NP", "AP"])],
        "NP": [(LTR, ["N", "NP", "D"])],
        "PP": [(RTL, ["P", "N", "NP"])],
        "AP": [(LTR, ["A", "ADV"])],
        "AVP": [(RTL, ["ADV", "A"])],
    })


def _planted_rule_labels(table):
    return {parent: [lab for _, labs in lines for lab in labs]
            for parent, lines in table.rules.items()}


def _planted_structure(rng, label, depth, rule_labels):
    """Expand ``label`` so that some child always carries one of its rule
    labels; without that guarantee the head falls back to the leftmost
    child and the table cannot be recovered exactly."""
    rl = rule_labels[label]
    if depth == 0:
        return (label, [rng.choice([t for t in rl if t in PLANTED_TAGS])])
    arity = rng.randint(2, 4)
    child_labels = [rng.choice(PLANTED_TAGS) if rng.random() < 0.6
                    else rng.choice(PLANTED_LABELS)
                    for _ in range(arity)]
    if not any(cl in rl for cl in child_labels):
        child_labels[rng.randrange(arity)] = rng.choice(rl)
    return (label, [
        cl if cl in PLANTED_TAGS
        else _planted_structure(rng, cl, depth - 1, rule_labels)
        for cl in child_labels])


def planted_sentence(rng, table, sent_id=None):
    """Random continuous tree whose dependencies are its heads percolated
    through ``table`` (``evaluate.induced_governors``)."""
    rule_labels = _planted_rule_labels(table)
    spec = _planted_structure(rng, rng.choice(PLANTED_LABELS),
                              rng.randint(1, 3), rule_labels)
    tokens = []

    def fill(node):
        if isinstance(node, str):
            i = len(tokens)
            tokens.append(Token(index=i, form=f"w{i}", pos=node))
            return i
        label, kids = node
        return (label, [fill(k) for k in kids])

    # fill() returns ints for terminals, tuples for phrases
    structure = fill(spec)
    tree = build_tree(tokens, structure, sent_id=sent_id)

    heads = [g + 1 for g in induced_governors(tree, table)]
    dep = DepSentence(tree.tokens, heads, ["dep"] * len(tokens),
                      sent_id=sent_id or "").validate()
    return tree, dep


def planted_corpus(rng, count=500) -> tuple:
    """(list of (tree, dep) pairs, planted HeadTable) for induction-recovery
    checks: ``induce_head_table`` should recover the table from the pairs."""
    table = planted_head_table()
    pairs = [planted_sentence(rng, table, sent_id=str(i + 1)) for i in range(count)]
    return pairs, table
