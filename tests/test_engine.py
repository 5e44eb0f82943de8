import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoparse.clusters import ClusterLexicon
from discoparse.engine import (
    ATTACH,
    BUILD,
    LEFT,
    MAX_UNARY_CHAIN,
    RIGHT,
    SWAP,
    UNARY,
    Action,
    ActionInventory,
    EasyFirstParser,
    GoldOracle,
    _Decoder,
    _move_order,
    apply_action,
    initial_state,
    label_inventory,
    linearize_gold,
    replay_gold,
    state_to_tree,
)
from discoparse.features import FeatureConfig
from discoparse.headrules import CLOSED, LTR, RTL, HeadTable, TagClassification
from discoparse.learner import WeightStore
from discoparse.synthdata import build_tree, random_tree, toy_corpus, toy_sentence
from discoparse.treebank import FALLBACK_ROOT, Token, discbracket_line, read_discbracket

EMPTY_TABLE = HeadTable()


def mk_tokens(*pairs):
    return [Token(index=i, form=f, pos=p) for i, (f, p) in enumerate(pairs)]


# --------------------------------------------------------------- actions

def test_action_keys_and_order():
    b = Action(BUILD, "S", LEFT)
    assert b.key == "BUILD:S:left"
    assert Action(ATTACH, side=RIGHT).key == "ATTACH:right"
    assert Action(UNARY, "VP").key == "UNARY:VP"
    assert Action(SWAP).key == "SWAP"
    order = sorted([Action(SWAP), Action(UNARY, "NP"), Action(ATTACH, side=LEFT), b],
                   key=lambda a: a.sort_key())
    assert [a.kind for a in order] == [BUILD, ATTACH, UNARY, SWAP]


def test_applicable_two_preterminals():
    toks = mk_tokens(("a", "X"), ("b", "Y"))
    state = initial_state(toks)
    inv = ActionInventory(["NP", "S"])
    acts = inv.applicable(state, 0)
    # no ATTACH: neither side is a constituent yet
    assert [a.key for a in acts] == [
        "BUILD:NP:left", "BUILD:NP:right", "BUILD:S:left", "BUILD:S:right",
        "UNARY:NP", "UNARY:S", "SWAP"]
    # last position offers only unary wraps
    assert [a.key for a in inv.applicable(state, 1)] == ["UNARY:NP", "UNARY:S"]


def test_single_root_is_terminal():
    toks = mk_tokens(("a", "X"))
    inv = ActionInventory(["S"])
    assert inv.applicable(initial_state(toks), 0) == []


def test_attach_requires_phrase_absorber():
    toks = mk_tokens(("a", "X"), ("b", "Y"), ("c", "Z"))
    state = initial_state(toks)
    state = apply_action(state, 0, Action(BUILD, "NP", LEFT), EMPTY_TABLE)
    inv = ActionInventory(["NP"])
    keys0 = [a.key for a in inv.applicable(state, 0)]
    assert "ATTACH:right" in keys0  # left item is the NP
    assert "ATTACH:left" not in keys0  # right item is a bare terminal


def test_swap_guard():
    toks = mk_tokens(("a", "X"), ("b", "Y"))
    state = initial_state(toks)
    state = apply_action(state, 0, Action(SWAP), EMPTY_TABLE)
    assert [n.min_orig for n in state] == [1, 0]
    inv = ActionInventory(["S"])
    assert all(a.kind != SWAP for a in inv.applicable(state, 0))
    with pytest.raises(ValueError):
        apply_action(state, 0, Action(SWAP), EMPTY_TABLE)


# ----------------------------------------------------------- transitions

def test_build_head_side_table_miss_uses_action_side():
    toks = mk_tokens(("der", "ART"), ("hund", "NN"))
    state = initial_state(toks)
    left = apply_action(state, 0, Action(BUILD, "NP", LEFT), EMPTY_TABLE)[0]
    right = apply_action(state, 0, Action(BUILD, "NP", RIGHT), EMPTY_TABLE)[0]
    assert left.head_token == 0 and right.head_token == 1
    assert state_to_tree([left], toks).root.leaves == frozenset({0, 1})
    assert left.min_orig == 0


def test_build_head_side_table_overrides_action():
    table = HeadTable({"NP": [(LTR, ["NN"])]})
    toks = mk_tokens(("der", "ART"), ("hund", "NN"))
    node = apply_action(initial_state(toks), 0,
                        Action(BUILD, "NP", LEFT), table)[0]
    assert node.head_token == 1


def test_build_head_table_sees_surface_order():
    # after a swap the pair is (NN, ART) in state order but the table
    # scans surface order, so an LTR ART rule still finds token 0
    table = HeadTable({"NP": [(LTR, ["ART"])]})
    toks = mk_tokens(("der", "ART"), ("hund", "NN"))
    state = apply_action(initial_state(toks), 0, Action(SWAP), EMPTY_TABLE)
    node = apply_action(state, 0, Action(BUILD, "NP", LEFT), table)[0]
    assert node.head_token == 0


def test_attach_splices_and_recomputes_head():
    table = HeadTable({"NP": [(LTR, ["NE"])]})
    toks = mk_tokens(("der", "ART"), ("alte", "ADJA"), ("karl", "NE"))
    state = initial_state(toks)
    state = apply_action(state, 0, Action(BUILD, "NP", LEFT), table)
    assert len(state) == 2
    state = apply_action(state, 0, Action(ATTACH, side=RIGHT), table)
    assert len(state) == 1
    root = state[0]
    assert state_to_tree([root], toks).root.leaves == frozenset({0, 1, 2})
    assert root.head_token == 2
    # on a table miss the absorber's old head is kept
    state2 = initial_state(toks)
    state2 = apply_action(state2, 0, Action(BUILD, "NP", RIGHT), EMPTY_TABLE)
    head_before = state2[0].head_token
    state2 = apply_action(state2, 0, Action(ATTACH, side=RIGHT), EMPTY_TABLE)
    assert state2[0].head_token == head_before


def test_unary_chain_cap():
    toks = mk_tokens(("hund", "NN"), (".", "$."))
    state = initial_state(toks)
    state = apply_action(state, 0, Action(UNARY, "NP"), EMPTY_TABLE)
    assert state[0].unary_chain == 1 and state[0].label == "NP"
    state = apply_action(state, 0, Action(UNARY, "VP"), EMPTY_TABLE)
    assert state[0].unary_chain == 2
    with pytest.raises(ValueError):
        apply_action(state, 0, Action(UNARY, "S"), EMPTY_TABLE)
    inv = ActionInventory(["S"])
    assert all(a.kind != UNARY for a in inv.applicable(state, 0))
    # a binary build resets the chain
    state = apply_action(state, 0, Action(BUILD, "S", LEFT), EMPTY_TABLE)
    assert state[0].unary_chain == 0


# -------------------------------------------------------------- finishing

def test_state_to_tree_single_phrase_root():
    tree = build_tree([("a", "X"), ("b", "Y")], ("S", [0, 1]))
    toks = tree.tokens
    state = apply_action(initial_state(toks), 0,
                         Action(BUILD, "S", LEFT), EMPTY_TABLE)
    rebuilt = state_to_tree(state, toks)
    assert rebuilt.signature() == tree.signature()


def test_state_to_tree_wraps_leftovers():
    toks = mk_tokens(("a", "X"), ("b", "Y"), ("c", "Z"))
    state = initial_state(toks)
    state = apply_action(state, 0, Action(BUILD, "NP", LEFT), EMPTY_TABLE)
    wrapped = state_to_tree(state, toks)
    root = wrapped.nodes[wrapped.root_id]
    assert root.label == "VROOT"
    assert len(root.children) == 2
    assert root.leaves == frozenset({0, 1, 2})


def test_state_to_tree_single_token_sentence():
    toks = mk_tokens(("ja", "PTKANT"))
    wrapped = state_to_tree(initial_state(toks), toks)
    assert wrapped.nodes[wrapped.root_id].label == "VROOT"
    assert wrapped.nodes[wrapped.root_id].children == [0]


# ------------------------------------------------------------ gold oracle

def test_linearize_gold_identity_on_continuous():
    tree = build_tree([("a", "A"), ("b", "B"), ("c", "C")],
                      ("S", [("NP", [0, 1]), 2]))
    assert linearize_gold(tree) == [0, 1, 2]


def test_linearize_gold_discontinuous():
    # VP covers {0, 2}; NP is {1}; projective order pulls 2 next to 0
    tree = build_tree([("geht", "VVFIN"), ("er", "PPER"), ("heim", "PTKVZ")],
                      ("S", [("VP", [0, 2]), 1]))
    assert linearize_gold(tree) == [0, 2, 1]


def _oracle(tree, table=None):
    inv = ActionInventory(label_inventory([tree]))
    return GoldOracle(tree, table or EMPTY_TABLE, inv), inv


def test_gold_build_adjacent_in_proj_order():
    tree = build_tree([("a", "A"), ("b", "B"), ("c", "C")],
                      ("S", [("NP", [0, 1]), 2]))
    oracle, inv = _oracle(tree)
    state = initial_state(tree.tokens)
    moves = oracle.gold_moves(state)
    assert (0, inv.build("NP", LEFT)) in moves
    # (b, c) are not siblings, (a, c) not adjacent
    assert all(not (i == 1 and a.kind == BUILD) for i, a in moves)


def test_gold_swap_on_inverted_pair():
    tree = build_tree([("geht", "VVFIN"), ("er", "PPER"), ("heim", "PTKVZ")],
                      ("S", [("VP", [0, 2]), 1]))
    oracle, inv = _oracle(tree)
    state = initial_state(tree.tokens)
    moves = oracle.gold_moves(state)
    # tokens 1 and 2 are proj-inverted; nothing else is gold yet
    assert moves == {(1, inv.swap)}
    state = apply_action(state, 1, inv.swap, EMPTY_TABLE)
    moves = oracle.gold_moves(state)
    assert (0, inv.build("VP", LEFT)) in moves


def test_gold_build_blocked_by_existing_fragment():
    # S has four children; once (a, b) is built, building (c, d) would
    # strand two fragments that no action can ever merge
    tree = build_tree([("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
                      ("S", [0, 1, 2, 3]))
    oracle, inv = _oracle(tree)
    state = initial_state(tree.tokens)
    moves = oracle.gold_moves(state)
    assert (0, inv.build("S", LEFT)) in moves
    assert (1, inv.build("S", LEFT)) in moves
    assert (2, inv.build("S", LEFT)) in moves
    state = apply_action(state, 0, inv.build("S", LEFT), EMPTY_TABLE)
    moves = oracle.gold_moves(state)
    assert all(a.kind != BUILD for _, a in moves)
    assert (0, inv.attach_right) in moves


def test_gold_attach_extends_either_end():
    tree = build_tree([("a", "A"), ("b", "B"), ("c", "C")], ("S", [0, 1, 2]))
    oracle, inv = _oracle(tree)
    state = initial_state(tree.tokens)
    # build the middle pair first, then a extends at the left end
    state = apply_action(state, 1, inv.build("S", LEFT), EMPTY_TABLE)
    moves = oracle.gold_moves(state)
    assert moves == {(0, inv.attach_left)}


def test_gold_unary_on_preterminal():
    tree = build_tree([("hund", "NN"), (".", "$.")],
                      ("S", [("NP", [0]), 1]))
    oracle, inv = _oracle(tree)
    state = initial_state(tree.tokens)
    moves = oracle.gold_moves(state)
    assert moves == {(0, inv.unary("NP"))}
    state = apply_action(state, 0, inv.unary("NP"), EMPTY_TABLE)
    moves = oracle.gold_moves(state)
    assert moves == {(0, inv.build("S", LEFT))}


def test_gold_build_head_side_follows_table():
    table = HeadTable({"NP": [(LTR, ["NN"])]})
    tree = build_tree([("der", "ART"), ("hund", "NN")], ("NP", [0, 1]))
    oracle, inv = _oracle(tree, table)
    moves = oracle.gold_moves(initial_state(tree.tokens))
    assert moves == {(0, inv.build("NP", RIGHT))}


# ---------------------------------------------------------------- replay

def test_replay_canonical_small():
    tree, _ = toy_sentence(random.Random(7), "extra", pp_chain=2)
    rebuilt, n_actions = replay_gold(tree, EMPTY_TABLE)
    assert rebuilt.signature() == tree.signature()
    assert n_actions > 0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_replay_random_choice_matches(seed):
    rng = random.Random(seed)
    for _ in range(40):
        tree = random_tree(rng, max_block_degree=3)
        rebuilt, n_actions = replay_gold(tree, EMPTY_TABLE, rng=rng)
        assert rebuilt.signature() == tree.signature()
        n = len(tree.tokens)
        assert n_actions <= n * n / 2 + 4 * n


def test_replay_discontinuous_required():
    rng = random.Random(31)
    for _ in range(25):
        tree = random_tree(rng, max_block_degree=3, require_discontinuity=True)
        rebuilt, _ = replay_gold(tree, EMPTY_TABLE, rng=rng)
        assert rebuilt.signature() == tree.signature()


def test_replay_with_planted_table_heads():
    # head table hits must not disturb reconstruction
    from discoparse.synthdata import planted_corpus, planted_head_table
    rng = random.Random(5)
    corpus, table = planted_corpus(rng, count=40)
    for tree, _ in corpus:
        rebuilt, _ = replay_gold(tree, table, rng=rng)
        assert rebuilt.signature() == tree.signature()


# --------------------------------------------------------------- parsing

def make_parser(labels, dim=2 ** 18, table=None, seed_weights=None):
    store = WeightStore(dim=dim)
    if seed_weights is not None:
        rng = np.random.default_rng(seed_weights)
        store.weights[:] = rng.standard_normal(dim).astype(np.float32) * 0.01
    config = FeatureConfig(dim=dim)
    return EasyFirstParser(store, config, table or EMPTY_TABLE, labels)


def test_parse_zero_weights_terminates_and_covers():
    parser = make_parser(["NP", "S"])
    toks = mk_tokens(("a", "A"), ("b", "B"), ("c", "C"), ("d", "D"))
    tree = parser.parse_tokens(toks)
    assert sorted(tree.nodes[tree.root_id].leaves) == [0, 1, 2, 3]
    tree.validate()


def test_parse_deterministic():
    parser = make_parser(["NP", "PP", "S"], seed_weights=3)
    toks = mk_tokens(("a", "A"), ("b", "B"), ("c", "C"), ("d", "D"), ("e", "E"))
    t1 = parser.parse_tokens(toks)
    t2 = parser.parse_tokens(toks)
    assert t1.signature() == t2.signature()


class _NoCacheParser(EasyFirstParser):
    """Recomputes every position after every action."""

    def _refresh(self, entries, lo, hi):
        entries[:] = [None] * len(entries)


@pytest.mark.parametrize("seed", [41, 42])
def test_incremental_rescoring_matches_full_rescoring(seed):
    rng = random.Random(seed)
    labels = ["AP", "NP", "PP", "S", "VP"]
    a = make_parser(labels, seed_weights=seed)
    b = _NoCacheParser(a.store, a.extractor.config, EMPTY_TABLE, labels)
    for _ in range(15):
        tree = random_tree(rng, max_block_degree=3)
        assert (a.parse_tokens(tree.tokens).signature()
                == b.parse_tokens(tree.tokens).signature())


def test_two_decoders_on_one_parser_interleave():
    # decoders share the parser and its caches but no per-sentence state
    labels = ["NP", "PP", "S", "VP"]
    parser = make_parser(labels, seed_weights=5)
    trees = [t for t, _ in toy_corpus(2, random.Random(23))]
    assert len(trees[0].tokens) != len(trees[1].tokens)
    decoders = [_Decoder(parser, t.tokens) for t in trees]
    live = list(decoders)
    while live:
        for dec in list(live):
            best = dec.best()
            if best is None:
                live.remove(dec)
            else:
                i, entry, k = best
                dec.apply(i, entry.actions[k])
    got = [state_to_tree(d.state, t.tokens).signature() for d, t in zip(decoders, trees)]
    assert got == [parser.parse_tokens(t.tokens).signature() for t in trees]


# --------------------------------------------------------------- training

def toy_table():
    return HeadTable({
        "S": [(LTR, ["VP", "VVFIN"])],
        "VP": [(LTR, ["VVFIN"])],
        "NP": [(LTR, ["NN"])],
        "PP": [(LTR, ["APPR"])],
    })


def test_train_reaches_clean_replay():
    corpus = toy_corpus(60, random.Random(9))
    trees = [t for t, _ in corpus]
    parser = make_parser(label_inventory(trees), dim=2 ** 18, table=toy_table())
    stats = parser.train(trees, epochs=8, seed=42)
    assert stats["epochs"][0]["updates"] > 0
    last = stats["epochs"][-1]
    assert last["clean"] >= 55
    # the trained model reproduces most training trees exactly
    exact = sum(parser.parse_tokens(t.tokens).signature() == t.signature()
                for t in trees)
    assert exact >= 50


def test_train_determinism():
    corpus = toy_corpus(25, random.Random(10))
    trees = [t for t, _ in corpus]
    labels = label_inventory(trees)

    def run():
        parser = make_parser(labels, dim=2 ** 16, table=toy_table())
        parser.train(trees, epochs=3, seed=42)
        return parser.store.weights.copy()

    w1, w2 = run(), run()
    assert np.array_equal(w1, w2)


def test_train_epoch_hook_and_shuffle_seed():
    corpus = toy_corpus(12, random.Random(11))
    trees = [t for t, _ in corpus]
    seen = []
    parser = make_parser(label_inventory(trees), dim=2 ** 16, table=toy_table())
    parser.train(trees, epochs=2, seed=7,
                 epoch_hook=lambda e, s: seen.append((e, s["updates"])))
    assert [e for e, _ in seen] == [0, 1]


def test_train_continue_after_error():
    corpus = toy_corpus(12, random.Random(13))
    trees = [t for t, _ in corpus]
    parser = make_parser(label_inventory(trees), dim=2 ** 16, table=toy_table())
    stats = parser.train(trees, epochs=2, seed=1, continue_after_error=True)
    assert stats["epochs"][0]["updates"] > 0


class _SizeLog(dict):
    """A dict that remembers the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def test_feature_cache_stays_bounded():
    trees = [t for t, _ in toy_corpus(30, random.Random(14))]
    dev = [t for t, _ in toy_corpus(20, random.Random(15))]
    parser = make_parser(label_inventory(trees), dim=2 ** 16, table=toy_table())
    parser.train(trees, epochs=3, seed=42)
    want = [parser.parse_tokens(t.tokens).signature() for t in dev]
    small = EasyFirstParser(parser.store, parser.extractor.config, parser.table,
                            parser.inventory.labels)
    small.extractor._cap = 50
    small.extractor._cache = log = _SizeLog()
    assert [small.parse_tokens(t.tokens).signature() for t in dev] == want
    assert log.most == 50
    # the default cap held every instance, far more than the small one allows
    assert len(parser.extractor._cache) > 4 * 50


def test_train_rejects_empty_corpus():
    parser = make_parser(["S"])
    with pytest.raises(ValueError):
        parser.train([])


def test_train_refuses_zero_epochs():
    trees = [t for t, _ in toy_corpus(2, random.Random(3))]
    parser = make_parser(label_inventory(trees))
    with pytest.raises(ValueError, match="epochs"):
        parser.train(trees, epochs=0)


# ------------------------------------------------------------ properties

def reference_applicable(inventory, state, i):
    """Applicable actions by a ``kind`` test per action of ``pair_order``,
    the slow form that ``ActionInventory.applicable`` must agree with."""
    if len(state) < 2:
        return []
    has_pair = i + 1 < len(state)
    left = state[i]
    right = state[i + 1] if has_pair else None
    out = []
    for action in inventory.pair_order:
        if action.kind == BUILD:
            ok = has_pair
        elif action.kind == ATTACH:
            ok = has_pair and (right if action.side == LEFT else left).is_phrase
        elif action.kind == UNARY:
            ok = left.unary_chain < MAX_UNARY_CHAIN
        else:
            ok = has_pair and left.min_orig < right.min_orig
        if ok:
            out.append(action)
    return out


def _view_parser():
    """A parser whose views differ between tags, closed-class terminals
    and phrases, and carry cluster paths."""
    lexicon = ClusterLexicon({"hund": "0110", "katze": "10", "gut": "111"})
    tagclass = TagClassification({"ART": CLOSED, "APPR": CLOSED})
    return EasyFirstParser(WeightStore(2 ** 10), FeatureConfig(dim=2 ** 10), EMPTY_TABLE,
                           ["AP", "AVP", "NP", "PP", "S", "VP"],
                           tagclass=tagclass, lexicon=lexicon)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tokens=st.integers(2, 16),
       degree=st.integers(1, 3), canonical=st.booleans())
def test_decoder_on_gold_paths_keeps_views_and_applicable(seed, n_tokens, degree, canonical):
    rng = random.Random(seed)
    tree = random_tree(rng, n_tokens=n_tokens, max_block_degree=degree)
    parser = _view_parser()
    inv = parser.inventory
    oracle = GoldOracle(tree, EMPTY_TABLE, inv)
    dec = _Decoder(parser, tree.tokens)
    while True:
        assert dec.views == [parser._view(n, tree.tokens) for n in dec.state]
        assert len(dec.entries) == len(dec.state)
        for i in range(len(dec.state)):
            assert inv.applicable(dec.state, i) == reference_applicable(inv, dec.state, i)
        moves = oracle.gold_moves(dec.state)
        if not moves:
            break
        ordered = sorted(moves, key=_move_order)
        dec.apply(*(ordered[0] if canonical else rng.choice(ordered)))
    assert state_to_tree(dec.state, tree.tokens) == tree


def yield_of(item):
    """An item's tokens by a walk over its children."""
    if not item.is_phrase:
        return {item.min_orig}
    return set().union(*(yield_of(c) for c in item.children))


def phrase_items(items):
    for item in items:
        if item.is_phrase:
            yield item
            yield from phrase_items(item.children)


def labeled_yields(tree):
    return sorted((n.label, sorted(n.leaves)) for n in tree.internal_nodes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tokens=st.integers(2, 16),
       degree=st.integers(1, 3), canonical=st.booleans())
def test_yields_follow_children_on_gold_paths(seed, n_tokens, degree, canonical):
    rng = random.Random(seed)
    tree = random_tree(rng, n_tokens=n_tokens, max_block_degree=degree, rich_tokens=False)
    oracle = GoldOracle(tree, EMPTY_TABLE, ActionInventory(label_inventory([tree])))
    state = initial_state(tree.tokens)
    while True:
        want = [(p.label, sorted(yield_of(p))) for p in phrase_items(state)]
        if not (len(state) == 1 and state[0].is_phrase):
            want.append((FALLBACK_ROOT, list(range(n_tokens))))
        assert labeled_yields(state_to_tree(state, tree.tokens)) == sorted(want)
        for item in state:
            assert oracle.min_proj(item) == min(oracle.proj[t] for t in yield_of(item))
        moves = oracle.gold_moves(state)
        if not moves:
            break
        ordered = sorted(moves, key=_move_order)
        state = apply_action(state, *(ordered[0] if canonical else rng.choice(ordered)),
                             EMPTY_TABLE)
    (back,) = read_discbracket(io.StringIO(discbracket_line(tree)), strict=True)
    assert back == tree
    assert labeled_yields(back) == labeled_yields(tree)
