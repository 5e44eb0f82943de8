"""Easy-first parsing engine.

The state is an ordered sequence of immutable parse items.  Each step
scores every applicable action at every adjacent position, applies the
globally best one, and rescores only positions whose feature window the
change could have touched.  One per-sentence decoder serves both
parsing and training; training follows it while its best action is
gold, updates once at the first error and by default stops there.
"""

import random
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .features import FeatureExtractor, make_view, terminal_category, window
from .treebank import FALLBACK_ROOT, ConstTree, build_tree

LEFT = "left"
RIGHT = "right"

BUILD = "BUILD"
ATTACH = "ATTACH"
UNARY = "UNARY"
SWAP = "SWAP"
_KIND_ORDER = {BUILD: 0, ATTACH: 1, UNARY: 2, SWAP: 3}

MAX_UNARY_CHAIN = 2


@dataclass(frozen=True)
class Action:
    kind: str
    label: str = ""
    side: str = ""

    @property
    def key(self) -> str:
        return self._key

    def __post_init__(self):
        object.__setattr__(self, "_key", ":".join(
            p for p in (self.kind, self.label, self.side) if p))
        object.__setattr__(self, "_order", (
            _KIND_ORDER[self.kind], self.label, self.side))

    def sort_key(self):
        return self._order


@dataclass(frozen=True, eq=False)
class ParseNode:
    """One root of the working sequence; immutable and hashed by
    identity, so the gold oracle can memoize its matches by item."""

    label: str
    is_phrase: bool
    children: tuple
    head_token: int
    min_orig: int
    unary_chain: int


def terminal_node(token) -> ParseNode:
    return ParseNode(
        label=token.pos,
        is_phrase=False,
        children=(),
        head_token=token.index,
        min_orig=token.index,
        unary_chain=0,
    )


def initial_state(tokens) -> list:
    return [terminal_node(t) for t in tokens]


class ActionInventory:
    """All action instances for a label set, in canonical order
    (BUILD < ATTACH < UNARY < SWAP, labels lexicographic, left < right)."""

    def __init__(self, labels):
        self.labels = tuple(sorted(set(labels)))
        self._build = {(lab, side): Action(BUILD, lab, side)
                       for lab in self.labels for side in (LEFT, RIGHT)}
        self.attach_left = Action(ATTACH, side=LEFT)
        self.attach_right = Action(ATTACH, side=RIGHT)
        self._unary = {lab: Action(UNARY, lab) for lab in self.labels}
        self.swap = Action(SWAP)
        self._builds = [self._build[(lab, side)] for lab in self.labels for side in (LEFT, RIGHT)]
        self._unaries = [self._unary[lab] for lab in self.labels]
        self.pair_order = (self._builds + [self.attach_left, self.attach_right]
                           + self._unaries + [self.swap])

    def build(self, label, side) -> Action:
        return self._build[(label, side)]

    def unary(self, label) -> Action:
        return self._unary.get(label)

    def applicable(self, state, i) -> list:
        """Actions usable at position ``i``, canonical order preserved.
        A single-root state is terminal and offers nothing."""
        n = len(state)
        if n < 2:
            return []
        left = state[i]
        unaries = self._unaries if left.unary_chain < MAX_UNARY_CHAIN else []
        if i + 1 == n:
            return list(unaries)
        right = state[i + 1]
        out = list(self._builds)
        if right.is_phrase:
            out.append(self.attach_left)
        if left.is_phrase:
            out.append(self.attach_right)
        out += unaries
        if left.min_orig < right.min_orig:
            out.append(self.swap)
        return out


def _step_budget(n_tokens) -> int:
    """Most actions one sentence may take, in decoding and in gold replay."""
    return 4 * n_tokens ** 2 + 64


def _move_order(move):
    """Canonical move order: leftmost position first, then action order."""
    return move[0], move[1].sort_key()


def label_inventory(trees) -> list:
    labels = set()
    for tree in trees:
        for node in tree.internal_nodes():
            labels.add(node.label)
    return sorted(labels)


def _surface_head(table, label, parts, default_head):
    """Head token for a phrase over ``parts``, by table lookup over the
    surface-ordered child labels; the caller's default wins on a miss."""
    ordered = sorted(parts, key=lambda p: p.min_orig)
    k = table.find_head_child(label, [p.label for p in ordered], None)
    return ordered[k].head_token if k is not None else default_head


def apply_action(state, i, action, table) -> list:
    """Transition function; returns a fresh state list."""
    if action.kind == SWAP:
        if not state[i].min_orig < state[i + 1].min_orig:
            raise ValueError("swap guard violated")
        return state[:i] + [state[i + 1], state[i]] + state[i + 2:]

    if action.kind == UNARY:
        child = state[i]
        if child.unary_chain >= MAX_UNARY_CHAIN:
            raise ValueError("unary chain limit reached")
        node = _phrase(action.label, (child,), child.head_token, child.unary_chain + 1)
        return state[:i] + [node] + state[i + 1:]

    left, right = state[i], state[i + 1]
    if action.kind == BUILD:
        default = (left if action.side == LEFT else right).head_token
        head = _surface_head(table, action.label, (left, right), default)
        node = _phrase(action.label, (left, right), head, 0)
    else:
        absorber, absorbed = (right, left) if action.side == LEFT else (left, right)
        if not absorber.is_phrase:
            raise ValueError("attach target is not a constituent")
        parts = absorber.children + (absorbed,)
        head = _surface_head(table, absorber.label, parts, absorber.head_token)
        node = _phrase(absorber.label, parts, head, 0)
    return state[:i] + [node] + state[i + 2:]


def _phrase(label, children, head_token, unary_chain):
    return ParseNode(
        label=label,
        is_phrase=True,
        children=tuple(children),
        head_token=head_token,
        min_orig=min(c.min_orig for c in children),
        unary_chain=unary_chain,
    )


def state_to_tree(state, tokens, sent_id="") -> ConstTree:
    """Finish a state into a tree; leftover roots go under the fallback
    root label."""
    def spec(item):
        if not item.is_phrase:
            return item.min_orig
        return (item.label, [spec(c) for c in item.children])

    if len(state) == 1 and state[0].is_phrase:
        return build_tree(tokens, spec(state[0]), sent_id=sent_id)
    return build_tree(tokens, (FALLBACK_ROOT, [spec(p) for p in state]), sent_id=sent_id)


# --------------------------------------------------------------- oracle

def linearize_gold(tree) -> list:
    """Token index -> rank in the projective order: DFS visiting children
    by minimal original token index.  Continuous trees get the identity."""
    order = []

    def visit(ref):
        if ref not in tree.nodes:
            order.append(ref)
            return
        for c in tree.children_sorted(tree.nodes[ref]):
            visit(c)

    visit(tree.root_id)
    proj = [0] * len(tree.tokens)
    for rank, tok in enumerate(order):
        proj[tok] = rank
    return proj


_COMPLETE = "c"
_PARTIAL = "p"


class GoldOracle:
    """Gold-action sets for states reached while parsing one gold tree.

    Parse items are matched to gold nodes bottom-up: a phrase item
    corresponds to the unique gold node under which its children sit at
    contiguous positions.  Matching is memoized by item, which is sound
    because items are immutable and hashed by identity.
    """

    def __init__(self, gold, table, inventory):
        self.gold = gold
        self.table = table
        self.inventory = inventory
        self.proj = linearize_gold(gold)
        self.parent = {}
        self.pos = {}
        self.label = {}
        self.nchildren = {}
        for node in gold.internal_nodes():
            self.label[node.id] = node.label
            ordered = gold.children_sorted(node)
            self.nchildren[node.id] = len(ordered)
            for k, ref in enumerate(ordered):
                self.parent[ref] = node.id
                self.pos[ref] = k
        self._match = {}
        self._minproj = {}

    def match(self, item):
        if item not in self._match:
            self._match[item] = self._compute_match(item)
        return self._match[item]

    def _compute_match(self, item):
        if not item.is_phrase:
            return (_COMPLETE, item.min_orig)
        refs = []
        for c in item.children:
            m = self.match(c)
            if m is None or m[0] != _COMPLETE:
                return None
            refs.append(m[1])
        parents = {self.parent.get(r) for r in refs}
        if len(parents) != 1:
            return None
        g = parents.pop()
        if g is None or self.label[g] != item.label:
            return None
        ks = sorted(self.pos[r] for r in refs)
        if ks != list(range(ks[0], ks[0] + len(ks))):
            return None
        if len(ks) == self.nchildren[g]:
            return (_COMPLETE, g)
        return (_PARTIAL, g, ks[0], ks[-1])

    def min_proj(self, item) -> int:
        if item not in self._minproj:
            self._minproj[item] = (min(self.min_proj(c) for c in item.children)
                                   if item.is_phrase else self.proj[item.min_orig])
        return self._minproj[item]

    def gold_moves(self, state) -> set:
        """Set of (position, action) pairs that advance toward the gold
        tree.  Empty on a finished (single-root) state."""
        n = len(state)
        out = set()
        if n < 2:
            return out
        matches = [self.match(item) for item in state]
        partial_gold = {m[1] for m in matches if m is not None and m[0] == _PARTIAL}
        inv = self.inventory
        for i in range(n):
            mi = matches[i]
            if (mi is not None and mi[0] == _COMPLETE
                    and state[i].unary_chain < MAX_UNARY_CHAIN):
                g = self.parent.get(mi[1])
                if g is not None and self.nchildren[g] == 1:
                    action = inv.unary(self.label[g])
                    if action is not None:
                        out.add((i, action))
            if i + 1 >= n:
                continue
            mj = matches[i + 1]
            left, right = state[i], state[i + 1]
            if (left.min_orig < right.min_orig
                    and self.min_proj(left) > self.min_proj(right)):
                out.add((i, inv.swap))
            if mi is None or mj is None:
                continue
            if mi[0] == _COMPLETE and mj[0] == _COMPLETE:
                gi = self.parent.get(mi[1])
                gj = self.parent.get(mj[1])
                # one in-progress fragment per gold node, or two halves
                # could never be merged again
                if (gi is not None and gi == gj
                        and self.pos[mj[1]] == self.pos[mi[1]] + 1
                        and gi not in partial_gold):
                    lab = self.label[gi]
                    ordered = sorted((left, right), key=lambda p: p.min_orig)
                    k = self.table.find_head_child(
                        lab, [p.label for p in ordered], None)
                    side = LEFT if k is None or ordered[k] is left else RIGHT
                    out.add((i, inv.build(lab, side)))
            elif mi[0] == _COMPLETE and mj[0] == _PARTIAL:
                g = mj[1]
                if self.parent.get(mi[1]) == g and self.pos[mi[1]] == mj[2] - 1:
                    out.add((i, inv.attach_left))
            elif mi[0] == _PARTIAL and mj[0] == _COMPLETE:
                g = mi[1]
                if self.parent.get(mj[1]) == g and self.pos[mj[1]] == mi[3] + 1:
                    out.add((i, inv.attach_right))
        return out


def replay_gold(tree, table, rng=None, inventory=None):
    """Apply gold actions to exhaustion and return the rebuilt tree.

    ``rng`` picks among the gold set at random; without it the canonical
    (leftmost, action-order) choice is taken.
    """
    if inventory is None:
        inventory = ActionInventory(label_inventory([tree]))
    oracle = GoldOracle(tree, table, inventory)
    state = initial_state(tree.tokens)
    actions_taken = 0
    limit = _step_budget(len(tree.tokens))
    while True:
        moves = oracle.gold_moves(state)
        if not moves:
            break
        if actions_taken > limit:
            raise RuntimeError("gold replay exceeded the action budget")
        if rng is None:
            i, action = min(moves, key=_move_order)
        else:
            i, action = rng.choice(sorted(moves, key=_move_order))
        state = apply_action(state, i, action, table)
        actions_taken += 1
    return state_to_tree(state, tree.tokens, sent_id=tree.sent_id), actions_taken


# ---------------------------------------------------------------- parser

# k: the first index of the highest score
_PositionEntry = namedtuple("_PositionEntry", "actions rows scores k")


class _Decoder:
    """The greedy loop over one sentence: its state, the feature views and
    cached position entries spliced alongside it, and its step budget."""

    def __init__(self, parser, tokens):
        self.parser = parser
        self.tokens = tokens
        self.state = initial_state(tokens)
        self.views = [parser._view(n, tokens) for n in self.state]
        self.entries = [None] * len(self.state)
        self.steps_left = _step_budget(len(tokens))

    def best(self):
        """(i, entry, k) of the best-scoring action, the leftmost on a tie;
        None once the state is finished, stuck or out of steps."""
        state, views, entries = self.state, self.views, self.entries
        if len(state) < 2 or self.steps_left <= 0:
            return None
        best, top = None, None
        for i in range(len(state)):
            if entries[i] is None:
                entries[i] = self.parser._entry(state, views, i)
            entry = entries[i]
            if entry.actions and (best is None or entry.scores[entry.k] > top):
                best, top = (i, entry, entry.k), entry.scores[entry.k]
        return best

    def apply(self, i, action):
        """Apply, splice the views and entries exactly like the state, and
        drop the entries of every position whose window the change reaches."""
        parser, views, entries = self.parser, self.views, self.entries
        self.state = state = apply_action(self.state, i, action, parser.table)
        self.steps_left -= 1
        if action.kind == SWAP:
            views[i], views[i + 1] = views[i + 1], views[i]
            entries[i], entries[i + 1] = entries[i + 1], entries[i]
        else:
            end = i + 1 if action.kind == UNARY else i + 2
            views[i:end] = [parser._view(state[i], self.tokens)]
            entries[i:end] = [None]
        parser._refresh(entries, i - 2, i + 3 if action.kind == SWAP else i + 2)


class EasyFirstParser:
    """Greedy decoder plus trainer around one weight store."""

    def __init__(self, store, feat_config, table, labels, tagclass=None,
                 lexicon=None, bigram_model=None):
        self.store = store
        self.table = table
        self.tagclass = tagclass
        self.lexicon = lexicon
        self.inventory = ActionInventory(labels)
        self.extractor = FeatureExtractor(
            feat_config, [a.key for a in self.inventory.pair_order], bigram_model)

    def _view(self, item, tokens):
        """The one map from a parse item to what feature templates see."""
        head = tokens[item.head_token]
        category = (item.label if item.is_phrase
                    else terminal_category(item.label, head.form, self.tagclass))
        return make_view(category, head, self.lexicon)

    # feature rows for all applicable actions at one position
    def _entry(self, state, views, i):
        actions = self.inventory.applicable(state, i)
        if not actions:
            return _PositionEntry((), None, np.empty(0), -1)
        rows = self.extractor.extract_many(window(views, i), [a.key for a in actions])
        scores = self.store.score_rows(rows)
        return _PositionEntry(tuple(actions), rows, scores, int(np.argmax(scores)))

    def _refresh(self, entries, lo, hi):
        for i in range(max(0, lo), min(len(entries), hi)):
            entries[i] = None

    def parse_tokens(self, tokens, sent_id="") -> ConstTree:
        dec = _Decoder(self, tokens)
        while (best := dec.best()) is not None:
            i, entry, k = best
            dec.apply(i, entry.actions[k])
        return state_to_tree(dec.state, tokens, sent_id=sent_id)

    def _train_sentence(self, tree, continue_after_error) -> bool:
        """Decode one gold tree beside its oracle; True if it updated."""
        oracle = GoldOracle(tree, self.table, self.inventory)
        dec = _Decoder(self, tree.tokens)
        updated = False
        while (best := dec.best()) is not None:
            moves = oracle.gold_moves(dec.state)
            if not moves:
                break
            i, entry, k = best
            if (i, entry.actions[k]) in moves:
                dec.apply(i, entry.actions[k])
                continue
            updated = True
            gold_row, top = None, None
            for gi, gaction in sorted(moves, key=_move_order):
                gentry = dec.entries[gi]
                if gaction in gentry.actions:
                    gk = gentry.actions.index(gaction)
                    if gold_row is None or gentry.scores[gk] > top:
                        gold_row, top = gentry.rows[gk], gentry.scores[gk]
            if gold_row is not None:
                self.store.update(entry.rows[k], gold_row)
            if not continue_after_error:
                break
            # steer back onto the gold path; drop all cached scores, the
            # update just invalidated them
            dec.entries[:] = [None] * len(dec.entries)
            dec.apply(*min(moves, key=_move_order))
        return updated

    def train(self, trees, epochs=15, seed=42, epoch_hook=None,
              continue_after_error=False) -> dict:
        """Error-driven training with per-epoch reshuffling.

        Every sentence runs the greedy loop; while the best action is in
        the gold set it is applied, and the first error triggers one
        update against the best-scoring gold action.  By default the
        sentence is then abandoned.
        """
        if not trees:
            raise ValueError("empty training corpus")
        if epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {epochs}")
        rng = random.Random(seed)
        order = list(range(len(trees)))
        stats = {"epochs": []}
        for epoch in range(epochs):
            rng.shuffle(order)
            updates = sum(self._train_sentence(trees[idx], continue_after_error)
                          for idx in order)
            epoch_stats = {"epoch": epoch, "updates": updates, "clean": len(order) - updates}
            stats["epochs"].append(epoch_stats)
            if epoch_hook is not None:
                epoch_hook(epoch, epoch_stats)
        return stats
