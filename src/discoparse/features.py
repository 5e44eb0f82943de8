"""Hashed feature extraction for parser states.

A parser state is seen through a 4-position window (-1, 0, 1, 2) of
``NodeView`` snapshots; every template is conjoined with the candidate
action id and hashed into a fixed power-of-two dimension count with
FNV-1a 64.
"""

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from . import clusters
from .clusters import UNK

# window geometry: n0/n1 are the pair acted on, n-1/n2 their neighbours
POSITIONS = (-1, 0, 1, 2)
PAIRS = ((-1, 0), (0, 1), (1, 2), (-1, 2), (0, 2))
BIGRAM_PAIRS = ((0, 1), (1, 2), (0, 2))


@dataclass(frozen=True)
class NodeView:
    """What feature templates may see of one parse item."""

    category: str
    head_form: str
    cluster_full: str
    cluster_6: str


BOUNDARY = NodeView("<B>", "<B>", "<B>", "<B>")


def terminal_category(tag, form, tagclass):
    """Closed-class tags carry the word form in the category itself."""
    if tagclass is not None and tagclass.is_closed(tag):
        return f"{tag}_{form}"
    return tag


def make_view(category, head_token, lexicon=None) -> NodeView:
    """The view of an item of ``category`` headed by ``head_token``."""
    full = lexicon.lookup(head_token.form) if lexicon is not None else UNK
    return NodeView(category, head_token.form, full, clusters.prefix(full, 6))


def window(views, i) -> dict:
    """Map {-1, 0, 1, 2} -> NodeView around pair position ``i``; positions
    outside the state give the boundary sentinel."""
    n = len(views)
    if not 0 <= i < n:
        raise IndexError(f"window position {i} out of range for {n} items")
    return {p: views[i + p] if 0 <= i + p < n else BOUNDARY
            for p in POSITIONS}


@dataclass(frozen=True)
class FeatureConfig:
    dim: int = 2 ** 24
    cluster_kinds: tuple = ()
    # former ablation toggles; model files carry them, only at these values
    pair_minus1_0: bool = True
    literal_duplicate_ww: bool = False
    lemma_templates: bool = False

    def __post_init__(self):
        # type(), not isinstance(): True is an int but no dimension count
        if type(self.dim) is not int or self.dim <= 0 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two, got {self.dim!r}")
        if not isinstance(self.cluster_kinds, tuple) or not all(
                isinstance(k, str) for k in self.cluster_kinds):
            raise ValueError(f"cluster_kinds must be a tuple of strings, got {self.cluster_kinds!r}")
        bad = set(self.cluster_kinds) - {clusters.FULL, clusters.SIX_BIT, clusters.FOUR_BIT}
        if bad:
            raise ValueError(f"unknown cluster kinds: {sorted(bad)}")
        bad = [f.name for f in fields(self)
               if f.type is bool and getattr(self, f.name) is not f.default]
        if bad:
            raise ValueError(f"{bad} must keep their default values")


def config_digest(config) -> str:
    # the fixed fields keep the digests that existing model files carry
    text = f"{config.dim}|{','.join(config.cluster_kinds)}|True|False|False|-"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _kind_value(view, kind):
    if kind == clusters.FULL:
        return view.cluster_full
    if kind == clusters.SIX_BIT:
        return view.cluster_6
    return clusters.prefix(view.cluster_full, 4)


def template_parts(views, config, model=None) -> list:
    """All template instances for one window, as tuples of string parts
    (first part identifies the template)."""
    out = []
    for p in POSITIONS:
        v = views[p]
        ps = str(p)
        out.append(("uC" + ps, v.category))
        out.append(("uW" + ps, v.head_form))
        out.append(("uCW" + ps, v.category, v.head_form))
    for m, n in PAIRS:
        vm, vn = views[m], views[n]
        tag = f"{m}:{n}"
        out.append(("pWW" + tag, vm.head_form, vn.head_form))
        out.append(("pWC" + tag, vm.head_form, vn.category))
        out.append(("pCW" + tag, vm.category, vn.head_form))
        out.append(("pCC" + tag, vm.category, vn.category))
        for kind in config.cluster_kinds:
            km, kn = _kind_value(vm, kind), _kind_value(vn, kind)
            kt = kind + tag
            out.append(("kCK" + kt, vm.category, kn))
            out.append(("kKC" + kt, km, vn.category))
            out.append(("kCKC" + kt, vm.category, km, vn.category))
            out.append(("kCCK" + kt, vm.category, vn.category, km))
            out.append(("kCKCK" + kt, vm.category, km, vn.category, kn))
    if model is not None:
        for m, n in BIGRAM_PAIRS:
            vm, vn = views[m], views[n]
            tag = f"{m}:{n}"
            for a, b, d in ((vm, vn, "f"), (vn, vm, "b")):
                bucket = model.query(a.head_form, b.head_form).name
                out.append(("bB" + d + tag, bucket))
                out.append(("bBCC" + d + tag, bucket, vm.category, vn.category))
    return out


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a(data: bytes, h=_FNV_OFFSET) -> int:
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def hash_index(parts, action_id, dim) -> int:
    """FNV-1a 64 over the 0x1F-joined UTF-8 parts and action id, masked
    to the power-of-two ``dim``."""
    data = "\x1f".join((*parts, action_id)).encode("utf-8")
    return _fnv1a(data) & (dim - 1)


# byte budget of one extractor's cache: 8 bytes per action plus ~300 per entry
_CACHE_BYTES = 2 ** 28


class FeatureExtractor:
    """Pairs a config (and optional bigram model) with a bounded index cache.

    The cache maps a template instance (its parts tuple) to its hash index
    under every action id of the fixed inventory.  A window's misses are
    filled in one batch: each missed instance's parts are hashed once in
    Python, then FNV-1a continues from every such state over every action
    id's 0x1F-prefixed bytes at once, one byte column at a time in
    wrapping ``uint64`` numpy, which gives ``hash_index`` by construction.
    """

    def __init__(self, config, action_ids, bigram_model=None):
        self.config = config
        self.model = bigram_model
        self._actions = tuple(action_ids)
        self._column = {a: k for k, a in enumerate(self._actions)}
        # row j: byte j of every action's suffix, and whether it has one
        suffixes = [("\x1f" + a).encode("utf-8") for a in self._actions]
        lengths = np.array([len(s) for s in suffixes])
        self._live = np.arange(lengths.max())[:, None] < lengths
        self._bytes = np.array([list(s.ljust(lengths.max(), b"\0")) for s in suffixes],
                               dtype=np.uint64).T
        self._cap = max(1, _CACHE_BYTES // (8 * len(self._actions) + 300))
        self._cache = {}
        # FNV states of one fill and their next products, grown to the most
        # misses one window has had.  A fill allocates only the rows the
        # cache keeps, one small array each: a block per window, held by
        # its cached rows, split the heap's free space between the weights
        self._h = self._step = np.empty((0, len(self._actions)), dtype=np.uint64)

    def _fill(self, misses) -> list:
        """The index vector of each template instance in ``misses`` under
        every action of the inventory."""
        m = len(misses)
        if m > len(self._h):
            self._h, self._step = np.empty((2, m, len(self._actions)), dtype=np.uint64)
        h, step = self._h[:m], self._step[:m]
        h[:] = np.array([_fnv1a("\x1f".join(parts).encode("utf-8")) for parts in misses],
                        dtype=np.uint64)[:, None]
        # array (not scalar) uint64 products wrap mod 2**64 without a warning
        prime = np.uint64(_FNV_PRIME)
        for byte, live in zip(self._bytes, self._live):
            np.bitwise_xor(h, byte, out=step)
            step *= prime
            np.copyto(h, step, where=live)
        h &= np.uint64(self.config.dim - 1)
        return [row.copy() for row in h.view(np.int64)]

    def extract_many(self, views, action_ids) -> np.ndarray:
        """The A x T index matrix: row k holds every template's index
        under ``action_ids[k]``."""
        cache = self._cache
        tpls = template_parts(views, self.config, self.model)
        vecs = [cache.get(parts) for parts in tpls]
        missed = [k for k, vec in enumerate(vecs) if vec is None]
        if missed:
            # the window keeps its rows in ``vecs``, so a clear loses none
            for k, vec in zip(missed, self._fill([tpls[k] for k in missed])):
                if len(cache) >= self._cap:
                    cache.clear()
                vecs[k] = cache[tpls[k]] = vec
        return np.array(vecs).T[[self._column[a] for a in action_ids]]
