import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoparse import features
from discoparse.bigrams import RAW, BigramAssocModel, quantile_cuts
from discoparse.clusters import FULL, SIX_BIT, UNK, ClusterLexicon
from discoparse.features import (
    BOUNDARY,
    FeatureConfig,
    FeatureExtractor,
    NodeView,
    _fnv1a,
    config_digest,
    hash_index,
    make_view,
    template_parts,
    terminal_category,
    window,
)
from discoparse.headrules import CLOSED, PUNCT, TagClassification
from discoparse.treebank import Token


def view(cat, form="f"):
    return NodeView(cat, form, UNK, UNK)


def extract_one(views, action_id, config, model=None):
    return FeatureExtractor(config, [action_id], model).extract_many(views, [action_id])[0]


def views_for(cats):
    return {p: view(c, f"w{p}") for p, c in zip((-1, 0, 1, 2), cats)}


def test_terminal_category_augmentation():
    cls = TagClassification({"APPR": CLOSED, "$.": PUNCT})
    assert terminal_category("APPR", "mit", cls) == "APPR_mit"
    assert terminal_category("NN", "Haus", cls) == "NN"
    assert terminal_category("$.", ".", cls) == "$."
    assert terminal_category("APPR", "mit", None) == "APPR"


def test_make_terminal_view_cluster_lookup():
    lex = ClusterLexicon({"Haus": "0110101"})
    v = make_view("NN", Token(0, "Haus", lemma="haus", pos="NN"), lex)
    assert v.cluster_full == "0110101"
    assert v.cluster_6 == "011010"
    assert v.category == "NN" and v.head_form == "Haus"
    miss = make_view("ADV", Token(1, "weg", pos="ADV"), lex)
    assert miss.cluster_full == UNK and miss.cluster_6 == UNK


def test_window_boundaries():
    vs = [view("A"), view("B")]
    w = window(vs, 0)
    assert w[-1] is BOUNDARY and w[2] is BOUNDARY
    assert w[0].category == "A" and w[1].category == "B"
    w_last = window(vs, 1)
    assert w_last[0].category == "B" and w_last[1] is BOUNDARY
    full = window([view(c) for c in "ABCDE"], 2)
    assert [full[p].category for p in (-1, 0, 1, 2)] == ["B", "C", "D", "E"]
    with pytest.raises(IndexError):
        window(vs, 2)
    with pytest.raises(IndexError):
        window(vs, -1)


def test_window_unaffected_by_distant_change():
    vs = [view(c) for c in "ABCDEFGH"]
    changed = list(vs)
    j = 6
    changed[j] = view("Z")
    for i in range(len(vs)):
        if abs(i - j) > 2:
            assert window(vs, i) == window(changed, i)


def test_template_count_supervised_only():
    cfg = FeatureConfig(dim=2 ** 16)
    fv = extract_one(views_for("ABCD"), "BUILD:S:left", cfg)
    assert len(fv) == 32
    assert all(0 <= i < cfg.dim for i in fv)


def test_template_count_with_clusters():
    cfg = FeatureConfig(dim=2 ** 16, cluster_kinds=(FULL, SIX_BIT))
    fv = extract_one(views_for("ABCD"), "A", cfg)
    assert len(fv) == 32 + 50


def test_template_count_with_bigram_model():
    model = BigramAssocModel(RAW, {"w0": {"w1": 5.0}}, {"w0": quantile_cuts([5.0])})
    cfg = FeatureConfig(dim=2 ** 16)
    fv = extract_one(views_for("ABCD"), "A", cfg, model)
    assert len(fv) == 32 + 12


@pytest.mark.parametrize("name, value", [
    ("pair_minus1_0", False), ("literal_duplicate_ww", True), ("lemma_templates", True)])
def test_template_toggles_refuse_non_default_values(name, value):
    default = getattr(FeatureConfig(dim=16), name)
    assert FeatureConfig(dim=16, **{name: default}) == FeatureConfig(dim=16)
    with pytest.raises(ValueError, match=name):
        FeatureConfig(dim=16, **{name: value})


def test_extraction_is_pure_and_deterministic():
    cfg = FeatureConfig(dim=2 ** 16, cluster_kinds=(FULL,))
    w = views_for("ABCD")
    inventory = ["BUILD:S:left", "ATTACH:left", "SWAP"]
    ex = FeatureExtractor(cfg, inventory)
    one = ex.extract_many(w, ["ATTACH:left"])[0]
    two = FeatureExtractor(cfg, inventory).extract_many(w, ["ATTACH:left"])[0]
    three = FeatureExtractor(cfg, ["ATTACH:left"]).extract_many(dict(w), ["ATTACH:left"])[0]
    again = ex.extract_many(w, ["ATTACH:left"])[0]
    assert np.array_equal(one, two) and np.array_equal(one, three)
    assert np.array_equal(one, again)


def test_extract_many_matches_single():
    cfg = FeatureConfig(dim=2 ** 16)
    w = views_for("ABCD")
    actions = ["BUILD:S:left", "BUILD:S:right", "SWAP"]
    ex = FeatureExtractor(cfg, ["UNARY:S", *reversed(actions)])
    rows = ex.extract_many(w, actions)
    tpls = template_parts(w, cfg)
    assert rows.shape == (len(actions), len(tpls))
    for action, row in zip(actions, rows):
        assert row.tolist() == [hash_index(parts, action, cfg.dim) for parts in tpls]


# forms drawn from a small vocabulary often hit the bigram model below;
# arbitrary text (any code point but lone surrogates) mostly misses it
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_FIELD = st.one_of(st.sampled_from(["a", "b", "c", "\x1f", "ä"]), _TEXT)
_VIEW = st.builds(NodeView, _FIELD, _FIELD, _FIELD, _FIELD)
_WINDOW = st.fixed_dictionaries({p: _VIEW for p in (-1, 0, 1, 2)})
_BIGRAMS = BigramAssocModel(RAW, {"a": {"b": 5.0, "c": 1.0}, "b": {"a": 2.0}},
                            {"a": quantile_cuts([5.0, 1.0]), "b": quantile_cuts([2.0])})
_CONFIGS = {"default": (FeatureConfig(dim=2 ** 16), None),
            "clusters": (FeatureConfig(dim=2 ** 16, cluster_kinds=(FULL, SIX_BIT)), None),
            "bigrams": (FeatureConfig(dim=2 ** 16), _BIGRAMS)}


@st.composite
def _inventory_and_requests(draw):
    """An action inventory and a few subsets of it, each in any order."""
    inventory = draw(st.lists(_TEXT, min_size=1, max_size=8, unique=True))
    requests = draw(st.lists(st.permutations(inventory).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda k: perm[:k])),
        min_size=1, max_size=4))
    return inventory, requests


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(windows=st.lists(_WINDOW, min_size=1, max_size=3), job=_inventory_and_requests())
def test_extract_many_equals_hash_index_cold_warm_and_cleared(name, windows, job):
    config, model = _CONFIGS[name]
    inventory, requests = job
    # a window has at least 32 distinct template instances, so a cap of
    # three entries empties the cache many times within every call
    small = FeatureExtractor(config, inventory, model)
    small._cap = 3
    for ex in (FeatureExtractor(config, inventory, model), small):
        for _ in range(2):          # a cold pass, then a warm one
            for w in windows:
                tpls = template_parts(w, config, model)
                for actions in requests:
                    got = ex.extract_many(w, actions)
                    assert got.shape == (len(actions), len(tpls))
                    assert got.tolist() == [[hash_index(p, a, config.dim) for p in tpls]
                                            for a in actions]
        assert len(ex._cache) <= ex._cap


# ids of different byte lengths, with shared prefixes and multi-byte UTF-8
_RAGGED = ["A", "AB", "Ä", "ATTACH:left", "ÄÖ", ""]


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_extract_many_over_ragged_action_ids(name):
    config, model = _CONFIGS[name]
    ex = FeatureExtractor(config, _RAGGED, model)
    for w in (views_for("ABCD"), views_for("ÄBÖ\x1f"), views_for("ABCD")):
        tpls = template_parts(w, config, model)
        for actions in (_RAGGED, _RAGGED[::-1], ["Ä", "A"]):
            assert ex.extract_many(w, actions).tolist() == [
                [hash_index(p, a, config.dim) for p in tpls] for a in actions]


def test_cache_cleared_inside_one_windows_batch():
    config, model = _CONFIGS["bigrams"]
    ex = FeatureExtractor(config, _RAGGED, model)
    ex._cap = 5
    w = views_for("ABCD")
    tpls = template_parts(w, config, model)
    assert len(tpls) > 2 * ex._cap      # one cold window clears the cache twice
    assert ex.extract_many(w, _RAGGED).tolist() == [
        [hash_index(p, a, config.dim) for p in tpls] for a in _RAGGED]
    assert 0 < len(ex._cache) <= ex._cap
    for parts, vec in ex._cache.items():
        assert vec.tolist() == [hash_index(parts, a, config.dim) for a in _RAGGED]


def test_a_cold_window_hashes_each_template_instance_once(monkeypatch):
    config, model = _CONFIGS["clusters"]
    ex = FeatureExtractor(config, _RAGGED, model)
    hashed = []
    fnv1a = features._fnv1a
    monkeypatch.setattr(features, "_fnv1a", lambda data, *h: hashed.append(data) or fnv1a(data, *h))
    w = views_for("ABCD")
    ex.extract_many(w, _RAGGED)
    assert len(hashed) == len(template_parts(w, config, model))
    hashed.clear()
    ex.extract_many(w, ["A"])
    assert hashed == []


def test_cache_cap_follows_the_byte_budget(monkeypatch):
    cfg = FeatureConfig(dim=2 ** 16)
    few = FeatureExtractor(cfg, ["A", "B"])
    many = FeatureExtractor(cfg, [f"A{k}" for k in range(200)])
    assert few._cap > many._cap > 1000
    monkeypatch.setattr(features, "_CACHE_BYTES", 0)
    assert FeatureExtractor(cfg, ["A"])._cap == 1


def test_fnv1a_reference_vectors():
    # standard FNV-1a 64 test vectors
    assert _fnv1a(b"") == 0xCBF29CE484222325
    assert _fnv1a(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a(b"foobar") == 0x85944171F73967E8


def reference_fnv1a_64(data):
    """FNV-1a 64 as published: offset basis, then xor and multiply per byte."""
    h = 14695981039346656037
    for byte in data:
        h = (h ^ byte) * 1099511628211 % 2 ** 64
    return h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts=st.lists(_FIELD, min_size=1, max_size=5), action=_FIELD, bits=st.integers(1, 64))
def test_hash_index_equals_an_independent_fnv1a(parts, action, bits):
    data = "\x1f".join((*parts, action)).encode()
    assert hash_index(tuple(parts), action, 2 ** bits) == reference_fnv1a_64(data) % 2 ** bits


def test_hash_index_stability_and_range():
    i1 = hash_index(("t", "x"), "A", 2 ** 20)
    i2 = hash_index(("t", "x"), "A", 2 ** 20)
    assert i1 == i2 and 0 <= i1 < 2 ** 20
    # separator placement distinguishes part boundaries
    assert hash_index(("t", "xy"), "A", 2 ** 20) != hash_index(("tx", "y"), "A", 2 ** 20)


def test_hash_uniformity():
    dim = 2 ** 20
    loads = np.zeros(dim, dtype=np.int32)
    for i in range(1_000_000):
        loads[hash_index(("t", f"w{i}"), "A", dim)] += 1
    mean = 1_000_000 / dim
    assert loads.max() < 10 * mean


def test_action_id_perturbs_index():
    dim = 2 ** 20
    rng = random.Random(3)
    same = 0
    for i in range(100_000):
        parts = ("t", f"w{rng.randrange(10 ** 9)}")
        if hash_index(parts, "A", dim) == hash_index(parts, "B", dim):
            same += 1
    assert same < 10


def test_bigram_family_queries_both_directions():
    model = BigramAssocModel(RAW, {"w0": {"w1": 5.0}}, {"w0": quantile_cuts([5.0])})
    cfg = FeatureConfig(dim=2 ** 16)
    tpls = template_parts(views_for("ABCD"), cfg, model)
    buckets = [t for t in tpls if t[0].startswith("bB") and len(t) == 2]
    assert ("bBf0:1", "HI") in buckets
    assert ("bBb0:1", "NO") in buckets


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        FeatureConfig(dim=1000)
    with pytest.raises(ValueError, match="cluster kinds"):
        FeatureConfig(dim=16, cluster_kinds=("8bit",))
    for dim in ("big", True, 2.0 ** 16):
        with pytest.raises(ValueError, match="dim"):
            FeatureConfig(dim=dim)
    with pytest.raises(ValueError, match="cluster_kinds"):
        FeatureConfig(dim=16, cluster_kinds=("full", 6))
    with pytest.raises(ValueError, match="cluster_kinds"):
        FeatureConfig(dim=16, cluster_kinds="full")
    with pytest.raises(ValueError, match="lemma_templates"):
        FeatureConfig(dim=16, lemma_templates="false")


def test_config_digest_distinguishes_configs():
    a = config_digest(FeatureConfig(dim=2 ** 16))
    b = config_digest(FeatureConfig(dim=2 ** 17))
    assert a != b
    assert a == config_digest(FeatureConfig(dim=2 ** 16))
    # the digests that existing model files and parse headers carry
    assert a == "1a95bd26b465"
    assert config_digest(FeatureConfig(dim=2 ** 16, cluster_kinds=(FULL, SIX_BIT))) == "5b1ae80980df"
