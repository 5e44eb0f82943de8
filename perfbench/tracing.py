"""Per-layer tracing from outside the program.

``Tracer`` replaces public functions and methods of ``discoparse`` with
wrappers while it is installed, and restores them afterwards.  Span
targets record (name, start, end, parent) in memory; count targets only
update counters, because they run millions of times per round.  A target
that no longer resolves (renamed or deleted by a refactor) is listed in
``absent`` and skipped, so the traced run goes on.
"""

import importlib
import inspect
import sys
import time

from discoparse.clusters import UNK

# span targets: layer name -> dotted "module:attribute" paths
SPAN_TARGETS = {
    "engine.parse": ["discoparse.engine:EasyFirstParser.parse_tokens"],
    "engine.train": ["discoparse.engine:EasyFirstParser.train"],
    "engine.apply": ["discoparse.engine:apply_action"],
    "engine.applicable": ["discoparse.engine:ActionInventory.applicable"],
    "engine.oracle": ["discoparse.engine:GoldOracle.gold_moves"],
    "features.extract": ["discoparse.features:FeatureExtractor.extract_many"],
    "learner.score": ["discoparse.learner:WeightStore.score_rows"],
    "learner.update": ["discoparse.learner:WeightStore.update"],
    "learner.load": ["discoparse.learner:WeightStore.load"],
    "learner.save": ["discoparse.learner:WeightStore.save"],
    "bigrams.build": ["discoparse.bigrams:count_pairs",
                      "discoparse.bigrams:score_counts"],
    "clusters.load": ["discoparse.clusters:load_clusters"],
    "headrules.induce": ["discoparse.headrules:induce_head_table"],
    "treebank.read": ["discoparse.treebank:read_export",
                      "discoparse.treebank:read_discbracket",
                      "discoparse.treebank:read_conll"],
    "treebank.write": ["discoparse.treebank:write_export",
                       "discoparse.treebank:write_discbracket",
                       "discoparse.treebank:write_conll"],
    "evaluate": ["discoparse.evaluate:evaluate"],
}

COUNT_TARGETS = {
    "features.hash": ["discoparse.features:hash_index"],
    "bigrams.query": ["discoparse.bigrams:BigramAssocModel.query"],
    "clusters.lookup": ["discoparse.clusters:ClusterLexicon.lookup"],
}

# root label of a parse whose items never joined; part of the output format
FALLBACK_ROOT = "VROOT"


def _resolve(path):
    """(owner, attribute name, static value) or None when absent."""
    mod_name, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, name = qual.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        value = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, value


def _aliases(func):
    """(module, name) pairs in the loaded discoparse modules that refer to
    ``func``, so that ``from .x import f`` copies are wrapped too."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "discoparse" or mod_name.startswith("discoparse.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is func:
                out.append((mod, name))
    return out


class Tracer:
    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.names = []
        self._name_ids = {}
        self.spans = []        # (name id, start, end, parent span index)
        self._stack = []
        self.counters = {}
        self.absent = []
        self._patches = []     # (owner, name, original static value)

    # ---------------------------------------------------------- spans

    def name_id(self, name):
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def span(self, name):
        return _Span(self, self.name_id(name))

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _make_span_wrapper(self, func, name):
        nid = self.name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = _AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _make_count_wrapper(self, func, name):
        counters = self.counters
        after = _AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            counters[name] = counters.get(name, 0) + 1
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # ------------------------------------------------------- patching

    def install(self):
        self.absent = []
        for targets, make in ((self.span_targets, self._make_span_wrapper),
                              (self.count_targets, self._make_count_wrapper)):
            for name, paths in targets.items():
                for path in paths:
                    self._patch(path, name, make)
        return self

    def _patch(self, path, name, make):
        got = _resolve(path)
        if got is None:
            self.absent.append(path)
            return
        owner, attr, static = got
        if isinstance(static, (classmethod, staticmethod)):
            wrapped = type(static)(make(static.__func__, name))
            self._patches.append((owner, attr, static))
            setattr(owner, attr, wrapped)
        elif inspect.isclass(owner):
            self._patches.append((owner, attr, static))
            setattr(owner, attr, make(static, name))
        else:
            wrapped = make(static, name)
            for mod, alias in _aliases(static):
                self._patches.append((mod, alias, static))
                setattr(mod, alias, wrapped)

    def uninstall(self):
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -------------------------------------------------------- reports

    def self_times(self, first=0, last=None):
        """Per-name self time over spans[first:last]: each span's duration
        minus the durations of its direct children."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out = {}
        for k, (nid, t0, t1, _) in enumerate(spans):
            name = self.names[nid]
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[k]
        return out


class _Span:
    __slots__ = ("tracer", "nid", "idx", "parent", "t0")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.idx] = (self.nid, self.t0, t1, self.parent)


# counts taken from arguments and results at the layer boundary

def _after_extract(tr, args, result):
    tr.count("features.rows", len(result))
    tr.count("features.lookups", sum(len(row) for row in result))


def _after_applicable(tr, args, result):
    tr.count("engine.rows_needed", len(result))


def _after_apply(tr, args, result):
    state, _i, action = args[0], args[1], args[2]
    tr.count("engine.steps")
    tr.count("engine.positions", len(state))
    if action.kind == "SWAP":
        tr.count("engine.swaps")


def _after_parse(tr, args, result):
    if result.root.label == FALLBACK_ROOT:
        tr.count("engine.vroot_fallbacks")


def _after_oracle(tr, args, result):
    tr.count("engine.oracle_calls")


def _after_score(tr, args, result):
    tr.count("learner.rows_scored", len(result))


def _after_update(tr, args, result):
    tr.count("learner.updates")


def _after_lookup(tr, args, result):
    if result != UNK:
        tr.count("clusters.hits")


_AFTER = {
    "features.extract": _after_extract,
    "engine.applicable": _after_applicable,
    "engine.apply": _after_apply,
    "engine.parse": _after_parse,
    "engine.oracle": _after_oracle,
    "learner.score": _after_score,
    "learner.update": _after_update,
    "clusters.lookup": _after_lookup,
}


def layer_metrics(self_s, counters):
    """Per-layer metrics of one traced unit from its self times and counts."""
    c = counters.get

    def t(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "features.extract_s": t("features.extract"),
        "features.rows": c("features.rows", 0),
        "features.hash_calls": c("features.hash", 0),
        "features.memo_hit_ratio": ratio(c("features.lookups", 0) - c("features.hash", 0),
                                         c("features.lookups", 0)),
        "engine.rows_needed": c("engine.rows_needed", 0),
        "engine.row_cache_hit_ratio": ratio(c("engine.rows_needed", 0) - c("features.rows", 0),
                                            c("engine.rows_needed", 0)),
        "engine.decode_self_s": t("engine.parse") + t("engine.train"),
        "engine.steps": c("engine.steps", 0),
        "engine.swaps": c("engine.swaps", 0),
        "engine.entries_per_step": ratio(c("engine.positions", 0), c("engine.steps", 0)),
        "engine.apply_s": t("engine.apply"),
        "engine.applicable_s": t("engine.applicable"),
        "engine.vroot_fallbacks": c("engine.vroot_fallbacks", 0),
        "engine.oracle_s": t("engine.oracle"),
        "engine.oracle_calls": c("engine.oracle_calls", 0),
        "learner.score_s": t("learner.score"),
        "learner.rows_scored": c("learner.rows_scored", 0),
        "learner.update_s": t("learner.update"),
        "learner.updates": c("learner.updates", 0),
        "learner.load_s": t("learner.load"),
        "learner.save_s": t("learner.save"),
        "bigrams.build_s": t("bigrams.build"),
        "bigrams.queries": c("bigrams.query", 0),
        "clusters.load_s": t("clusters.load"),
        "clusters.coverage": ratio(c("clusters.hits", 0), c("clusters.lookup", 0)),
        "headrules.induce_s": t("headrules.induce"),
        "treebank.read_s": t("treebank.read"),
        "treebank.write_s": t("treebank.write"),
        "evaluate.s": t("evaluate"),
    }
