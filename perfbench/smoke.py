"""Corrupted outputs for the smoke mode: each must fail its check."""

import copy
import json

import numpy as np
from discoparse.treebank import ConstTree, Node

import checks
import tracing
import workloads


def _drop_first_root_child(tree):
    root = tree.nodes[tree.root_id]
    nodes = dict(tree.nodes)
    nodes[tree.root_id] = Node(root.id, root.label, root.children[1:], root.leaves)
    return ConstTree(tree.tokens, nodes, tree.root_id, sent_id=tree.sent_id)


def _zero_weights(parser):
    store = copy.copy(parser.store)
    store.weights = np.zeros_like(store.weights)
    bad = copy.copy(parser)
    bad.store = store
    return bad


def corruptions(out):
    """(label, caught) for each corruption of one finished run."""
    last, wl = out.last, out.workload
    preds = [_drop_first_root_child(last.preds[0])] + last.preds[1:]
    yield "tree", bool(checks.check_trees(last.golds, preds))
    yield "reported F1", bool(checks.check_f1(last.f1 + 0.5, last.golds, last.preds,
                                             wl.size["f1_floor"]))
    if last.trained is not None:
        sample = out.state["held"][:10]
        yield "reloaded model", bool(workloads.round_trip(
            last.trained, _zero_weights(last.loaded), sample))
    else:
        path = out.ctx.dir / "trained.json"
        trained = json.loads(path.read_text())
        trained["sample_parses"][0] = ["VROOT", []]
        path.write_text(json.dumps(trained))
        yield "reloaded model", any("differently" in e
                                    for e in wl.check(out.ctx, out.state, last))
    if "lexicon" in out.state:
        yield "cluster coverage", bool(checks.check_coverage(
            out.state["lexicon"], out.state["held"], out.ctx.facts["covered_tokens"] + 1))
    targets = {"engine.parse": ["discoparse.engine:EasyFirstParser.no_such_method"],
               "gone": ["discoparse.no_such_module:f"]}
    tracer = tracing.Tracer(span_targets=targets, count_targets={})
    with tracer:
        pass
    yield "traced function removed", sorted(tracer.absent) == sorted(
        p for paths in targets.values() for p in paths)
