"""Command line front end.

Subcommands: induce-heads, train, parse, eval, bigram-build,
cluster-check.  Exit codes: 0 success, 1 validation error, 2 I/O error.
Option precedence is flag > config file > built-in default; the log
level comes from the DISCOPARSE_LOG environment variable only.
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path

from .bigrams import SCORERS, BigramAssocModel, count_pairs, score_counts
from .clusters import load_clusters
from .engine import EasyFirstParser, label_inventory
from .evaluate import EvalConfig, evaluate
from .features import FeatureConfig, config_digest
from .headrules import (
    HeadTable,
    TagClassification,
    classify_tags_heuristic,
    classify_tags_universal,
    collect_tag_stats,
    induce_head_table,
    load_upos_map,
)
from .learner import WeightStore
from .treebank import (
    AlignmentError,
    FormatError,
    align,
    data_lines,
    read_conll,
    read_discbracket,
    read_export,
    write_discbracket,
    write_export,
)

logger = logging.getLogger("discoparse")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

def _setup_logging():
    name = os.environ.get("DISCOPARSE_LOG", "INFO").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def read_config_file(path) -> dict:
    """key=value lines; blank lines and comments are skipped."""
    out = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ValueError(f"config file line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# defaults per option key; None means "no default, stays None"
_OPTION_DEFAULTS = {
    "seed": 42,
    "epochs": 15,
    "dim": 2 ** 24,
    "l1": "0.001/N",
    "eta": 0.1,
    "delta": 1.0,
    "format": None,
    "dev": None,
    "clusters": None,
    "bigrams": None,
    "tags": None,
    "cluster_kinds": "full,6bit",
    "maxlen": None,
    "min_count": 2,
    "score": "ll",
    "labels": "NP,PP,VP",
    "continue_after_error": False,
}

_TREE_FORMATS = ("export", "discbracket")


def _tree_format_name(value):
    if value not in _TREE_FORMATS:
        raise ValueError(f"format {value!r} is not one of {', '.join(_TREE_FORMATS)}")
    return value


_CONVERTERS = {
    "format": _tree_format_name,
    "seed": int, "epochs": int, "dim": int, "maxlen": int, "min_count": int,
    "eta": float, "delta": float,
    "continue_after_error": lambda v: str(v).lower() in ("1", "true", "yes"),
}


def merge_options(args, keys) -> dict:
    """Effective options for one run: flag > config file > default."""
    file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(_OPTION_DEFAULTS))
    if unknown:
        raise ValueError(f"{args.config}: unknown option keys {unknown}")
    out = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            conv = _CONVERTERS.get(key, str)
            out[key] = conv(file_cfg[key])
        else:
            out[key] = _OPTION_DEFAULTS[key]
    logger.info("effective options: %s",
                " ".join(f"{k}={out[k]}" for k in sorted(out)))
    return out


def run_digest(subcommand, options) -> str:
    blob = json.dumps({"cmd": subcommand, **{k: str(v) for k, v in options.items()}},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------- I/O

def _tree_format(path, fmt):
    if fmt:
        return fmt
    return "discbracket" if str(path).endswith((".discbracket", ".dbr")) else "export"


def read_trees(path, fmt=None, strict=False):
    kind = _tree_format(path, fmt)
    reader = read_discbracket if kind == "discbracket" else read_export
    return reader(path, strict=strict)


def write_trees(trees, path, fmt=None, header=None):
    kind = _tree_format(path, fmt)
    writer = write_discbracket if kind == "discbracket" else write_export
    writer(trees, path, header=header)


# ------------------------------------------------------------ subcommands

def cmd_induce_heads(args) -> int:
    opts = merge_options(args, ["format"])
    digest = run_digest("induce-heads", opts)
    trees = read_trees(args.treebank, opts["format"])
    deps = read_conll(args.conll)
    corpus = align(trees, deps)
    stats = {}
    table = induce_head_table(corpus, stats_out=stats)
    total = sum(n for n, _ in stats.values())
    conflicted = sum(c for _, c in stats.values())
    logger.info("induced %d rules over %d phrase instances, %d with "
                "competing candidates", len(table.rules), total, conflicted)
    for parent in sorted(stats):
        n, c = stats[parent]
        logger.info("  %-8s %6d instances, %6d conflicting", parent, n, c)
    if args.upos_map:
        counts = Counter(t.pos for tree in trees for t in tree.tokens)
        tagclass = classify_tags_universal(counts, load_upos_map(args.upos_map))
    else:
        tagclass = classify_tags_heuristic(
            collect_tag_stats(tree.tokens for tree in trees))
    table.save(args.out_table, header=f"config {digest}")
    tagclass.save(args.out_tags, header=f"config {digest}")
    print(f"head table: {len(table.rules)} parents -> {args.out_table}")
    print(f"tag classes: {len(tagclass.classes)} tags -> {args.out_tags}")
    return EXIT_OK


def _lambda_for(store, preset, n_sentences):
    preset = preset.strip()
    if preset.endswith("/N"):
        return store.set_lambda_from_corpus(n_sentences, float(preset[:-2]))
    if preset.endswith("/D"):
        return store.set_lambda_from_dim(float(preset[:-2]))
    store.lam = float(preset)
    return store.lam


def _resource_paths(args, opts):
    return {"head_table": args.head_table, "tags": opts["tags"],
            "clusters": opts["clusters"], "bigrams": opts["bigrams"]}


def _build_parser(store, feat, labels, blobs):
    """The parser over ``store`` with its resources read from ``blobs``,
    resource name -> file bytes as a model file bundles them."""
    def load(name, loader):
        if name in blobs:
            return loader(blobs[name])
    return EasyFirstParser(store, feat, load("head_table", HeadTable.load), labels,
                           tagclass=load("tags", TagClassification.load),
                           lexicon=load("clusters", load_clusters),
                           bigram_model=load("bigrams", BigramAssocModel.load))


def load_parser(path):
    """Rebuild the parser a model file was trained as, from that file alone."""
    store = WeightStore.load(path)
    meta = store.extra
    labels, fc = meta.get("labels"), meta.get("feature_config")
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"{path}: model file carries no list of label strings")
    if "head_table" not in store.blobs:
        raise ValueError(f"{path}: model file carries no head table")
    if not isinstance(fc, dict):
        raise ValueError(f"{path}: model file carries no feature_config object")
    unknown = sorted(set(fc) - {f.name for f in dataclasses.fields(FeatureConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown feature_config keys {unknown}")
    if isinstance(fc.get("cluster_kinds"), list):  # JSON has no tuples
        fc = {**fc, "cluster_kinds": tuple(fc["cluster_kinds"])}
    feat = FeatureConfig(**fc)
    if feat.dim != store.dim:
        raise ValueError(f"{path}: feature_config dim {feat.dim} is not {store.dim}")
    return _build_parser(store, feat, labels, store.blobs)


def _check_resources(bundled, paths):
    """A resource file given at parse time must have the data lines of the
    one in the model, so a model never parses with other resources.  Blank
    and comment lines (the "# config" header records how a file was made)
    are not compared, as the loaders do not read them."""
    def lines(source):
        yield from (line for _, line in data_lines(source))
        yield None  # so that files of different lengths differ
    for name, path in paths.items():
        if not path:
            continue
        flag = "--" + name.replace("_", "-")
        if name not in bundled:
            raise ValueError(f"{flag} {path}: the model was trained without one")
        if any(a != b for a, b in zip(lines(path), lines(bundled[name]))):
            raise ValueError(f"{flag} {path} differs from the file trained with")


def cmd_train(args) -> int:
    opts = merge_options(args, ["seed", "epochs", "dim", "l1", "eta", "delta",
                                "format", "dev", "clusters", "bigrams", "tags",
                                "cluster_kinds", "continue_after_error"])
    digest = run_digest("train", opts)
    trees = read_trees(args.treebank, opts["format"])
    if not trees:
        raise ValueError("training treebank is empty")
    blobs = {name: Path(path).read_bytes()
             for name, path in _resource_paths(args, opts).items() if path}
    store = WeightStore(opts["dim"], eta=opts["eta"], delta=opts["delta"])
    lam = _lambda_for(store, opts["l1"], len(trees))
    logger.info("l1 strength %s -> lambda %.3g", opts["l1"], lam)
    labels = label_inventory(trees)
    kinds = opts["cluster_kinds"].split(",") if "clusters" in blobs else ()
    feat = FeatureConfig(dim=opts["dim"],
                         cluster_kinds=tuple(k.strip() for k in kinds if k.strip()))
    parser = _build_parser(store, feat, labels, blobs)

    if opts["dev"]:
        dev = read_trees(opts["dev"], opts["format"])
    else:
        dev = trees[:max(1, min(50, len(trees) // 10))]

    def hook(epoch, stats):
        preds = [parser.parse_tokens(t.tokens, sent_id=t.sent_id) for t in dev]
        rep = evaluate(dev, preds)
        logger.info("epoch %2d  updates %5d  clean %5d  dev-F1 %6.2f",
                    epoch, stats["updates"], stats["clean"], rep.f1)

    parser.train(trees, epochs=opts["epochs"], seed=opts["seed"],
                 epoch_hook=hook,
                 continue_after_error=opts["continue_after_error"])
    extra = {
        "labels": list(labels),
        "feature_config": dataclasses.asdict(feat),
        "sentences": len(trees),
    }
    store.save(args.model, config_digest=f"{config_digest(feat)}:{digest}",
               extra=extra, blobs=blobs)
    print(f"model: {store.nonzero_count()} nonzero weights -> {args.model}")
    return EXIT_OK


def cmd_parse(args) -> int:
    opts = merge_options(args, ["format", "clusters", "bigrams", "tags"])
    digest = run_digest("parse", opts)
    parser = load_parser(args.model)
    _check_resources(parser.store.blobs, _resource_paths(args, opts))
    trees = read_trees(args.input, opts["format"], strict=args.strict)
    preds = [parser.parse_tokens(t.tokens, sent_id=t.sent_id) for t in trees]
    write_trees(preds, args.output, opts["format"],
                header=f"config {parser.store.config_digest}:{digest}")
    print(f"parsed {len(preds)} sentences -> {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    opts = merge_options(args, ["format", "maxlen", "tags", "labels"])
    digest = run_digest("eval", opts)
    golds = read_trees(args.gold, opts["format"])
    preds = read_trees(args.pred, opts["format"])
    tagclass = TagClassification.load(opts["tags"]) if opts["tags"] else None
    if args.drop_punct and tagclass is None:
        raise ValueError("--drop-punct needs --tags CLASSFILE")
    cfg = EvalConfig(
        max_len=opts["maxlen"],
        drop_punct=bool(args.drop_punct),
        tagclass=tagclass,
        exclude_root=not args.keep_root,
        labels=tuple(x.strip() for x in opts["labels"].split(",") if x.strip()),
    )
    table = HeadTable.load(args.head_table) if args.head_table else None
    report = evaluate(golds, preds, cfg, table=table)
    if report.sentences == 0:
        raise ValueError("no sentence was scored")
    text = report.format_kv() if args.kv else report.format_text()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(f"# config {digest}\n")
            f.write(report.format_kv() + "\n")
    return EXIT_OK


def cmd_bigram_build(args) -> int:
    opts = merge_options(args, ["score", "min_count"])
    digest = run_digest("bigram-build", opts)
    if opts["score"] not in SCORERS:
        raise ValueError(f"unknown scorer {opts['score']!r}; pick one of {SCORERS}")
    deps = read_conll(args.conll)
    counts = count_pairs(deps)
    model = score_counts(counts, opts["score"], min_count=opts["min_count"])
    model.save(args.output, header=f"config {digest}")
    n_pairs = sum(len(d) for d in model.scores.values())
    print(f"bigram model: {len(model.scores)} heads, {n_pairs} pairs "
          f"({opts['score']}) -> {args.output}")
    return EXIT_OK


def cmd_cluster_check(args) -> int:
    lex = load_clusters(args.paths_file, strict=args.strict)
    print(f"cluster file ok: {len(lex)} entries")
    return EXIT_OK


# ----------------------------------------------------------------- main

class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; bad flags are validation errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="discoparse")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", help="key=value options file")
        p.add_argument("--format", choices=_TREE_FORMATS)

    p = sub.add_parser("induce-heads", help="induce a head table and tag classes")
    common(p)
    p.add_argument("treebank")
    p.add_argument("conll")
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-tags", required=True)
    p.add_argument("--upos-map", help="tag -> universal POS mapping file")
    p.set_defaults(func=cmd_induce_heads)

    p = sub.add_parser("train", help="train a parsing model")
    common(p)
    p.add_argument("treebank")
    p.add_argument("--head-table", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--l1", help="0.001/N (default), 0.1/N, 0.05/D, or a float")
    p.add_argument("--eta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--dev", help="held-out file for the per-epoch F1 log")
    p.add_argument("--tags", help="tag classification file")
    p.add_argument("--clusters", help="cluster paths file")
    p.add_argument("--bigrams", help="bigram association model file")
    p.add_argument("--cluster-kinds")
    p.add_argument("--continue-after-error", action="store_true", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse with a trained model")
    common(p)
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--head-table", help="check: the head table trained with")
    p.add_argument("--tags", help="check: the tag classification trained with")
    p.add_argument("--clusters", help="check: the cluster paths file trained with")
    p.add_argument("--bigrams", help="check: the bigram model trained with")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predicted trees against gold")
    common(p)
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--maxlen", type=int)
    p.add_argument("--drop-punct", action="store_true")
    p.add_argument("--keep-root", action="store_true")
    p.add_argument("--tags")
    p.add_argument("--labels", help="comma list for per-label F1")
    p.add_argument("--head-table", help="enables UAS")
    p.add_argument("--kv", action="store_true", help="key=value output")
    p.add_argument("--output", help="also write a key=value report file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bigram-build", help="build a bigram association model")
    p.add_argument("--config", help="key=value options file")
    p.add_argument("conll")
    p.add_argument("output")
    p.add_argument("--score", choices=tuple(SCORERS))
    p.add_argument("--min-count", type=int)
    p.set_defaults(func=cmd_bigram_build)

    p = sub.add_parser("cluster-check", help="validate a cluster paths file")
    p.add_argument("paths_file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_cluster_check)
    return top


def main(argv=None) -> int:
    _setup_logging()
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (FormatError, AlignmentError, ValueError, KeyError) as e:
        logger.error("%s", e)
        return EXIT_VALIDATION
    except OSError as e:
        logger.error("%s", e)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
