import argparse
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discoparse import cli
from discoparse.bigrams import BigramAssocModel
from discoparse.headrules import PUNCT, TagClassification
from discoparse.learner import WeightStore
from discoparse.synthdata import toy_corpus
from discoparse.treebank import read_export, write_conll, write_discbracket, write_export


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    """A small aligned toy corpus on disk plus induced table and tags."""
    root = tmp_path_factory.mktemp("toy")
    corpus = toy_corpus(30, random.Random(17))
    trees = [t for t, _ in corpus]
    deps = [d for _, d in corpus]
    const = root / "toy.export"
    conll = root / "toy.conll"
    write_export(trees, const)
    write_conll(deps, conll)
    table = root / "heads.txt"
    tags = root / "tags.txt"
    rc = cli.main(["induce-heads", str(const), str(conll),
                   "--out-table", str(table), "--out-tags", str(tags)])
    assert rc == 0
    return {"root": root, "const": const, "conll": conll,
            "table": table, "tags": tags, "trees": trees}


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nepochs = 30\nl1=0.1/N\nmin-count=5\n\n")
    cfg = cli.read_config_file(p)
    assert cfg == {"epochs": "30", "l1": "0.1/N", "min_count": "5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 30\n")
    with pytest.raises(ValueError):
        cli.read_config_file(bad)


def test_option_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs=30\nseed=7\n")
    args = argparse.Namespace(config=str(p), epochs=5, seed=None, l1=None)
    opts = cli.merge_options(args, ["epochs", "seed", "l1"])
    assert opts["epochs"] == 5        # flag wins
    assert opts["seed"] == 7          # file beats default
    assert opts["l1"] == "0.001/N"    # built-in default


def test_induce_heads_outputs(toy_files):
    table_text = toy_files["table"].read_text()
    assert table_text.startswith("# config ")
    # the toy grammar's verb-headed clauses appear as rules
    assert any(line.startswith("S ") for line in table_text.splitlines())
    tags_text = toy_files["tags"].read_text()
    assert tags_text.startswith("# config ")


def test_train_parse_eval_roundtrip(toy_files, tmp_path, capsys):
    model = tmp_path / "toy.model.npz"
    rc = cli.main(["train", str(toy_files["const"]),
                   "--head-table", str(toy_files["table"]),
                   "--tags", str(toy_files["tags"]),
                   "--model", str(model),
                   "--epochs", "8", "--dim", str(2 ** 18)])
    assert rc == 0
    assert model.exists()

    out = tmp_path / "pred.export"
    rc = cli.main(["parse", str(model), str(toy_files["const"]), str(out),
                   "--head-table", str(toy_files["table"]),
                   "--tags", str(toy_files["tags"])])
    assert rc == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("%% config ")
    preds = read_export(out)
    assert len(preds) == 30
    capsys.readouterr()

    rc = cli.main(["eval", str(toy_files["const"]), str(out), "--kv",
                   "--head-table", str(toy_files["table"])])
    assert rc == 0
    kv = dict(line.split("=", 1)
              for line in capsys.readouterr().out.strip().splitlines())
    # a memorized toy bank parses back nearly perfectly
    assert float(kv["f1"]) >= 99.0
    assert float(kv["uas"]) >= 99.0


def test_eval_report_file_and_maxlen(toy_files, tmp_path, capsys):
    report = tmp_path / "report.kv"
    rc = cli.main(["eval", str(toy_files["const"]), str(toy_files["const"]),
                   "--maxlen", "8", "--output", str(report)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "F1           100.00" in text
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# config ")
    kv = dict(line.split("=", 1) for line in lines[1:])
    assert float(kv["f1"]) == 100.0
    n_short = sum(1 for t in toy_files["trees"] if len(t.tokens) <= 8)
    assert int(kv["sentences"]) == n_short < 30


def test_eval_drop_punct_requires_tags(toy_files):
    rc = cli.main(["eval", str(toy_files["const"]), str(toy_files["const"]),
                   "--drop-punct"])
    assert rc == 1


def test_bigram_build_and_load(toy_files, tmp_path, capsys):
    out = tmp_path / "assoc.txt"
    rc = cli.main(["bigram-build", str(toy_files["conll"]), str(out),
                   "--score", "ll", "--min-count", "2"])
    assert rc == 0
    assert "bigram model:" in capsys.readouterr().out
    assert out.read_text().startswith("# config ")
    model = BigramAssocModel.load(out)
    assert model.scorer == "ll"
    assert model.scores


def test_cluster_check(tmp_path, capsys):
    good = tmp_path / "paths.txt"
    good.write_text("0101\thund\t12\n0110\tkatze\n")
    assert cli.main(["cluster-check", str(good)]) == 0
    assert "2 entries" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("01x1\thund\n")
    assert cli.main(["cluster-check", str(bad)]) == 0  # skipped, logged
    assert cli.main(["cluster-check", str(bad), "--strict"]) == 1
    commented = tmp_path / "commented.txt"
    commented.write_text("# config abc\n0101\thund\t12\n")
    assert cli.main(["cluster-check", str(commented), "--strict"]) == 0


def test_exit_codes(tmp_path):
    # unknown flag -> validation
    assert cli.main(["eval", "--no-such-flag"]) == 1
    # missing input file -> I/O
    assert cli.main(["cluster-check", str(tmp_path / "absent.txt")]) == 2
    missing = tmp_path / "absent.export"
    assert cli.main(["eval", str(missing), str(missing)]) == 2
    # bad scorer value from a config file -> validation
    cfg = tmp_path / "run.cfg"
    cfg.write_text("score=bogus\n")
    conll = tmp_path / "x.conll"
    conll.write_text("")
    out = tmp_path / "out.txt"
    assert cli.main(["bigram-build", str(conll), str(out),
                     "--config", str(cfg)]) == 1


def test_config_file_unknown_key_exits_1(toy_files, tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epoch=3\n")
    model = tmp_path / "m.npz"
    assert cli.main(["train", str(toy_files["const"]),
                     "--head-table", str(toy_files["table"]),
                     "--model", str(model), "--config", str(cfg)]) == 1
    assert "['epoch']" in caplog.text
    assert not model.exists()
    # keys of other subcommands are allowed: one file serves them all
    cfg.write_text("epochs=3\nscore=ll\nmaxlen=40\n")
    assert cli.main(["eval", str(toy_files["const"]), str(toy_files["const"]),
                     "--config", str(cfg)]) == 0


def test_config_file_drives_training(toy_files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epochs=2\ndim={2 ** 16}\nl1=0.1/N\n")
    model = tmp_path / "m.npz"
    rc = cli.main(["train", str(toy_files["const"]),
                   "--head-table", str(toy_files["table"]),
                   "--model", str(model), "--config", str(cfg)])
    assert rc == 0
    from discoparse.learner import WeightStore
    store = WeightStore.load(model)
    assert store.dim == 2 ** 16
    assert store.lam == pytest.approx(0.1 / 30)
    assert store.extra["labels"] == ["NP", "PP", "S", "VP"]


@pytest.fixture(scope="module")
def trained_models(toy_files):
    """Toy models trained through the CLI, one on the head table alone and
    one with tags, clusters and bigrams, each with the in-memory parser as
    training left it and held-out sentences parsed by that parser."""
    root = toy_files["root"]
    forms = sorted({t.form for tree in toy_files["trees"] for t in tree.tokens})
    clusters = root / "paths.txt"
    clusters.write_text("".join(f"{k % 64 + 64:b}\t{form}\t{k + 1}\n"
                                for k, form in enumerate(forms)))
    bigrams = root / "assoc.txt"
    assert cli.main(["bigram-build", str(toy_files["conll"]), str(bigrams)]) == 0
    held = root / "held.export"
    write_export([t for t, _ in toy_corpus(12, random.Random(99))], held)
    flags = {"plain": ["--head-table", str(toy_files["table"])],
             "rich": ["--head-table", str(toy_files["table"]),
                      "--tags", str(toy_files["tags"]),
                      "--clusters", str(clusters), "--bigrams", str(bigrams)]}
    trained = []

    class Recording(cli.EasyFirstParser):
        def train(self, *args, **kwargs):
            trained.append(self)
            return super().train(*args, **kwargs)

    out = {"held": held, "clusters": clusters, "bigrams": bigrams, "flags": flags}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "EasyFirstParser", Recording)
        for name, extra in flags.items():
            model = root / f"{name}.npz"
            rc = cli.main(["train", str(toy_files["const"]), "--model", str(model),
                           "--epochs", "3", "--dim", str(2 ** 16), *extra])
            assert rc == 0
            parser = trained.pop()
            preds = [parser.parse_tokens(t.tokens, sent_id=t.sent_id)
                     for t in read_export(held)]
            expected = root / f"{name}.expected.export"
            write_export(preds, expected)
            out[name] = {"model": model, "expected": expected, "parser": parser}
    return out


def _trees_text(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("%%")]


@pytest.mark.parametrize("name", ["plain", "rich"])
def test_parse_needs_only_the_model(trained_models, tmp_path, name):
    got = trained_models[name]
    parser = cli.load_parser(got["model"])
    assert parser.extractor.config == got["parser"].extractor.config
    assert (parser.lexicon is None) == (name == "plain")
    out = tmp_path / "pred.export"
    rc = cli.main(["parse", str(got["model"]), str(trained_models["held"]), str(out)])
    assert rc == 0
    assert _trees_text(out) == _trees_text(got["expected"])
    again = tmp_path / "again.export"
    rc = cli.main(["parse", str(got["model"]), str(trained_models["held"]), str(again),
                   *trained_models["flags"][name]])
    assert rc == 0
    assert _trees_text(again) == _trees_text(got["expected"])


def test_parse_rejects_mismatched_resources(trained_models, tmp_path):
    held, out = str(trained_models["held"]), str(tmp_path / "pred.export")
    lines = trained_models["clusters"].read_text().splitlines(keepends=True)
    changed = tmp_path / "changed_paths.txt"
    changed.write_text("".join(lines[:3] + ["0\t" + lines[3].split("\t", 1)[1]] + lines[4:]))
    rich, plain = str(trained_models["rich"]["model"]), str(trained_models["plain"]["model"])
    assert cli.main(["parse", rich, held, out, "--clusters", str(changed)]) == 1
    assert cli.main(["parse", plain, held, out,
                     "--bigrams", str(trained_models["bigrams"])]) == 1
    assert not (tmp_path / "pred.export").exists()


def test_parse_ignores_resource_comment_lines(trained_models, toy_files, tmp_path):
    lines = toy_files["table"].read_text().splitlines(keepends=True)
    assert lines[0].startswith("# config ")
    table = tmp_path / "heads.txt"
    table.write_text("# config made another way\n" + "".join(lines[1:]))
    out = tmp_path / "pred.export"
    rc = cli.main(["parse", str(trained_models["plain"]["model"]),
                   str(trained_models["held"]), str(out), "--head-table", str(table)])
    assert rc == 0
    assert _trees_text(out) == _trees_text(trained_models["plain"]["expected"])


def test_parse_head_table_check_reads_what_the_loader_reads(trained_models, toy_files, tmp_path):
    model, held = str(trained_models["plain"]["model"]), str(trained_models["held"])
    want = tmp_path / "want.export"
    assert cli.main(["parse", model, held, str(want),
                     "--head-table", str(toy_files["table"])]) == 0
    text = toy_files["table"].read_text()
    table, out = tmp_path / "heads.txt", tmp_path / "pred.export"
    table.write_text(text + "\n")
    assert cli.main(["parse", model, held, str(out), "--head-table", str(table)]) == 0
    assert out.read_bytes() == want.read_bytes()
    # a changed rule, a missing last rule and an extra rule
    for changed in (text.replace("left-to-right", "right-to-left", 1),
                    text[:text.rstrip("\n").rindex("\n") + 1], text + "XP left-to-right NN\n"):
        table.write_text(changed)
        assert cli.main(["parse", model, held, str(tmp_path / "no.export"),
                         "--head-table", str(table)]) == 1
    assert not (tmp_path / "no.export").exists()


def test_pound_tag_survives_induce_bigrams_and_train(tmp_path):
    """The Penn tag "#" starts data lines of the tag classes and bigram
    model; both must read back as data, not as comments."""
    def pound(tokens):
        return [dataclasses.replace(t, form="#", pos="#") if t.form == "mit" else t
                for t in tokens]
    corpus = toy_corpus(40, random.Random(1))
    for tree, dep in corpus:
        tree.tokens, dep.tokens = pound(tree.tokens), pound(dep.tokens)
    const, conll = tmp_path / "pound.export", tmp_path / "pound.conll"
    write_export([t for t, _ in corpus], const)
    write_conll([d for _, d in corpus], conll)
    table, tags, bigrams = tmp_path / "heads.txt", tmp_path / "tags.txt", tmp_path / "assoc.txt"
    assert cli.main(["induce-heads", str(const), str(conll),
                     "--out-table", str(table), "--out-tags", str(tags)]) == 0
    assert "#\tpunctuation\n" in tags.read_text()
    assert cli.main(["bigram-build", str(conll), str(bigrams)]) == 0
    model = tmp_path / "pound.npz"
    assert cli.main(["train", str(const), "--head-table", str(table), "--tags", str(tags),
                     "--bigrams", str(bigrams), "--model", str(model),
                     "--epochs", "2", "--dim", str(2 ** 16)]) == 0
    bundled = TagClassification.load(WeightStore.load(model).blobs["tags"])
    assert bundled.of("#") == PUNCT


@pytest.mark.parametrize("flag, value", [
    ("--eta", "nan"), ("--delta", "-5"), ("--epochs", "0"), ("--l1", "-1")])
def test_train_refuses_values_that_break_training(toy_files, tmp_path, flag, value):
    model = tmp_path / "m.npz"
    assert cli.main(["train", str(toy_files["const"]), "--head-table", str(toy_files["table"]),
                     "--model", str(model), "--dim", str(2 ** 16), flag, value]) == 1
    assert not model.exists()


def test_config_key_after_hash_is_a_key(toy_files, tmp_path, caplog):
    # only "#" alone or "# " and text is a comment
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n#\n#epochs=3\n")
    assert cli.main(["eval", str(toy_files["const"]), str(toy_files["const"]),
                     "--config", str(cfg)]) == 1
    assert "['#epochs']" in caplog.text


def test_parse_refuses_dense_model(trained_models, tmp_path):
    store = trained_models["plain"]["parser"].store
    meta = {"dim": store.dim, "eta": store.eta, "lam": store.lam, "delta": store.delta,
            "dtype": store.dtype.name, "config_digest": "",
            "extra": {"labels": list(trained_models["plain"]["parser"].inventory.labels),
                      "feature_config": {"dim": store.dim, "cluster_kinds": [],
                                         "pair_minus1_0": True,
                                         "literal_duplicate_ww": False,
                                         "lemma_templates": False}}}
    dense = tmp_path / "dense.npz"
    np.savez_compressed(dense, weights=store.weights, gradsq=store.gradsq,
                        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
    assert cli.main(["parse", str(dense), str(trained_models["held"]),
                     str(tmp_path / "pred.export")]) == 1


def test_parse_truncated_model_exits_1(trained_models, tmp_path):
    data = trained_models["plain"]["model"].read_bytes()
    cut = tmp_path / "cut.npz"
    cut.write_bytes(data[:len(data) // 2])
    assert cli.main(["parse", str(cut), str(trained_models["held"]),
                     str(tmp_path / "pred.export")]) == 1


def test_parse_npy_as_model_exits_1_without_traceback(trained_models, tmp_path):
    model = tmp_path / "m.npy"
    np.save(model, np.arange(4))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "discoparse.cli", "parse", str(model),
                          str(trained_models["held"]), str(tmp_path / "pred.export")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert "not a model file" in run.stderr


def test_parse_unknown_feature_config_key_exits_1(trained_models, tmp_path):
    from discoparse.learner import WeightStore
    store = WeightStore.load(trained_models["plain"]["model"])
    store.extra["feature_config"]["bogus"] = 1
    model = tmp_path / "bogus.npz"
    store.save(model, extra=store.extra, blobs=store.blobs)
    with pytest.raises(ValueError, match="bogus"):
        cli.load_parser(model)
    assert cli.main(["parse", str(model), str(trained_models["held"]),
                     str(tmp_path / "pred.export")]) == 1


@pytest.mark.parametrize("key, value", [
    ("dim", "big"), ("dim", 2 ** 20), ("dim", None), ("cluster_kinds", "full"),
    ("cluster_kinds", ["full", 6]), ("pair_minus1_0", "false"), ("pair_minus1_0", False),
    ("lemma_templates", 0)])
def test_parse_bad_feature_config_value_exits_1_without_traceback(
        trained_models, tmp_path, key, value):
    from discoparse.learner import WeightStore
    store = WeightStore.load(trained_models["plain"]["model"])
    store.extra["feature_config"][key] = value
    model = tmp_path / "bad.npz"
    store.save(model, extra=store.extra, blobs=store.blobs)
    with pytest.raises(ValueError, match=key):
        cli.load_parser(model)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "discoparse.cli", "parse", str(model),
                          str(trained_models["held"]), str(tmp_path / "pred.export")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert key in run.stderr


def _labels(labels):
    return lambda meta: {**meta, "extra": {**meta["extra"], "labels": labels}}


@pytest.mark.parametrize("change", [
    lambda meta: [meta], lambda meta: {**meta, "dim": "big"},
    lambda meta: {**meta, "dim": 16.0}, lambda meta: {**meta, "dim": True},
    lambda meta: {**meta, "eta": "0.1"}, lambda meta: {**meta, "delta": None},
    lambda meta: {**meta, "dtype": "foo"}, lambda meta: {**meta, "dtype": "int8"},
    lambda meta: {**meta, "extra": []}, _labels([1, 2]), _labels("NPS"), _labels([]),
    lambda meta: {**meta, "extra": {**meta["extra"], "feature_config": []}}],
    ids=["list", "dim-str", "dim-float", "dim-bool", "eta-str", "delta-none", "dtype-foo",
         "dtype-int8", "extra-list", "labels-ints", "labels-str", "labels-empty", "fc-list"])
def test_parse_malformed_model_metadata_exits_1_without_traceback(
        trained_models, tmp_path, change):
    with np.load(trained_models["plain"]["model"]) as data:
        arrays = {name: data[name] for name in data.files}
    meta = change(json.loads(bytes(arrays["meta"]).decode("utf-8")))
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    model = tmp_path / "bad.npz"
    np.savez(model, **arrays)
    with pytest.raises(ValueError):
        cli.load_parser(model)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "discoparse.cli", "parse", str(model),
                          str(trained_models["held"]), str(tmp_path / "pred.export")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr


def test_train_truncated_bigrams_exits_1(toy_files, trained_models, tmp_path):
    lines = trained_models["bigrams"].read_text().splitlines(keepends=True)
    cut = tmp_path / "assoc.txt"
    cut.write_text("".join(lines[:len(lines) // 2]))
    assert cli.main(["train", str(toy_files["const"]),
                     "--head-table", str(toy_files["table"]),
                     "--model", str(tmp_path / "m.npz"), "--epochs", "1",
                     "--dim", str(2 ** 16), "--bigrams", str(cut)]) == 1


def run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "discoparse.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)


# far deeper than the readers accept, and than Python's default recursion limit
DEEP_LINE = "(S " * 1200 + "(X 0=a)" + ")" * 1200 + "\n"


@pytest.mark.parametrize("strict", [False, True])
def test_deeply_nested_discbracket_exits_without_traceback(
        trained_models, toy_files, tmp_path, strict):
    deep = tmp_path / "deep.dbr"
    deep.write_text(DEEP_LINE)
    runs = [run_cli("parse", trained_models["plain"]["model"], deep, tmp_path / "out.dbr",
                    *(["--strict"] if strict else []))]
    if not strict:  # eval has no strict mode
        runs.append(run_cli("eval", deep, deep, "--head-table", toy_files["table"]))
    for run in runs:
        assert "Traceback" not in run.stderr
        assert "nested deeper than" in run.stderr
    # a strict run refuses the file; otherwise the line is skipped, which
    # leaves eval nothing to score
    assert runs[0].returncode == (1 if strict else 0)
    assert all(run.returncode == 1 for run in runs[1:])


def test_eval_reads_the_deepest_export_chain(toy_files, tmp_path):
    # 500 nonterminals, all the export id convention allows, in one unary chain
    rows = ["#BOS 1", "a\t--\tNN\t--\t--\t500"]
    rows += [f"#{nid}\t--\tNP\t--\t--\t{nid + 1 if nid < 999 else 0}"
             for nid in range(500, 1000)]
    chain = tmp_path / "chain.export"
    chain.write_text("\n".join([*rows, "#EOS 1"]) + "\n")
    run = run_cli("eval", chain, chain, "--head-table", toy_files["table"])
    assert "Traceback" not in run.stderr
    assert run.returncode == 0
    assert "sentences    1" in run.stdout


def test_parse_refuses_output_its_reader_would_skip(trained_models, tmp_path):
    flat = tmp_path / "flat.dbr"
    flat.write_text("(S " + " ".join(f"(NN {i}=w{i})" for i in range(516)) + ")\n")
    out = tmp_path / "out.export"
    run = run_cli("parse", trained_models["plain"]["model"], flat, out)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert "more than 500 terminals" in run.stderr
    assert not out.exists()


def test_eval_over_no_sentence_exits_1(toy_files, tmp_path, caplog):
    const = str(toy_files["const"])
    assert cli.main(["eval", const, const, "--maxlen", "1"]) == 1
    bad = tmp_path / "bad.dbr"
    bad.write_text("(S 0=a\n")
    assert cli.main(["eval", str(bad), str(bad)]) == 1
    assert "no sentence was scored" in caplog.text


def test_format_and_config_only_where_read(trained_models, tmp_path, caplog):
    conll, paths = tmp_path / "x.conll", tmp_path / "paths.txt"
    write_conll([], conll)
    paths.write_text("0101\thund\n")
    assert cli.main(["cluster-check", str(paths), "--config", "/nonexistent.cfg"]) == 1
    assert cli.main(["cluster-check", str(paths), "--format", "export"]) == 1
    assert cli.main(["bigram-build", str(conll), str(tmp_path / "b.txt"),
                     "--format", "export"]) == 1
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.dbr"
    cfg.write_text("format=bogus\n")
    assert cli.main(["parse", str(trained_models["plain"]["model"]),
                     str(trained_models["held"]), str(out), "--config", str(cfg)]) == 1
    assert "'bogus'" in caplog.text
    assert not out.exists()


@pytest.fixture(scope="module")
def garble_kit(toy_files, tmp_path_factory):
    """Per input kind: its well-formed bytes, a function that writes the
    garbled bytes as a file and returns its path, and the CLI runs that
    read that file."""
    root = tmp_path_factory.mktemp("garble")
    corpus = toy_corpus(3, random.Random(5))
    export, dbr, conll = root / "ok.export", root / "ok.dbr", root / "ok.conll"
    write_export([t for t, _ in corpus], export)
    write_discbracket([t for t, _ in corpus], dbr)
    write_conll([d for _, d in corpus], conll)
    forms = sorted({t.form for tree, _ in corpus for t in tree.tokens})
    clusters = root / "ok.paths"
    clusters.write_text("".join(f"{k + 2:b}\t{form}\t1\n" for k, form in enumerate(forms)))
    bigrams, table, model = root / "ok.assoc", toy_files["table"], root / "ok.npz"
    assert cli.main(["bigram-build", str(conll), str(bigrams), "--min-count", "1"]) == 0
    assert cli.main(["train", str(export), "--head-table", str(table), "--model", str(model),
                     "--clusters", str(clusters), "--bigrams", str(bigrams),
                     "--epochs", "1", "--dim", "1024"]) == 0
    with np.load(model) as data:
        arrays = {name: data[name] for name in data.files}
    out = root / "out"

    def trees(g):
        return [("eval", g, g, "--head-table", table), ("induce-heads", g, conll,
                 "--out-table", out, "--out-tags", out),
                ("parse", model, g, out), ("parse", model, g, out, "--strict")]

    def resource(flag):
        return lambda g: [("parse", model, export, out, flag, g),
                          ("train", export, "--head-table", table, "--model", out,
                           "--epochs", "1", "--dim", "1024", flag, g)]

    def file(name):
        def write(data):
            (root / name).write_bytes(data)
            return root / name
        return write

    def meta_model(data):
        np.savez(root / "g.npz", **{**arrays, "meta": np.frombuffer(data, dtype=np.uint8)})
        return root / "g.npz"

    return {
        "export": (export.read_bytes(), file("g.export"), trees),
        "dbr": (dbr.read_bytes(), file("g.dbr"), trees),
        "deep": (DEEP_LINE.encode(), file("g.dbr"), trees),
        "conll": (conll.read_bytes(), file("g.conll"), lambda g: [
            ("induce-heads", export, g, "--out-table", out, "--out-tags", out),
            ("bigram-build", g, out)]),
        "clusters": (clusters.read_bytes(), file("g.paths"), lambda g: [
            ("cluster-check", g), ("cluster-check", g, "--strict"),
            *resource("--clusters")(g)]),
        "bigrams": (bigrams.read_bytes(), file("g.assoc"), resource("--bigrams")),
        "table": (table.read_bytes(), file("g.heads"), lambda g: [
            ("eval", export, export, "--head-table", g), *resource("--head-table")(g)]),
        "model": (model.read_bytes(), file("g.npz"), lambda g: [("parse", g, export, out)]),
        "meta": (bytes(arrays["meta"]), meta_model, lambda g: [("parse", g, export, out)]),
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@example(kind="deep", cut=None, edits=[])
@given(kind=st.sampled_from(["export", "dbr", "deep", "conll", "clusters", "bigrams",
                             "table", "model", "meta"]),
       cut=st.none() | st.floats(0, 1),
       edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                      max_size=4))
def test_garbled_inputs_end_in_exit_codes(garble_kit, kind, cut, edits):
    data, write, commands = garble_kit[kind]
    data = bytearray(data if cut is None else data[:int(cut * len(data))])
    for where, byte in edits:
        if data:
            data[int(where * len(data))] = byte
    garbled = write(bytes(data))
    limit = sys.getrecursionlimit()
    # hypothesis raises the limit while a test runs; the command line has the default
    sys.setrecursionlimit(1000)
    try:
        for argv in commands(garbled):
            # an escaping exception is what the command line would show as a traceback
            assert cli.main([str(a) for a in argv]) in (0, 1, 2), argv
    finally:
        sys.setrecursionlimit(limit)
