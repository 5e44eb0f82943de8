import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoparse import synthdata
from discoparse.evaluate import evaluate
from discoparse.headrules import HeadTable
from discoparse.treebank import (
    MAX_BRACKET_DEPTH,
    AlignmentError,
    ConstTree,
    DepSentence,
    FormatError,
    Token,
    align,
    block_count,
    discbracket_line,
    read_conll,
    read_discbracket,
    read_export,
    write_conll,
    write_discbracket,
    write_export,
)

EXPORT_V4 = """\
#BOS 1
a\tla\tX\t--\t--\t500
b\tlb\tY\t--\t--\t501
c\tlc\tX\tcase=acc\t--\t500
#500\t--\tVP\t--\t--\t502
#501\t--\tNP\t--\t--\t502
#502\t--\tS\t--\t--\t0
#EOS 1
"""

EXPORT_V3 = """\
#BOS 7
a\tX\t--\t--\t500
b\tY\t--\t--\t501
c\tX\t--\t--\t500
#500\t--\tVP\t--\t500:501\t502
#501\t--\tNP\t--\t--\t502
#502\t--\tS\t--\t--\t0
#EOS 7
"""


def written(write, trees):
    buf = io.StringIO()
    write(trees, buf)
    return buf.getvalue()


def roundtrip_export(trees):
    return read_export(io.StringIO(written(write_export, trees)), strict=True)


def roundtrip_discbracket(trees):
    return read_discbracket(io.StringIO(written(write_discbracket, trees)), strict=True)


def test_export_discontinuous_yields():
    (tree,) = read_export(io.StringIO(EXPORT_V4), strict=True)
    assert [t.form for t in tree.tokens] == ["a", "b", "c"]
    assert tree.tokens[0].lemma == "la"
    assert tree.tokens[2].morph == "case=acc"
    by_label = {node.label: node for node in tree.internal_nodes()}
    assert by_label["VP"].leaves == frozenset({0, 2})
    assert by_label["S"].leaves == frozenset({0, 1, 2})
    assert tree.block_degree(by_label["VP"].id) == 2


def test_export_v3_detected_by_column_parity():
    # secondary edge on the first #500 line keeps the parity odd
    (tree,) = read_export(io.StringIO(EXPORT_V3), strict=True)
    assert tree.tokens[0].lemma == ""
    by_label = {node.label: node for node in tree.internal_nodes()}
    assert by_label["VP"].leaves == frozenset({0, 2})


def test_export_block_degree_three():
    # a phrase whose material is interrupted twice has three blocks
    tree = synthdata.build_tree(
        [("w%d" % i, "T") for i in range(7)],
        ("S", [("VP", [0, 1, ("NP", [3]), 5]), ("X", [2]), ("Y", [4]), ("Z", [6])]),
    )
    vp = next(n for n in tree.internal_nodes() if n.label == "VP")
    assert tree.block_degree(vp.id) == 3


def test_export_dangling_parent():
    bad = EXPORT_V4.replace("#501\t--\tNP\t--\t--\t502", "#501\t--\tNP\t--\t--\t999")
    with pytest.raises(FormatError, match="dangling"):
        read_export(io.StringIO(bad), strict=True)
    assert read_export(io.StringIO(bad)) == []


def test_export_bos_eos_mismatch():
    bad = EXPORT_V4.replace("#EOS 1", "#EOS 2")
    with pytest.raises(FormatError, match="does not match"):
        read_export(io.StringIO(bad), strict=True)


def test_export_cycle():
    for rows in [
        ["a\tla\tX\t--\t--\t500",
         "#500\t--\tVP\t--\t--\t501",
         "#501\t--\tNP\t--\t--\t500"],
        # a node that hangs below the cycle
        ["a\tla\tX\t--\t--\t502",
         "#500\t--\tVP\t--\t--\t501",
         "#501\t--\tNP\t--\t--\t500",
         "#502\t--\tAP\t--\t--\t500"],
        # a cycle beside a valid top item
        ["a\tla\tX\t--\t--\t502",
         "b\tlb\tY\t--\t--\t500",
         "#500\t--\tVP\t--\t--\t501",
         "#501\t--\tNP\t--\t--\t500",
         "#502\t--\tS\t--\t--\t0"],
    ]:
        bad = "\n".join(["#BOS 1", *rows, "#EOS 1"]) + "\n"
        with pytest.raises(FormatError, match="cycle in parent links involving #500") as err:
            read_export(io.StringIO(bad), strict=True)
        assert "line" in str(err.value)
        assert err.value.line == 2 + next(k for k, row in enumerate(rows)
                                          if row.startswith("#500"))


def test_export_multiple_top_items_get_root():
    text = "\n".join([
        "#BOS 1",
        "a\tla\tX\t--\t--\t500",
        "b\tlb\tY\t--\t--\t0",
        "#500\t--\tNP\t--\t--\t0",
        "#EOS 1",
    ]) + "\n"
    (tree,) = read_export(io.StringIO(text), strict=True)
    assert tree.root.label == "VROOT"
    assert tree.root.leaves == frozenset({0, 1})
    (back,) = roundtrip_export([tree])
    assert back == tree


def test_export_roundtrip_random():
    rng = random.Random(101)
    trees = [synthdata.random_tree(rng) for _ in range(100)]
    assert roundtrip_export(trees) == trees
    text = written(write_export, trees)
    assert written(write_export, roundtrip_export(trees)) == text


def test_discbracket_basic():
    (tree,) = read_discbracket(io.StringIO("(S (VP 0=x 2=z) (N 1=y))"), strict=True)
    vp = next(n for n in tree.internal_nodes() if n.label == "VP")
    assert vp.leaves == frozenset({0, 2})
    assert tree.block_degree(vp.id) == 2
    # N has a single terminal child, so it is token 1's tag
    assert tree.tokens[1].pos == "N"
    assert {n.label for n in tree.internal_nodes()} == {"S", "VP"}


def test_discbracket_preterminals():
    (tree,) = read_discbracket(io.StringIO("(S (A 0=a) (B 1=b))"), strict=True)
    assert tree.root.leaves == frozenset({0, 1})
    assert [t.pos for t in tree.tokens] == ["A", "B"]
    assert list(tree.nodes) == [tree.root_id]


def test_discbracket_errors():
    for text, what in [
        ("(S (A 0=a) (B 1=b)", "unbalanced"),
        ("(S (A 0=a) (B 3=b))", "missing terminal index"),
        ("(S (A 0=a) (B 0=b))", "duplicate terminal"),
        ("(S (A 0=a) (B b))", "lacks an index"),
    ]:
        with pytest.raises(FormatError, match=what):
            read_discbracket(io.StringIO(text), strict=True)


def nested_line(depth):
    """``depth`` brackets around one terminal: depth - 1 phrases and a tag."""
    return "(S " * (depth - 1) + "(X 0=a)" + ")" * (depth - 1)


def test_discbracket_nesting_limit():
    (tree,) = read_discbracket(io.StringIO(nested_line(MAX_BRACKET_DEPTH)), strict=True)
    assert len(tree.nodes) == MAX_BRACKET_DEPTH - 1
    # the deepest accepted tree still runs through every recursive walker
    assert discbracket_line(tree) == nested_line(MAX_BRACKET_DEPTH)
    assert evaluate([tree], [tree], table=HeadTable()).f1 == 100.0
    with pytest.raises(FormatError, match="nested deeper than"):
        read_discbracket(io.StringIO(nested_line(MAX_BRACKET_DEPTH + 1)), strict=True)
    assert read_discbracket(io.StringIO(nested_line(1200))) == []


def nested_tree(phrases, tag, width=1):
    structure = ("S", list(range(width)))
    for _ in range(phrases - 1):
        structure = ("S", [structure])
    return synthdata.build_tree([(f"w{i}", tag) for i in range(width)], structure)


def test_discbracket_writer_refuses_what_the_reader_refuses(tmp_path):
    # test_discbracket_nesting_limit round-trips 200 brackets; the tag
    # bracket counts, so 200 phrases over a tagged terminal are 201
    with pytest.raises(ValueError, match="nested deeper than"):
        discbracket_line(nested_tree(MAX_BRACKET_DEPTH, "X"))
    # an untagged terminal opens no bracket
    assert (discbracket_line(nested_tree(MAX_BRACKET_DEPTH, "", width=2)).count("(")
            == MAX_BRACKET_DEPTH)
    # refused before rendering recurses as deep as the tree; no partial file
    out = tmp_path / "out.dbr"
    with pytest.raises(ValueError, match="nested deeper than"):
        write_discbracket([nested_tree(1, "X"), nested_tree(450, "X")], out)
    assert not out.exists()


def flat_tree(n_tokens, wrap):
    kids = [("NP", [i]) if wrap else i for i in range(n_tokens)]
    return synthdata.build_tree([(f"w{i}", "NN") for i in range(n_tokens)], ("S", kids))


@pytest.mark.parametrize("n_tokens, wrap, ok", [
    (500, False, True), (501, False, False),   # terminals
    (499, True, True), (500, True, False)])    # nonterminals: one NP per token, plus S
def test_export_writer_refuses_what_the_reader_refuses(tmp_path, n_tokens, wrap, ok):
    tree = flat_tree(n_tokens, wrap)
    if ok:
        assert roundtrip_export([tree]) == [tree]
        return
    out = tmp_path / "out.export"
    with pytest.raises(ValueError, match="more than 500"):
        write_export([flat_tree(3, wrap), tree], out)
    assert not out.exists()


def test_export_writer_refuses_a_form_read_as_a_row_marker(tmp_path):
    out = tmp_path / "out.export"
    for form in ("#512", "#BOS", "#EOS"):
        tree = synthdata.build_tree([(form, "NN"), ("b", "NN")], ("S", [0, 1]))
        with pytest.raises(ValueError, match=f"cannot serialize form '{form}'"):
            write_export([flat_tree(3, False), tree], out)
        assert not out.exists()
    # outside the 500-999 id range such a form is an ordinary token
    for form in ("#499", "#1000", "#", "#5x2"):
        tree = synthdata.build_tree([(form, "NN"), ("b", "NN")], ("S", [0, 1]))
        assert roundtrip_export([tree]) == [tree]


def test_discbracket_writer_refuses_a_phrase_over_one_untagged_terminal(tmp_path):
    # the reader would take NP for token 0's tag and lose the phrase
    tree = synthdata.build_tree([("a", ""), ("b", "NN")], ("S", [("NP", [0]), 1]))
    out = tmp_path / "out.dbr"
    with pytest.raises(ValueError, match="'NP' over the untagged terminal 0"):
        write_discbracket([flat_tree(3, True), tree], out)
    assert not out.exists()
    with pytest.raises(ValueError, match="untagged terminal"):
        discbracket_line(nested_tree(MAX_BRACKET_DEPTH, ""))
    # over a tagged terminal, or over two untagged ones, the phrase survives
    for ok in (synthdata.build_tree([("a", "X"), ("b", "NN")], ("S", [("NP", [0]), 1])),
               synthdata.build_tree([("a", ""), ("b", "")], ("S", [("NP", [0, 1])]))):
        assert roundtrip_discbracket([ok]) == [ok]


def test_discbracket_roundtrip_random():
    rng = random.Random(202)
    trees = [synthdata.random_tree(rng, rich_tokens=False) for _ in range(100)]
    assert roundtrip_discbracket(trees) == trees
    text = written(write_discbracket, trees)
    assert written(write_discbracket, roundtrip_discbracket(trees)) == text


def test_discbracket_escapes_parens():
    tree = synthdata.build_tree([("(", "$("), ("x", "NN")], ("S", [0, 1]))
    line = discbracket_line(tree)
    assert "-LRB-" in line
    (back,) = read_discbracket(io.StringIO(line), strict=True)
    assert back.tokens[0].form == "("


def test_conll_two_token_example():
    text = "1\ta\t_\tD\tDT\t_\t2\tdet\t_\t_\n2\tb\t_\tN\tNN\t_\t0\troot\t_\t_\n\n"
    (sent,) = read_conll(io.StringIO(text), strict=True)
    assert sent.heads == [2, 0]
    assert sent.tokens[0].pos == "DT"
    assert sent.tokens[0].cpos == "D"
    assert sent.deprels == ["det", "root"]


def test_conll_cycle_rejected():
    text = "1\ta\t_\t_\tX\t_\t2\tdep\t_\t_\n2\tb\t_\t_\tX\t_\t1\tdep\t_\t_\n\n"
    with pytest.raises(FormatError, match="not a tree"):
        read_conll(io.StringIO(text), strict=True)
    assert read_conll(io.StringIO(text)) == []


def test_conll_bad_head_value():
    text = "1\ta\t_\t_\tX\t_\tx\tdep\t_\t_\n\n"
    with pytest.raises(FormatError, match="non-integer head"):
        read_conll(io.StringIO(text), strict=True)


def test_conll_skipped_token_id_named():
    text = "1\ta\t_\t_\tX\t_\t0\troot\t_\t_\n3\tb\t_\t_\tX\t_\t1\tdep\t_\t_\n\n"
    with pytest.raises(FormatError, match="unexpected token id '3'"):
        read_conll(io.StringIO(text), strict=True)


@pytest.mark.parametrize("form", ["", " b", "a b", "a\u00a0b"])
def test_conll_form_empty_or_with_whitespace_refused(form):
    bad = f"1\ta\t_\t_\tX\t_\t0\troot\t_\t_\n2\t{form}\t_\t_\tX\t_\t1\tdep\t_\t_\n\n"
    good = "1\tc\t_\t_\tX\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(FormatError, match=r"form .* is empty or holds whitespace.*line 2"):
        read_conll(io.StringIO(bad + good), strict=True)
    (sent,) = read_conll(io.StringIO(bad + good))
    assert [t.form for t in sent.tokens] == ["c"]
    with pytest.raises(ValueError, match="cannot serialize form"):
        write_conll([DepSentence([Token(index=0, form=form)], [0], ["root"])], io.StringIO())


def test_conll_roundtrip_byte_identical_mandatory_columns():
    rng = random.Random(303)
    sentences = [synthdata.random_dep_sentence(rng) for _ in range(10_000)]
    buf = io.StringIO()
    write_conll(sentences, buf)
    first = buf.getvalue()
    back = read_conll(io.StringIO(first), strict=True)
    buf2 = io.StringIO()
    write_conll(back, buf2)
    assert buf2.getvalue() == first
    for line in first.splitlines():
        if line:
            assert len(line.split("\t")) == 10


def test_align_ok_and_mismatch():
    rng = random.Random(404)
    tree, dep = synthdata.toy_sentence(rng, "extra")
    corpus = align([tree], [dep])
    assert len(corpus) == 1
    bad = DepSentence(
        [Token(index=t.index, form=t.form + "x", pos=t.pos) for t in dep.tokens],
        dep.heads, dep.deprels)
    with pytest.raises(AlignmentError, match="sentence 0, token 0"):
        align([tree], [bad])
    with pytest.raises(AlignmentError, match="count mismatch"):
        align([tree], [])
    assert len(align([], [])) == 0


def test_validate_rejects_overlapping_children():
    from discoparse.treebank import Node
    tokens = [Token(index=0, form="a"), Token(index=1, form="b")]
    nodes = {
        500: Node(500, "X", [0, 1], frozenset({0, 1})),
        501: Node(501, "Y", [1], frozenset({1})),
        502: Node(502, "S", [500, 501], frozenset({0, 1})),
    }
    with pytest.raises(FormatError):
        ConstTree(tokens, nodes, 502).validate()


@given(st.sets(st.integers(min_value=0, max_value=60), min_size=1))
def test_block_count_matches_gap_count(indices):
    ordered = sorted(indices)
    gaps = sum(1 for a, b in zip(ordered, ordered[1:]) if b > a + 1)
    assert block_count(indices) == gaps + 1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrips_on_arbitrary_seeds(seed):
    rng = random.Random(seed)
    tree = synthdata.random_tree(rng)
    assert roundtrip_export([tree]) == [tree]
    plain = synthdata.random_tree(rng, rich_tokens=False)
    assert roundtrip_discbracket([plain]) == [plain]
