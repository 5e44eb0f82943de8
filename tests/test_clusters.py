import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discoparse.clusters import (
    FOUR_BIT,
    FULL,
    SIX_BIT,
    UNK,
    ClusterLexicon,
    load_clusters,
    prefix,
)
from discoparse.features import _kind_value, make_view
from discoparse.treebank import Token


def test_load_and_lookup():
    lex = load_clusters(io.StringIO("0110\tHaus\t42\n10\tder\t999\n"))
    assert lex.lookup("Haus") == "0110"
    assert lex.lookup("nie_gesehen") == UNK
    assert lex.lookup("der") == "10" and len(lex) == 2


def test_count_column_is_optional():
    lex = load_clusters(io.StringIO("0110\tHaus\n"))
    assert lex.lookup("Haus") == "0110"


def test_prefix_examples():
    assert prefix("011010", 4) == "0110"
    assert prefix("01", 6) == "01"
    assert prefix(UNK, 6) == UNK
    with pytest.raises(ValueError):
        prefix("0110", 0)


def test_kind_values():
    lex = ClusterLexicon({"Haus": "0110101"})
    haus = make_view("NN", Token(0, "Haus", pos="NN"), lexicon=lex)
    weg = make_view("ADV", Token(1, "weg", pos="ADV"), lexicon=lex)
    assert _kind_value(haus, FULL) == "0110101"
    assert _kind_value(haus, SIX_BIT) == "011010"
    assert _kind_value(haus, FOUR_BIT) == "0110"
    assert _kind_value(weg, FULL) == UNK
    assert _kind_value(weg, SIX_BIT) == UNK


def test_malformed_lines_skipped_or_strict():
    text = "0110\tHaus\t42\nkein_tab\n01x0\tBaum\t3\n0110\tTal\tviele\n10\tder\n"
    lex = load_clusters(io.StringIO(text))
    assert len(lex) == 2
    assert lex.lookup("der") == "10"
    for bad in ("kein_tab\n", "01x0\tBaum\t3\n", "0110\tTal\tviele\n", "\tleer\t1\n"):
        with pytest.raises(ValueError, match="line 1"):
            load_clusters(io.StringIO(bad), strict=True)


def test_duplicates_keep_first(caplog):
    lex = load_clusters(io.StringIO("0110\tHaus\t42\n1111\tHaus\t1\n"))
    assert lex.lookup("Haus") == "0110"
    assert len(lex) == 1


def test_million_line_file(tmp_path):
    rng = random.Random(7)
    path = tmp_path / "paths.txt"
    good = 0
    with open(path, "w") as f:
        for i in range(1_000_000):
            if rng.random() < 0.001:
                f.write(f"garbage line {i}\n")
            else:
                bits = "".join(rng.choice("01") for _ in range(rng.randint(4, 12)))
                f.write(f"{bits}\tw{i}\t{rng.randint(1, 500)}\n")
                good += 1
    lex = load_clusters(path)
    assert len(lex) == good


@given(st.text(alphabet="01", min_size=1, max_size=20),
       st.integers(min_value=1, max_value=25),
       st.integers(min_value=1, max_value=25))
def test_prefix_nesting(path, a, b):
    lo, hi = min(a, b), max(a, b)
    assert prefix(path, hi).startswith(prefix(path, lo))


@given(st.text(alphabet="01", min_size=1, max_size=20),
       st.text(alphabet="01", min_size=1, max_size=20))
def test_coarsening_respects_refinement(p1, p2):
    # equal 6-bit prefixes force equal 4-bit prefixes
    if prefix(p1, 6) == prefix(p2, 6):
        assert prefix(p1, 4) == prefix(p2, 4)


# forms without control characters or ASCII spaces; "#"-initial and
# NBSP-bearing ones included
FORMS = st.text(st.characters(exclude_categories=("C",), exclude_characters=" "),
                min_size=1, max_size=4)
FORMS = st.one_of(FORMS, FORMS.map("#".__add__), st.just("#"))


@settings(max_examples=60, deadline=None, derandomize=True)
@example(entries={"#": ("0", None), "#x ": ("1", 5)})
@given(entries=st.dictionaries(
    FORMS, st.tuples(st.text("01", min_size=1, max_size=12),
                     st.none() | st.integers(0, 10 ** 9)),
    max_size=6))
def test_written_cluster_file_loads_back(entries):
    text = "# config abc\n" + "".join(
        f"{path}\t{form}" + ("" if count is None else f"\t{count}") + "\n"
        for form, (path, count) in entries.items())
    lex = load_clusters(io.StringIO(text), strict=True)
    assert lex.paths == {form: path for form, (path, _) in entries.items()}
