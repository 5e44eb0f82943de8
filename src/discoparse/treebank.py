"""Readers and writers for constituent and dependency treebanks.

Three interchange formats are supported:

* NEGRA/TIGER export, version 3 (five core columns) and version 4 (six,
  with a lemma column), detected per line by column parity since secondary
  edges always come in pairs.
* discbracket: one tree per line with ``index=form`` terminals, which makes
  discontinuous yields explicit.
* CoNLL-X dependency files (tab separated columns, blank-line separated
  sentences).

Readers skip sentences that fail validation with a logged warning unless
``strict`` is set, in which case the first problem raises ``FormatError``.
"""

from __future__ import annotations

import contextlib
import io
import logging
import re
from dataclasses import dataclass

logger = logging.getLogger(__name__)

FALLBACK_ROOT = "VROOT"

# export convention: nonterminal ids occupy 500-999
_NONTERM_RE = re.compile(r"^#([5-9][0-9][0-9])$")
_TERMINAL_RE = re.compile(r"^(\d+)=(.*)$")
_DISC_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
# tree walkers such as discbracket_line recurse up to three frames per
# level; 200 levels stay well inside Python's default limit of 1000 frames
MAX_BRACKET_DEPTH = 200


class FormatError(ValueError):
    """Malformed treebank input."""

    def __init__(self, message, line=None, sent_id=None):
        parts = [str(message)]
        if sent_id is not None:
            parts.append(f"sentence {sent_id}")
        if line is not None:
            parts.append(f"line {line}")
        super().__init__("; ".join(parts))
        self.line = line
        self.sent_id = sent_id


class AlignmentError(ValueError):
    """Two views of one corpus do not describe the same sentences."""


@dataclass(frozen=True)
class Token:
    """One terminal.  ``pos`` is the fine tag; ``cpos`` only exists in CoNLL."""

    index: int
    form: str
    lemma: str = ""
    pos: str = ""
    morph: str = "_"
    cpos: str = ""


@dataclass
class Node:
    id: int
    label: str
    children: list
    leaves: frozenset


def block_count(indices) -> int:
    """Number of maximal runs of consecutive integers in ``indices``."""
    runs = 0
    prev = None
    for i in sorted(indices):
        if prev is None or i != prev + 1:
            runs += 1
        prev = i
    return runs


class ConstTree:
    """A labeled constituent tree whose node yields may be discontinuous.

    Terminals are token indices; internal nodes live in ``nodes``, keyed by
    integer ids (500 and up, following the export convention).  An entry in a
    child list refers to a node exactly when it is a key of ``nodes``,
    otherwise it is a token index.
    """

    def __init__(self, tokens, nodes, root_id, sent_id=None):
        self.tokens = list(tokens)
        self.nodes = dict(nodes)
        self.root_id = root_id
        self.sent_id = sent_id

    def __len__(self):
        return len(self.tokens)

    def __repr__(self):
        return f"<ConstTree {self.sent_id or ''} n={len(self.tokens)} nodes={len(self.nodes)}>"

    @property
    def root(self) -> Node:
        return self.nodes[self.root_id]

    def leaves_of(self, ident) -> frozenset:
        if ident in self.nodes:
            return self.nodes[ident].leaves
        return frozenset((ident,))

    def block_degree(self, node_id) -> int:
        return block_count(self.nodes[node_id].leaves)

    def children_sorted(self, node) -> list:
        """Children in surface order (by smallest covered token index)."""
        return sorted(node.children, key=lambda c: min(self.leaves_of(c)))

    def internal_nodes(self):
        return self.nodes.values()

    def validate(self) -> "ConstTree":
        n = len(self.tokens)
        if not self.tokens:
            raise FormatError("tree has no terminals", sent_id=self.sent_id)
        if self.root_id not in self.nodes:
            raise FormatError("tree has no root node", sent_id=self.sent_id)
        for i, token in enumerate(self.tokens):
            if token.index != i:
                raise FormatError(f"token index {token.index} at position {i}",
                                  sent_id=self.sent_id)
        term_refs = []
        node_refs = []
        for node in self.nodes.values():
            if not node.children:
                raise FormatError(f"node {node.id} ({node.label}) has no children",
                                  sent_id=self.sent_id)
            covered = frozenset()
            size = 0
            for c in node.children:
                if c in self.nodes:
                    node_refs.append(c)
                else:
                    if not 0 <= c < n:
                        raise FormatError(f"node {node.id} covers unknown terminal {c}",
                                          sent_id=self.sent_id)
                    term_refs.append(c)
                part = self.leaves_of(c)
                covered |= part
                size += len(part)
            if covered != node.leaves:
                raise FormatError(f"node {node.id} yield is not the union of its children",
                                  sent_id=self.sent_id)
            if size != len(covered):
                raise FormatError(f"node {node.id} has overlapping children",
                                  sent_id=self.sent_id)
        if self.root.leaves != frozenset(range(n)):
            raise FormatError("root does not cover the sentence", sent_id=self.sent_id)
        if len(term_refs) != n or len(set(term_refs)) != n:
            raise FormatError("terminals not attached exactly once", sent_id=self.sent_id)
        if len(node_refs) != len(set(node_refs)):
            raise FormatError("node attached more than once", sent_id=self.sent_id)
        if self.root_id in node_refs:
            raise FormatError("root node is itself a child", sent_id=self.sent_id)
        if set(node_refs) != set(self.nodes) - {self.root_id}:
            raise FormatError("nodes not reachable from the root", sent_id=self.sent_id)
        # reachability from the root (guards against parent cycles)
        seen = set()
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise FormatError("cycle among nodes", sent_id=self.sent_id)
            seen.add(nid)
            stack.extend(c for c in self.nodes[nid].children if c in self.nodes)
        if seen != set(self.nodes):
            raise FormatError("nodes not reachable from the root", sent_id=self.sent_id)
        return self

    def signature(self):
        """Nested (label, children...) tuple; child order canonicalized."""
        def sig(ident):
            if ident not in self.nodes:
                return ("t", ident)
            node = self.nodes[ident]
            return (node.label, tuple(sig(c) for c in self.children_sorted(node)))
        return sig(self.root_id)

    def __eq__(self, other):
        if not isinstance(other, ConstTree):
            return NotImplemented
        return self.tokens == other.tokens and self.signature() == other.signature()

    __hash__ = None


def build_tree(token_specs, structure, sent_id=None) -> ConstTree:
    """The one place a tree is made: number the nodes of a nested spec in
    post-order, give each the union of its children's leaves, and
    validate.  Both readers, the decoder and the generators call it.

    ``token_specs`` is a list of (form, pos) pairs or ``Token`` objects;
    ``structure`` is nested ``(label, [child, ...])`` with ``int`` leaves.
    """
    tokens = []
    for i, spec in enumerate(token_specs):
        if isinstance(spec, Token):
            tokens.append(spec)
        else:
            form, pos = spec
            tokens.append(Token(index=i, form=form, pos=pos))
    nodes = {}
    counter = [max(500, len(tokens))]

    def mk(spec):
        label, kids = spec
        refs = []
        covered = set()
        for k in kids:
            if isinstance(k, tuple):
                ref = mk(k)
                covered |= nodes[ref].leaves
            else:
                ref = k
                covered.add(k)
            refs.append(ref)
        nid = counter[0]
        counter[0] += 1
        nodes[nid] = Node(nid, label, refs, frozenset(covered))
        return nid

    root_id = mk(structure)
    return ConstTree(tokens, nodes, root_id, sent_id=sent_id).validate()


@dataclass
class DepSentence:
    """One dependency-annotated sentence; ``heads`` are 1-based, 0 = root."""

    tokens: list
    heads: list
    deprels: list
    sent_id: str = ""

    def __len__(self):
        return len(self.tokens)

    def validate(self) -> "DepSentence":
        n = len(self.tokens)
        for h in self.heads:
            if not 0 <= h <= n:
                raise FormatError(f"head {h} out of range 0..{n}", sent_id=self.sent_id)
        children = {i: [] for i in range(n + 1)}
        for dep, head in enumerate(self.heads, start=1):
            children[head].append(dep)
        seen = set()
        stack = [0]
        while stack:
            cur = stack.pop()
            seen.add(cur)
            stack.extend(children[cur])
        if len(seen) != n + 1:
            raise FormatError("head graph is not a tree rooted at 0", sent_id=self.sent_id)
        return self

    def governor_form(self, i, root_form) -> str:
        """Form of token i's governor, or ``root_form`` when attached to 0."""
        h = self.heads[i]
        return root_form if h == 0 else self.tokens[h - 1].form


def _open_read(source):
    """A path, an open text file, or file content as bytes."""
    if isinstance(source, bytes):
        source = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8")
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    return open(source, encoding="utf-8")


def data_lines(source):
    """(line number, line) for each line of a resource or config file that
    is neither blank nor a comment.  A comment is "#" alone or "# " and
    text, so data such as the tag "#" reads back as written.  Lines lose
    surrounding ASCII space, tab, CR and LF only."""
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip(" \t\r\n")
            if line and line != "#" and not line.startswith("# "):
                yield lineno, line


def _open_write(dest):
    if hasattr(dest, "write"):
        return contextlib.nullcontext(dest)
    return open(dest, "w", encoding="utf-8")


# ---------------------------------------------------------------- export

def _iter_export_blocks(lines, strict):
    """Yield (sent_id, bos_lineno, [(lineno, line), ...]) per #BOS/#EOS block."""
    sent_id = None
    bos_line = 0
    block = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if sent_id is None:
            if not stripped or stripped.startswith("%%"):
                continue
            if stripped.startswith("#BOS"):
                fields = stripped.split()
                if len(fields) < 2:
                    raise FormatError("#BOS without sentence id", line=lineno)
                sent_id = fields[1]
                bos_line = lineno
                block = []
            else:
                raise FormatError("content outside #BOS/#EOS block", line=lineno)
        elif stripped.startswith("#EOS"):
            fields = stripped.split()
            eos_id = fields[1] if len(fields) > 1 else ""
            if eos_id != sent_id:
                err = FormatError(f"#EOS id {eos_id!r} does not match #BOS id {sent_id!r}",
                                  line=lineno, sent_id=sent_id)
                if strict:
                    raise err
                logger.warning("skipping sentence: %s", err)
            else:
                yield sent_id, bos_line, block
            sent_id = None
        elif stripped.startswith("#BOS"):
            raise FormatError("nested #BOS", line=lineno, sent_id=sent_id)
        else:
            block.append((lineno, line))
    if sent_id is not None:
        raise FormatError("#BOS without matching #EOS", line=bos_line, sent_id=sent_id)


def _tree_from_export_block(sent_id, rows):
    terminals = []
    nodespecs = {}
    for lineno, line in rows:
        fields = line.split()
        if len(fields) < 5:
            raise FormatError("expected at least 5 columns", line=lineno, sent_id=sent_id)
        if len(fields) % 2 == 1:
            # v3 layout: secondary edges come in pairs, so an odd count
            # means the lemma column is absent
            fields = [fields[0], "--"] + fields[1:]
        word, lemma, tag, morph, _edge, parent = fields[:6]
        try:
            parent_id = int(parent)
        except ValueError:
            raise FormatError(f"non-integer parent id {parent!r}",
                              line=lineno, sent_id=sent_id) from None
        match = _NONTERM_RE.match(word)
        if match:
            nid = int(match.group(1))
            if nid in nodespecs:
                raise FormatError(f"duplicate node id #{nid}", line=lineno, sent_id=sent_id)
            nodespecs[nid] = (lineno, tag, parent_id)
        else:
            terminals.append((lineno, word, lemma, tag, morph, parent_id))

    if len(terminals) > 500:
        raise FormatError("more than 500 terminals breaks the export id convention",
                          sent_id=sent_id)

    children = {nid: [] for nid in nodespecs}
    top = []

    def attach(parent_id, ref, lineno):
        if parent_id == 0:
            top.append(ref)
        elif parent_id in nodespecs:
            children[parent_id].append(ref)
        else:
            raise FormatError(f"dangling parent reference #{parent_id}",
                              line=lineno, sent_id=sent_id)

    tokens = []
    for i, (lineno, word, lemma, tag, morph, parent_id) in enumerate(terminals):
        tokens.append(Token(
            index=i,
            form=word,
            lemma="" if lemma == "--" else lemma,
            pos="" if tag == "--" else tag,
            morph="_" if morph == "--" else morph,
        ))
        attach(parent_id, i, lineno)
    for nid in sorted(nodespecs):
        lineno, _label, parent_id = nodespecs[nid]
        attach(parent_id, nid, lineno)
    for nid, (lineno, _label, _parent_id) in nodespecs.items():
        if not children[nid]:
            raise FormatError(f"node #{nid} has no children", line=lineno, sent_id=sent_id)

    # parent links as a build_tree spec; a plain loop keeps one frame per level
    reached = set()

    def spec(nid):
        reached.add(nid)
        kids = []
        for c in children[nid]:
            kids.append(spec(c) if c in nodespecs else c)
        return (nodespecs[nid][1], kids)

    top_specs = [spec(ref) if ref in nodespecs else ref for ref in top]
    # every nonterminal has one parent, so one the top never reaches
    # sits on a cycle or below one
    if len(reached) < len(nodespecs):
        nid = min(set(nodespecs) - reached)
        raise FormatError(f"cycle in parent links involving #{nid}",
                          line=nodespecs[nid][0], sent_id=sent_id)
    if not top:
        raise FormatError("no top-level items", sent_id=sent_id)
    single = len(top) == 1 and top[0] in nodespecs
    return build_tree(tokens, top_specs[0] if single else (FALLBACK_ROOT, top_specs),
                      sent_id=sent_id)


def read_export(source, strict=False):
    """Read an export-format file into a list of ``ConstTree``."""
    trees = []
    with _open_read(source) as f:
        for sent_id, _bos, rows in _iter_export_blocks(f, strict):
            try:
                trees.append(_tree_from_export_block(sent_id, rows))
            except FormatError as exc:
                if strict:
                    raise
                logger.warning("skipping sentence %s: %s", sent_id, exc)
    return trees


def _check_field(value, what):
    if not value or any(ch.isspace() for ch in value):
        raise ValueError(f"cannot serialize {what} {value!r}")
    return value


def export_block(tree, sent_id) -> str:
    """Render one tree as a v4 export block (lemma column included);
    ``ValueError`` when the reader would refuse it for more than 500
    terminals or nonterminals, or read a form like ``#512`` or ``#EOS`` as
    a nonterminal id or a block marker."""
    if len(tree.tokens) > 500:
        raise ValueError("cannot serialize more than 500 terminals as export")
    root = tree.root
    strip_root = root.label == FALLBACK_ROOT and len(root.children) >= 2
    order = []

    def walk(nid):
        order.append(nid)
        for c in tree.children_sorted(tree.nodes[nid]):
            if c in tree.nodes:
                walk(c)

    if strip_root:
        top_items = tree.children_sorted(root)
        for c in top_items:
            if c in tree.nodes:
                walk(c)
    else:
        top_items = [tree.root_id]
        walk(tree.root_id)

    if len(order) > 500:
        raise ValueError("cannot serialize more than 500 nonterminals as export")
    new_id = {nid: 500 + k for k, nid in enumerate(order)}
    parent = {ref: 0 for ref in top_items}
    for nid in order:
        for c in tree.nodes[nid].children:
            parent[c] = new_id[nid]

    lines = [f"#BOS {sent_id}"]
    for tok in tree.tokens:
        if _NONTERM_RE.match(tok.form) or tok.form.startswith(("#BOS", "#EOS")):
            raise ValueError(f"cannot serialize form {tok.form!r} as export: "
                             "it reads as a nonterminal id or a block marker")
        lines.append("\t".join((
            _check_field(tok.form, "form"),
            tok.lemma if tok.lemma else "--",
            tok.pos if tok.pos else "--",
            tok.morph if tok.morph not in ("", "_") else "--",
            "--",
            str(parent[tok.index]),
        )))
    for nid in order:
        lines.append("\t".join((
            f"#{new_id[nid]}",
            "--",
            _check_field(tree.nodes[nid].label, "label"),
            "--",
            "--",
            str(parent[nid]),
        )))
    lines.append(f"#EOS {sent_id}")
    return "\n".join(lines) + "\n"


def write_export(trees, dest, header=None):
    # render first: a tree the writer refuses leaves no partial file
    blocks = [export_block(tree, tree.sent_id or str(k)) for k, tree in enumerate(trees, 1)]
    with _open_write(dest) as f:
        if header:
            f.write(f"%% {header}\n")
        f.writelines(blocks)


# ---------------------------------------------------------- discbracket

def _escape_form(form):
    return form.replace("(", "-LRB-").replace(")", "-RRB-")


def _unescape_form(form):
    return form.replace("-LRB-", "(").replace("-RRB-", ")")


def _parse_discbracket_line(line, lineno, sent_id):
    toks = _DISC_TOKEN_RE.findall(line)
    # open brackets as (label, kids) specs for build_tree
    stack = []
    result = None
    expect_label = False
    forms = {}
    pos = {}

    def close():
        phrase = stack.pop()
        label, kids = phrase
        if not kids:
            raise FormatError(f"empty bracket ({label})", line=lineno, sent_id=sent_id)
        # the innermost bracket over a single terminal is that terminal's
        # tag; brackets above an already-tagged terminal stay phrases
        if stack and len(kids) == 1 and isinstance(kids[0], int) and kids[0] not in pos:
            pos[kids[0]] = label
            stack[-1][1].append(kids[0])
        elif stack:
            stack[-1][1].append(phrase)
        else:
            return phrase
        return None

    for tok in toks:
        if tok == "(":
            if result is not None:
                raise FormatError("content after root bracket", line=lineno, sent_id=sent_id)
            expect_label = True
        elif expect_label:
            if tok == ")":
                raise FormatError("bracket without label", line=lineno, sent_id=sent_id)
            stack.append((_unescape_form(tok), []))
            if len(stack) > MAX_BRACKET_DEPTH:
                raise FormatError(f"brackets nested deeper than {MAX_BRACKET_DEPTH}",
                                  line=lineno, sent_id=sent_id)
            expect_label = False
        elif tok == ")":
            if not stack:
                raise FormatError("unbalanced closing bracket", line=lineno, sent_id=sent_id)
            finished = close()
            if finished is not None:
                result = finished
        else:
            if not stack:
                raise FormatError("terminal outside brackets", line=lineno, sent_id=sent_id)
            match = _TERMINAL_RE.match(tok)
            if not match:
                raise FormatError(f"terminal {tok!r} lacks an index", line=lineno, sent_id=sent_id)
            idx = int(match.group(1))
            form = _unescape_form(match.group(2))
            if not form:
                raise FormatError(f"terminal {idx} has an empty form", line=lineno, sent_id=sent_id)
            if idx in forms:
                raise FormatError(f"duplicate terminal index {idx}", line=lineno, sent_id=sent_id)
            forms[idx] = form
            stack[-1][1].append(idx)

    if stack or result is None:
        raise FormatError("unbalanced brackets", line=lineno, sent_id=sent_id)
    if not forms:
        raise FormatError("tree has no terminals", line=lineno, sent_id=sent_id)
    n = max(forms) + 1
    missing = [i for i in range(n) if i not in forms]
    if missing:
        raise FormatError(f"missing terminal index {missing[0]}", line=lineno, sent_id=sent_id)

    tokens = [Token(index=i, form=forms[i], pos=pos.get(i, "")) for i in range(n)]
    return build_tree(tokens, result, sent_id=sent_id)


def read_discbracket(source, strict=False):
    """Read a discbracket file (one tree per line) into ``ConstTree`` objects."""
    trees = []
    with _open_read(source) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("%%"):
                continue
            sent_id = str(len(trees) + 1)
            try:
                trees.append(_parse_discbracket_line(line, lineno, sent_id))
            except FormatError as exc:
                if strict:
                    raise
                logger.warning("skipping line %d: %s", lineno, exc)
    return trees


def discbracket_line(tree) -> str:
    """Render one tree as a discbracket line; ``ValueError`` when the
    reader would refuse it for nesting deeper than ``MAX_BRACKET_DEPTH``,
    or read a phrase over one untagged terminal back as that terminal's tag."""
    def untagged(ident):
        return ident not in tree.nodes and tree.tokens[ident].pos in ("", "--")

    def render(ident, depth):
        # ``depth`` counts this item's bracket as the reader counts open
        # brackets, tag brackets included; checked before recursing deeper
        if depth > MAX_BRACKET_DEPTH and not untagged(ident):
            raise ValueError(f"cannot serialize brackets nested deeper than {MAX_BRACKET_DEPTH}")
        if ident not in tree.nodes:
            tok = tree.tokens[ident]
            term = f"{ident}={_escape_form(_check_field(tok.form, 'form'))}"
            if untagged(ident):
                return term
            return f"({_escape_form(_check_field(tok.pos, 'tag'))} {term})"
        node = tree.nodes[ident]
        if len(node.children) == 1 and untagged(node.children[0]):
            raise ValueError(f"cannot serialize phrase {node.label!r} over the untagged "
                             f"terminal {node.children[0]}")
        inner = " ".join(render(c, depth + 1) for c in tree.children_sorted(node))
        return f"({_escape_form(_check_field(node.label, 'label'))} {inner})"

    return render(tree.root_id, 1)


def write_discbracket(trees, dest, header=None):
    # render first: a tree the writer refuses leaves no partial file
    lines = [discbracket_line(tree) + "\n" for tree in trees]
    with _open_write(dest) as f:
        if header:
            f.write(f"%% {header}\n")
        f.writelines(lines)


# -------------------------------------------------------------- CoNLL-X

def _dep_sentence_from_rows(rows, sent_id):
    tokens = []
    heads = []
    deprels = []
    for k, (lineno, line) in enumerate(rows):
        cols = line.split("\t")
        if len(cols) < 8:
            cols = line.split()
        if len(cols) < 8:
            raise FormatError("expected at least 8 columns", line=lineno, sent_id=sent_id)
        idv, form, lemma, cpos, pos, feats, head, deprel = cols[:8]
        try:
            token_id = int(idv)
        except ValueError:
            raise FormatError(f"non-integer token id {idv!r}",
                              line=lineno, sent_id=sent_id) from None
        if token_id != k + 1:
            raise FormatError(f"unexpected token id {idv!r}", line=lineno, sent_id=sent_id)
        try:
            heads.append(int(head))
        except ValueError:
            raise FormatError(f"non-integer head {head!r}",
                              line=lineno, sent_id=sent_id) from None
        tokens.append(Token(
            index=k,
            form=form,
            lemma="" if lemma == "_" else lemma,
            pos=pos,
            morph=feats,
            cpos=cpos,
        ))
        deprels.append(deprel)
    return DepSentence(tokens, heads, deprels, sent_id=sent_id).validate()


def read_conll(source, strict=False):
    """Read a CoNLL-X file into a list of ``DepSentence``."""
    sentences = []
    rows = []
    with _open_read(source) as f:
        def flush():
            if not rows:
                return
            sent_id = str(len(sentences) + 1)
            try:
                sentences.append(_dep_sentence_from_rows(rows, sent_id))
            except FormatError as exc:
                if strict:
                    raise
                logger.warning("skipping sentence %s: %s", sent_id, exc)
            rows.clear()

        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
            elif line.startswith("#"):
                continue
            else:
                rows.append((lineno, line))
        flush()
    return sentences


def write_conll(sentences, dest, header=None):
    with _open_write(dest) as f:
        if header:
            f.write(f"# {header}\n")
        for sent in sentences:
            for k, tok in enumerate(sent.tokens):
                f.write("\t".join((
                    str(k + 1),
                    tok.form,
                    tok.lemma if tok.lemma else "_",
                    tok.cpos if tok.cpos else (tok.pos or "_"),
                    tok.pos if tok.pos else "_",
                    tok.morph if tok.morph else "_",
                    str(sent.heads[k]),
                    sent.deprels[k] if sent.deprels[k] else "_",
                    "_",
                    "_",
                )) + "\n")
            f.write("\n")


# ---------------------------------------------------------------- align

def align(trees, dep_sentences) -> list:
    """Pair the constituent and dependency views sentence by sentence into
    a list of (tree, dep) pairs.

    Both corpora must have the same sentence count and identical token
    forms; any divergence raises ``AlignmentError`` naming the spot.
    """
    if len(trees) != len(dep_sentences):
        raise AlignmentError(
            f"sentence count mismatch: {len(trees)} constituent vs "
            f"{len(dep_sentences)} dependency")
    pairs = []
    for i, (tree, dep) in enumerate(zip(trees, dep_sentences)):
        if len(tree.tokens) != len(dep.tokens):
            raise AlignmentError(
                f"token count mismatch at sentence {i}: "
                f"{len(tree.tokens)} vs {len(dep.tokens)}")
        for j, (a, b) in enumerate(zip(tree.tokens, dep.tokens)):
            if a.form != b.form:
                raise AlignmentError(
                    f"form mismatch at sentence {i}, token {j}: "
                    f"{a.form!r} vs {b.form!r}")
        pairs.append((tree, dep))
    return pairs
