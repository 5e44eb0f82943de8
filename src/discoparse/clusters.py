"""Brown-cluster lexicons: word form -> binary path string, plus prefix
truncation for coarser cluster granularities."""

import logging
from dataclasses import dataclass, field

from .treebank import data_lines

logger = logging.getLogger(__name__)

UNK = "*UNK*"

# cluster kinds the feature layer may enable
FULL = "full"
SIX_BIT = "6bit"
FOUR_BIT = "4bit"


def prefix(path, bits):
    """First ``bits`` characters of a cluster path; the unknown sentinel
    passes through unchanged."""
    if bits < 1:
        raise ValueError(f"prefix bits must be >= 1, got {bits}")
    if path == UNK:
        return UNK
    return path[:bits]


@dataclass
class ClusterLexicon:
    """Immutable after load; lookups are total (misses give ``UNK``)."""

    paths: dict = field(default_factory=dict)

    def lookup(self, form) -> str:
        return self.paths.get(form, UNK)

    def __len__(self):
        return len(self.paths)


def _valid_path(path):
    return bool(path) and not set(path) - {"0", "1"}


def load_clusters(source, strict=False) -> ClusterLexicon:
    """Read "path<TAB>word[<TAB>count]" lines.

    Malformed lines (missing tab, bad path, bad count) are logged and
    skipped, or raised in strict mode.  Duplicate words keep the first
    occurrence.
    """
    paths = {}
    skipped = 0
    for lineno, line in data_lines(source):
        fields = line.split("\t")
        problem = None
        if len(fields) < 2:
            problem = "missing tab"
        elif not _valid_path(fields[0]):
            problem = f"path {fields[0]!r} not a non-empty 0/1 string"
        elif len(fields) >= 3:
            try:
                int(fields[2])
            except ValueError:
                problem = f"count {fields[2]!r} not an integer"
        if problem is not None:
            if strict:
                raise ValueError(f"cluster file line {lineno}: {problem}")
            skipped += 1
            if skipped <= 10:
                logger.warning("cluster file line %d: %s (skipped)", lineno, problem)
            continue
        word = fields[1]
        if word in paths:
            logger.warning("cluster file line %d: duplicate word %r (keeping first)",
                           lineno, word)
            continue
        paths[word] = fields[0]
    if skipped > 10:
        logger.warning("cluster file: %d malformed lines skipped in total", skipped)
    return ClusterLexicon(paths)
