"""``scripts/bitcheck.py`` digests training and parsing on fixed seeds;
its combined digest must not move unless behaviour is meant to change."""

import importlib.util
from pathlib import Path

BITCHECK = Path(__file__).resolve().parents[1] / "scripts" / "bitcheck.py"
ALL = "2d8317f7ed9d228f4b88a218b2cf9401b7354e1e4a9d5aa2b01e4ec86616deb7"


def test_bitcheck_digests_are_unchanged(capsys):
    spec = importlib.util.spec_from_file_location("bitcheck", BITCHECK)
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    bitcheck.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[0] == "all"
    assert lines[-1].split()[-1] == ALL, (
        "trained weights or parses changed on fixed seeds:\n" + "\n".join(lines)
        + "\nIf the change in behaviour is intended, update ALL here and record "
        "the new digests in CHANGES.md.")
