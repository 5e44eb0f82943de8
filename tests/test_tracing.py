"""The per-layer tracer of ``perfbench/tracing.py`` wraps engine, learner
and feature functions by name; a rename must fail here rather than leave
a layer silently absent from the traced benchmark."""

import importlib.util
from pathlib import Path

from discoparse import engine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    parse_tokens, apply_action = engine.EasyFirstParser.parse_tokens, engine.apply_action
    tracer = tracing.Tracer().install()
    try:
        assert tracer.absent == []
        assert engine.EasyFirstParser.parse_tokens is not parse_tokens
        assert engine.apply_action is not apply_action
    finally:
        tracer.uninstall()
    assert engine.EasyFirstParser.parse_tokens is parse_tokens
    assert engine.apply_action is apply_action
