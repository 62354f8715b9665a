"""The benchmark under perfbench/ times the package by wrapping its
functions by name from outside. A rename in src/ must fail here rather
than only print "not found, not traced" and zero the per-layer metrics."""

import importlib
import os

import brainformer
import brainformer.cli  # noqa: F401  (the tracer wraps cli.main too)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer").Tracer(brainformer, full=True)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
