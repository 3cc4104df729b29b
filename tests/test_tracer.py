"""The benchmark's layer tracer (bench/spans.py) still sees the rewrite
kernel, every traced function and every check suite: a refactor that
renames or bypasses a traced function would silently zero the per-layer
counts."""

import importlib
import types
from pathlib import Path

from qcartan import cli, normalizer, parser, relations
from qcartan.normalizer import check_local_confluence, normalize
from qcartan.parser import parse_element
from qcartan.relations import RelationTable, builtin_presentation

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py as a module, compiled in memory so that nothing is
    written under bench/."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def test_tracer_counts_rewrite_steps_and_normal_form_requests():
    originals = normalizer._normal_form, normalizer._rewrite_at
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        table = RelationTable(builtin_presentation().rules)
        assert check_local_confluence(table, 3).passed
        normalize(parse_element("y*x*dz"), table)
    finally:
        tracer.uninstall()
    assert tracer.counts["rewrite_steps"] > 0
    assert tracer.counts["normal_form.requests"] > 0
    assert (normalizer._normal_form, normalizer._rewrite_at) == originals


def test_every_traced_function_resolves_and_every_suite_is_timed(capsys):
    spans = _load_spans()
    for module, name in spans.SPANS:
        assert callable(getattr(importlib.import_module(f"qcartan.{module}"),
                                name, None)), (module, name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # called through their modules, whose bindings the tracer wraps
        table = RelationTable(relations.builtin_presentation().rules)
        parser.parse_element("y*x")
        for suite in spans.SUITES:
            cli.run_suite(suite, 1, (1,), table)
    finally:
        tracer.uninstall()
    assert "not found" not in capsys.readouterr().err
    assert {f"{m}.{n}" for m, n in spans.SPANS} <= set(tracer.calls)
    assert spans.SUITES == cli.SUITES[:-1]
    for suite in spans.SUITES:
        assert tracer.calls[f"cli.run_suite.{suite}"] == 1, suite
        assert tracer.total[f"cli.run_suite.{suite}"] > 0, suite
