"""The benchmark's layer tracer (bench/spans.py) still sees the rewrite
kernel: a refactor that renames or bypasses the traced functions would
silently zero the per-layer counts."""

import types
from pathlib import Path

from qcartan import normalizer
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
