"""Layer tracing from outside the program.

Tracer.install() rebinds each traced function, in every qcartan module
that holds it, to a wrapper that records a span (name, parent span,
duration, self time) or, for the hottest leaf functions, only counts.
Spans are aggregated in memory by name and by (parent, name) edge;
Tracer.uninstall() restores every original binding.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

SUITES = (
    "d2", "leibniz", "confluence", "d-expansion", "omega", "t-real",
    "cartan-tables", "l-real", "hopf-A", "hopf-U", "dual-relations",
    "dual-hopf", "identification",
)

# (module, function) wrapped as spans; the span name is "module.function"
SPANS = (
    ("relations", "builtin_presentation"),
    ("words", "make_word"),
    ("normalizer", "normalize"),
    ("normalizer", "_normal_form"),
    ("normalizer", "multiply"),
    ("calculus", "exterior_d"),
    ("calculus", "act"),
    ("cartan", "verify_table"),
    ("cartan", "lie_apply"),
    ("hopf", "coproduct"),
    ("hopf", "tensor_mul"),
    ("duality", "pair"),
    ("duality", "_pair_letters"),
    ("parser", "parse_element"),
)


def _modules():
    return [m for name, m in sys.modules.items()
            if name == "qcartan" or name.startswith("qcartan.")]


def _lookup(module, name):
    """The function to trace, or None (with a warning) if the program no
    longer has it; the metrics it feeds then read 0."""
    fn = getattr(module, name, None)
    if fn is None:
        print(f"trace: {module.__name__}.{name} not found; its metrics "
              "read 0", file=sys.stderr)
    return fn


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child time]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._restore: list = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, calls, total, self_time, edges = (
            self.stack, self.calls, self.total, self.self_time, self.edges)

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            edges[(stack[-1][0] if stack else None, span)] += 1
            frame = [span, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = perf_counter() - frame[1]
                calls[span] += 1
                total[span] += elapsed
                self_time[span] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _rebind(self, original, replacement):
        """Point every module-level name bound to original at replacement."""
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _rebind_method(self, cls, attrs, replacement):
        for attr in attrs:
            self._restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, replacement)

    # -- per-layer observations ----------------------------------------

    def _after_make_word(self, args, word):
        if word is None:
            self.counts["make_word.zero"] += 1

    def _after_normal_form(self, args, nf):
        self.maxima["normalizer.terms"] = max(self.maxima["normalizer.terms"],
                                              len(nf))

    def _after_multiply(self, args, product):
        if self.stack and self.stack[-1][0] == "calculus.act":
            self.counts["act.product_terms"] += len(product)

    def _after_act(self, args, kept):
        self.counts["act.kept_terms"] += len(kept)

    def install(self):
        from qcartan import cli, normalizer, relations, scalars

        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        after = {
            "make_word": self._after_make_word,
            "normalize": self._after_normal_form,
            "_normal_form": self._after_normal_form,
            "multiply": self._after_multiply,
            "act": self._after_act,
        }
        for module, fn in SPANS:
            original = _lookup(modules[module], fn)
            if original is not None:
                self._rebind(original, self._span(
                    f"{module}.{fn}", original, after.get(fn)))

        counts = self.counts
        # normal-form requests answered from the cache: checked on entry
        normal_form = _lookup(normalizer, "_normal_form")

        def cached_normal_form(word, table, cache, pick, rng):
            counts["normal_form.requests"] += 1
            if word in cache:
                counts["normal_form.hits"] += 1
            return normal_form(word, table, cache, pick, rng)

        if normal_form is not None:
            self._rebind(normal_form, cached_normal_form)

        run_suite = cli.run_suite
        self._rebind(run_suite, self._span(
            lambda args: f"cli.run_suite.{args[0]}", run_suite))

        rewrite_at = _lookup(normalizer, "_rewrite_at")

        def counted_rewrite_at(factors, i, table):
            counts["rewrite_steps"] += 1
            return rewrite_at(factors, i, table)

        if rewrite_at is not None:
            self._rebind(rewrite_at, counted_rewrite_at)

        rewrite = relations.RelationTable.rewrite

        def counted_rewrite(table, left, right):
            counts["rewrite.calls"] += 1
            return rewrite(table, left, right)

        self._rebind_method(relations.RelationTable, ("rewrite",),
                            counted_rewrite)

        QScalar = scalars.QScalar
        mul, add = QScalar.__mul__, QScalar.__add__
        maxima = self.maxima

        def note_terms(out):
            if isinstance(out, QScalar) and out:
                terms = 1 if out.is_monomial() else len(out.terms())
                if terms > maxima["scalar"]:
                    maxima["scalar"] = terms

        def counted_mul(a, b):
            counts["mul.calls"] += 1
            if isinstance(b, QScalar) and a.is_monomial() and b.is_monomial():
                counts["mul.monomial"] += 1
            out = mul(a, b)
            note_terms(out)
            return out

        def counted_add(a, b):
            counts["add.calls"] += 1
            out = add(a, b)
            note_terms(out)
            return out

        self._rebind_method(QScalar, ("__mul__", "__rmul__"), counted_mul)
        self._rebind_method(QScalar, ("__add__", "__radd__"), counted_add)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- metrics -------------------------------------------------------

    def metrics(self, table) -> dict:
        """The per-layer metrics: {name: (value, unit)}."""
        c, calls, self_time, total = (
            self.counts, self.calls, self.self_time, self.total)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"cli.run_suite.{s}.s": (total[f"cli.run_suite.{s}"], "s")
               for s in SUITES}
        out.update({
            "relations.builtin_presentation.s":
                (total["relations.builtin_presentation"], "s"),
            "relations.rewrite.calls": (c["rewrite.calls"], "count"),
            "relations.cache_entries":
                (len(table.normal_form_cache("leftmost")), "count"),
            "scalars.mul.calls": (c["mul.calls"], "count"),
            "scalars.add.calls": (c["add.calls"], "count"),
            "scalars.mul.monomial_share":
                (ratio(c["mul.monomial"], c["mul.calls"]), "ratio"),
            "scalars.max_terms": (self.maxima["scalar"], "count"),
            "words.make_word.calls": (calls["words.make_word"], "count"),
            "words.make_word.self_s": (self_time["words.make_word"], "s"),
            "words.make_word.zero_share":
                (ratio(c["make_word.zero"], calls["words.make_word"]), "ratio"),
            "normalizer.normalize.calls":
                (calls["normalizer.normalize"], "count"),
            "normalizer.normal_form.calls":
                (c["normal_form.requests"], "count"),
            # the layer's own time: normalize plus the reduction it runs,
            # which the confluence sweep also calls directly
            "normalizer.normalize.self_s":
                (self_time["normalizer.normalize"]
                 + self_time["normalizer._normal_form"], "s"),
            "normalizer.rewrite_steps": (c["rewrite_steps"], "count"),
            "normalizer.cache_hit_ratio":
                (ratio(c["normal_form.hits"], c["normal_form.requests"]),
                 "ratio"),
            "normalizer.max_terms": (self.maxima["normalizer.terms"], "count"),
        })
        for span in ("calculus.exterior_d", "calculus.act", "cartan.lie_apply",
                     "hopf.coproduct", "hopf.tensor_mul", "duality.pair"):
            out[f"{span}.calls"] = (calls[span], "count")
            out[f"{span}.self_s"] = (self_time[span], "s")
        out.update({
            "calculus.act.kept_ratio":
                (ratio(c["act.kept_terms"], c["act.product_terms"]), "ratio"),
            "cartan.verify_table.s": (total["cartan.verify_table"], "s"),
            "duality.pair_letters.calls":
                (calls["duality._pair_letters"], "count"),
            "duality.coproduct_in_pair.calls":
                (self.edges[("duality._pair_letters", "hopf.coproduct")],
                 "count"),
            "parser.parse_element.calls":
                (calls["parser.parse_element"], "count"),
            "parser.parse_element.s": (total["parser.parse_element"], "s"),
        })
        return out
