"""Run one sorklie CLI command with a span recorded at each call into a
layer's public functions.

Usage: python traced_cli.py FD CLI-ARGS...

Stdout, stderr and exit code are those of ``python -m sorklie.cli CLI-ARGS``.
When the command ends, one JSON object goes to the inherited file
descriptor FD: the import time of ``sorklie.cli``, the spans as
``[id, parent id, name, start, end]`` and the per-layer counters.

Spans are taken around module-level functions by replacing them in every
sorklie module that holds them, so calls inside the package are seen too.
Probe calls of ``max_clique_size`` (with ``stop_at``) made by the lex-min
extraction are counted but get no span, so their time stays in the
extraction's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

clock = time.perf_counter

# (module, function, span name)
TARGETS = (
    ("roots", "build_root_system", "roots.build"),
    ("sork", "strong_orthogonality_graph", "sork.graph"),
    ("sork", "max_clique_size", "sork.clique"),
    ("sork", "lex_min_max_clique", "sork.lexmin"),
    ("sork", "verify_certificate", "sork.verify"),
    ("realforms", "nu_simple", "realforms.nu_simple"),
    ("groups", "parse_group_expr", "groups.parse"),
    ("groups", "nu_eval", "groups.eval"),
    ("groups", "nu_upper_bound", "groups.eval"),
    ("tables", "table1_audit", "tables.audit"),
    ("tables", "table2_audit", "tables.audit"),
    ("tables", "table3_audit", "tables.audit"),
    ("matrixcheck", "random_bracket_split_trials", "matrixcheck.random"),
    ("matrixcheck", "symbolic_bracket_split_2x2", "matrixcheck.symbolic"),
    ("matrixcheck", "trivial_intersection_check", "matrixcheck.intersection"),
)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen_types: set[str] = set()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after`` receives the
        call's arguments and result once the span is closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None,
                    name, clock(), None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # Counters, taken outside the spans they describe.

    def _built(self, fn):
        info = getattr(fn, "cache_info", None)  # absent if the cache goes
        last = [info().misses if info else 0]

        def after(args, kwargs, phi):
            self.counts["roots.build_calls"] += 1
            misses = info().misses if info else last[0] + 1
            if misses != last[0]:
                self.counts["roots.roots_built"] += len(phi.roots)
            last[0] = misses
        return after

    def _graph(self, args, kwargs, result):
        reps, neigh = result
        self.counts["sork.graph_vertices"] += len(reps)
        self.counts["sork.graph_edges"] += sum(bin(m).count("1") for m in neigh) // 2

    def _nu_simple(self, args, kwargs, result):
        self.counts["realforms.nu_simple_calls"] += 1
        key = str(self.modules["realforms"].complexification_type(args[0]))
        if key in self.seen_types:
            self.counts["realforms.nu_simple_reused"] += 1
        self.seen_types.add(key)

    def _parsed(self, args, kwargs, expr):
        self.counts["groups.exprs"] += 1
        self.counts["groups.factors"] += len(self.modules["groups"].simple_factors(expr))

    def _rows(self, args, kwargs, report):
        self.counts["tables.rows"] += len(report.entries)

    def _verified(self, args, kwargs, check):
        self.counts["sork.verify_calls"] += 1

    def _clique(self, fn):
        spanned = self.span("sork.clique", fn)

        @functools.wraps(fn)
        def clique(*args, **kwargs):
            if len(args) > 2 or kwargs.get("stop_at") is not None:
                self.counts["sork.extract_probes"] += 1
                return fn(*args, **kwargs)
            return spanned(*args, **kwargs)
        return clique

    def install(self) -> None:
        hooks = {"sork.graph": self._graph, "sork.verify": self._verified,
                 "realforms.nu_simple": self._nu_simple,
                 "groups.parse": self._parsed, "tables.audit": self._rows}
        wrapped = {}
        for mod, fname, name in TARGETS:
            fn = getattr(self.modules[mod], fname, None)
            if fn is None:  # a later version may drop the function
                continue
            if name == "sork.clique":
                wrapped[fn] = self._clique(fn)
            elif name == "roots.build":
                wrapped[fn] = self.span(name, fn, self._built(fn))
            else:
                wrapped[fn] = self.span(name, fn, hooks.get(name))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def main() -> None:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = clock()
    cli = importlib.import_module("sorklie.cli")
    import_s = clock() - start
    names = ("roots", "sork", "realforms", "groups", "tables", "matrixcheck", "cli")
    tracer = Tracer({n: importlib.import_module(f"sorklie.{n}") for n in names})
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
