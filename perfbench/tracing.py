"""Spans around openbook's public functions, installed from outside.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper in every loaded ``openbook`` module that imported the function
by name, so calls between modules are seen too.  FreeAutomorphism
construction is traced through its validating ``__post_init__``.

A span's self time is its duration minus the durations of the traced
spans it directly encloses.  Spans are kept in memory as tuples
``(id, parent id, name, start, end)`` and written out on request.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = (
    ("freegroup", "compose"),
    ("homology", "invert_linear"),
    ("homology", "matrix_rank"),
    ("homology", "twist_data"),
    ("homology", "compose_linear"),
    ("homology", "smith_normal_form"),
    ("mcg", "evaluate"),
    ("mcg", "equal_classes"),
    ("mcg", "apply_relation"),
    ("mcg", "applicable_moves"),
    ("surface", "load_builtin"),
    ("surface", "validate_catalog"),
    ("surface", "stabilize"),
    ("surgery", "surgery"),
    ("kirby", "h1_of_link"),
    ("kirby", "blow_down"),
    ("factorsearch", "search_positive"),
    ("cli", "main"),
)
AUT_NEW = "freegroup.aut_new"
SPAN_NAMES = (AUT_NEW,) + tuple(f"{m}.{f}" for m, f in TRACED)
# spans whose call count is not reported: it is fixed by the workload's shape
SELF_ONLY = ("surface.load_builtin", "surface.validate_catalog",
             "factorsearch.search_positive", "cli.main")


class Tracer:
    """Per-span call counts and self times, plus the counts read off
    results: letters in compose's images, certificate nodes."""

    def __init__(self):
        self.spans = []
        self.reset_counts()
        # [child time, span id] per open span; the bottom one stands for the caller
        self._stack = [[0.0, 0]]
        self.record = True
        self._restore = []
        self._next_id = 0

    def reset_counts(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.image_letters = 0
        self.search_nodes = 0
        self.search_s = 0.0

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if tracer.record:
                    spans.append((span_id, parent[1], name, start, end))
            if after is not None:
                after(result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_images(self, result, _duration):
        self.image_letters += sum(len(w) for w in result.images)

    def _count_nodes(self, result, duration):
        if result.certificate is not None:
            self.search_nodes += result.certificate.nodes
            self.search_s += duration

    def install(self):
        for mod_name, _ in TRACED:
            importlib.import_module(f"openbook.{mod_name}")
        from openbook.freegroup import FreeAutomorphism

        after = {"freegroup.compose": self._count_images,
                 "factorsearch.search_positive": self._count_nodes}
        modules = [m for k, m in sys.modules.items() if k == "openbook" or k.startswith("openbook.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"openbook.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        original_init = FreeAutomorphism.__post_init__
        FreeAutomorphism.__post_init__ = self._wrap(AUT_NEW, original_init)
        self._restore.append((FreeAutomorphism, "__post_init__", original_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "image_letters": self.image_letters,
            "search_nodes": self.search_nodes,
            "search_s": self.search_s,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
