"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each public entry point the workloads reach
with a timing wrapper, under the name the calling module imported it by
(`experiments.factorize`, `bounds.decompose`, ...), so smoothdigits itself
is unchanged.  Spans nest: a layer's self time is its span minus the spans
opened inside it.  Streams and generators get one span per `next()`.
"""

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self._open = [0.0]  # child time of each open span; [0] is the root
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.partial = 0
        self.partial_s = 0.0

    def _close(self, layer, start, count):
        took = perf_counter() - start
        children = self._open.pop()
        self._open[-1] += took
        self.calls[layer] += count
        self.self_s[layer] += took - children
        return took

    def wrap(self, fn, layer, count=True, after=None):
        def span(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = self._close(layer, start, count)
            if after:
                after(result, took)
            return result
        return span

    def _factorized(self, result, took):
        if result.cofactor != 1:
            self.partial += 1
            self.partial_s += took

    def wrap_stream(self, fn, layer):
        """For a function returning an iterator: each next() is a span."""
        def make(*args, **kwargs):
            return _TimedIter(self, layer, fn(*args, **kwargs))
        return make

    def install(self):
        from smoothdigits import _fastfactor, bounds, cli, experiments, factor, sequences

        def patch(module, name, wrapper):
            setattr(module, name, wrapper(getattr(module, name)))

        for module in (experiments, cli):
            patch(module, "factorize",
                  lambda f: self.wrap(f, "factor.factorize", after=self._factorized))
        for module in (factor, bounds):
            patch(module, "is_prime", lambda f: self.wrap(f, "factor.is_prime"))
        patch(_fastfactor, "factor_small", lambda f: self.wrap(f, "fastfactor.factor_small"))
        for module in (experiments, bounds):
            patch(module, "lemma31_trace", lambda f: self.wrap(f, "bounds.trace"))
            patch(module, "decompose", lambda f: self.wrap(f, "digits.decompose"))
        for name in ("thm11_threshold", "cor15_threshold", "thm13_threshold"):
            patch(experiments, name, lambda f: self.wrap(f, "bounds.thresholds"))
        for module in (experiments, sequences, cli):
            patch(module, "nz_count", lambda f: self.wrap(f, "digits.nz_count"))
        for name in ("sparse_sequence", "sparse_sequence_f", "smooth_sequence"):
            patch(experiments, name, lambda f: self.wrap_stream(f, "sequences"))
        # cli reaches experiments through `xmod.<name>` at call time.
        for name in ("sparse_survey", "stewart_survey"):
            patch(experiments, name, lambda f: self.wrap_stream(f, "experiments"))
        for name in ("smooth_sparse_search", "window_minima"):
            patch(experiments, name, lambda f: self.wrap(f, "experiments"))
        for name in ("survey_record_dict", "stewart_row_dict", "search_hit_dict"):
            patch(experiments, name, lambda f: self.wrap(f, "cli.write", count=False))
        patch(cli.RecordWriter, "write", lambda f: self.wrap(f, "cli.write"))

    def totals(self):
        out = {}
        for layer in ("factor.factorize", "factor.is_prime", "fastfactor.factor_small",
                      "bounds.trace", "bounds.thresholds", "digits.decompose",
                      "digits.nz_count", "cli.write"):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.self_s[layer]
        out["factor.factorize.partial"] = self.partial
        out["factor.factorize.partial_s"] = self.partial_s
        out["sequences.terms"] = self.calls["sequences"]
        out["sequences.s"] = self.self_s["sequences"]
        out["experiments.self_s"] = self.self_s["experiments"]
        return out


class _TimedIter:
    def __init__(self, tracer, layer, it):
        self._tracer = tracer
        self._layer = layer
        self._it = iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer._open.append(0.0)
        start = perf_counter()
        produced = False
        try:
            item = next(self._it)
            produced = True
            return item
        finally:
            tracer._close(self._layer, start, produced)
