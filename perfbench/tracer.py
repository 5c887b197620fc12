"""Per-layer tracing from outside the program.

Tracer.install() wraps every function and method that a layer module of
qexpmap defines, and rebinds each wrapper in every qexpmap module namespace
(and module-level dict) that held the original, so calls made through
`from .x import f` are caught too.  Nothing under src/ is edited;
uninstall() puts every original back.

A wrapper always counts its call.  It opens a span (name, start, end,
parent) only when the call enters a layer from a different layer, or when
the function is one whose inclusive time is a metric (TIMED), so calls
inside one layer stay cheap.  Spans live in flat arrays in memory and are
written out by write_spans() at the end.  A layer's self time is its spans'
duration minus the duration of their direct child spans; time spent in the
standard library (fractions, json) has no span of its own and so counts
against the layer that called it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

LAYERS = ("scalars", "rewrite", "parser", "matrices", "algebra_a",
          "algebra_u", "expmap", "reporting", "suites", "confluence",
          "render", "cli")
HARNESS = -1


def _two_j(j) -> int:
    return int(2 * Fraction(j))


def _suite_span(name: str) -> str:
    return "run_suite" if name in ("all", "confluence", "specialize") \
        else f"suite={name}"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# qualified name -> span name from the call's arguments; these functions
# always get a span, so their inclusive time can be reported
TIMED = {
    "expmap:t_matrix_closed":
        lambda a, k: f"t_closed_2j{_two_j(_arg(a, k, 0, 'j'))}",
    "expmap:t_matrix_factorized":
        lambda a, k: f"t_factorized_2j{_two_j(_arg(a, k, 0, 'j'))}",
    "expmap:l_matrix":
        lambda a, k: f"l_matrix_2j{_two_j(_arg(a, k, 1, 'j'))}",
    "expmap:r_matrix_rep":
        lambda a, k: "r_matrix_2j%d" % max(_two_j(_arg(a, k, 0, 'j1')),
                                           _two_j(_arg(a, k, 2, 'j2'))),
    "expmap:rll_identities":
        lambda a, k: f"rll_2j{_two_j(_arg(a, k, 0, 'j'))}",
    "expmap:comodule_identities":
        lambda a, k: f"comodule_2j{_two_j(_arg(a, k, 0, 'j'))}",
    "matrices:Matrix.inverse": lambda a, k: "inverse",
    "algebra_a:coproduct": lambda a, k: "coproduct",
    "algebra_u:u_coproduct": lambda a, k: "u_coproduct",
    "algebra_u:pi_apply": lambda a, k: "pi_apply",
    "algebra_u:u_rep_apply": lambda a, k: "rep_apply",
    "reporting:Identity.holds_exactly": lambda a, k: "holds_exactly",
    "reporting:Identity.numeric_close": lambda a, k: "numeric_close",
    "confluence:confluence_check": lambda a, k: "check",
    # run_suite("confluence") and ("specialize") delegate to the two below,
    # and "all" runs every suite, so only identity suites are named here
    "suites:run_suite": lambda a, k: _suite_span(_arg(a, k, 0, "name")),
    "suites:_run_confluence": lambda a, k: "suite=confluence",
    "suites:_run_specialize": lambda a, k: "suite=specialize",
}


def _matrix_terms(m) -> int:
    """Terms in a matrix: NCPoly entries count their terms, nonzero scalar
    entries one each.  Reads attributes only, so no traced code runs."""
    total = 0
    for row in m.rows:
        for x in row:
            if type(x).__name__ == "NCPoly":
                total += len(x.terms)
            else:
                terms = getattr(getattr(x, "num", x), "terms", None)
                total += bool(terms) if terms is not None else x != 0
    return total


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)    # "layer:qualname" -> calls
        self.extra = defaultdict(int)    # probe counters
        self.span_names = []             # name id -> "layer:name"
        self._name_ids = {}
        self.name_layer = array("i")     # name id -> layer index
        self.names = array("i")          # per span
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._layer_stack = [HARNESS]
        self._span_stack = [-1]
        self._undo = []

    # -- spans

    def name_id(self, name: str, layer: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.name_layer.append(layer)
        return nid

    def self_times(self) -> dict:
        """Layer name -> seconds of self time."""
        per_span = span_self_times(self.parents, self.starts, self.ends)
        out = defaultdict(float)
        for nid, t in zip(self.names, per_span):
            out[LAYERS[self.name_layer[nid]]] += t
        return dict(out)

    def inclusive_times(self) -> dict:
        """Span name -> summed duration of all spans of that name."""
        out = defaultdict(float)
        for nid, s, e in zip(self.names, self.starts, self.ends):
            out[self.span_names[nid]] += e - s
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON header line, then the names, parents, starts and ends
        arrays in machine byte order."""
        header = {"count": len(self.names), "names": self.span_names,
                  "layers": [LAYERS[i] for i in self.name_layer],
                  "arrays": ["names:i", "parents:i", "starts:d", "ends:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    # -- wrapping

    def _wrap(self, fn, layer: int, qual: str):
        key = f"{LAYERS[layer]}:{qual}"
        calls = self.calls
        layers, spans = self._layer_stack, self._span_stack
        names, parents = self.names, self.parents
        starts, ends = self.starts, self.ends
        clock = time.perf_counter
        default_nid = self.name_id(key, layer)
        timed = TIMED.get(key)
        probe = self._probe(key)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if timed is None and layers[-1] == layer:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(args, kwargs, result, False)
                return result
            nid = default_nid if timed is None else tracer.name_id(
                f"{LAYERS[layer]}:{timed(args, kwargs)}", layer)
            idx = len(starts)
            names.append(nid)
            parents.append(spans[-1])
            starts.append(clock())
            ends.append(0.0)
            layers.append(layer)
            spans.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                layers.pop()
                spans.pop()
            if probe is not None:
                probe(args, kwargs, result, True)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe(self, key: str):
        """Extra counters that need a call's arguments or result."""
        extra = self.extra
        if key == "scalars:HalfLaurent.divexact":
            def probe(args, kwargs, result, entered):
                extra["divexact_hits"] += result is not None
        elif key == "rewrite:normal_order_terms":
            def probe(args, kwargs, result, entered):
                extra["raw_terms_in"] += len(_arg(args, kwargs, 1, "terms"))
                extra["normal_terms_out"] += len(result)
        elif key in ("matrices:Matrix.__mul__", "matrices:Matrix.__rmul__"):
            def probe(args, kwargs, result, entered):
                other = args[1]
                inner = other.nrows if hasattr(other, "rows") else 1
                extra["entry_mults"] += result.nrows * result.ncols * inner
        elif key in ("expmap:t_matrix_closed", "expmap:t_matrix_factorized",
                     "expmap:l_matrix", "expmap:r_matrix_rep"):
            def probe(args, kwargs, result, entered):
                extra["output_terms"] += _matrix_terms(result)
        elif key == "confluence:confluence_check":
            def probe(args, kwargs, result, entered):
                extra["words_checked"] += result.words_checked
        elif key.startswith("render:"):
            def probe(args, kwargs, result, entered):
                if entered and isinstance(result, str):
                    extra["render_bytes"] += len(result.encode())
        else:
            probe = None
        return probe

    def install(self) -> None:
        replaced = {}
        for layer, name in enumerate(LAYERS):
            mod = importlib.import_module(f"qexpmap.{name}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self._wrap(obj, layer, attr)
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "qexpmap" or n.startswith("qexpmap.")]
        namespaces += [v for ns in list(namespaces) for k, v in ns.items()
                       if isinstance(v, dict) and not k.startswith("__")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    ns[attr] = wrapper
                    self._undo.append((ns.__setitem__, attr, obj))

    def _wrap_class(self, cls, layer: int) -> None:
        for attr, obj in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrap(obj.__func__, layer, qual))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, layer, qual)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((lambda a, v, c=cls: setattr(c, a, v), attr, obj))

    def uninstall(self) -> None:
        for setter, attr, obj in reversed(self._undo):
            setter(attr, obj)
        self._undo.clear()


def span_self_times(parents, starts, ends) -> list:
    """Per span: its duration minus the durations of its direct children.
    A parent index of -1 marks a root span."""
    out = [e - s for s, e in zip(starts, ends)]
    for p, s, e in zip(parents, starts, ends):
        if p >= 0:
            out[p] -= e - s
    return out
