"""Span recorder for the traced run.

`Tracer.install` wraps the public functions and methods of each layer
module of `uqbench` (plus the few private hot paths the metrics name) and
patches every name where it is looked up: module globals in every
`uqbench` module that imported the function (`nichols.rref`, `deform.solve`,
`cli.load_datum`, ...) and class attributes (`ScalarQ`, `NicholsContext`,
`UqContext`, `TruncatedUg`, ...).  No file under `src/` changes.

Each wrapped call is a span: name, start, end, parent span and job.  Calls
of the `scalars` layer and of the sparse accumulators `deform.el_add` and
`weightmods.vec_add` run in the millions, so they are counted and timed in
place but not kept as spans; every other span is kept in memory and written
out when the run ends.  Self time is a call's duration minus the time of the
wrapped calls nested in it, kept or not.

`braiding` is not wrapped: only `BraidedSpace.b` is reached on hot paths, so
its time counts in the self time of its callers, mostly `nichols`.  `norms`
is left out: its subcommands are not in any workload.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "linalg", "rootdata", "nichols", "uq", "weightmods",
          "deform", "cli")
PRIVATE = {"_poly_gcd", "_pair_words", "_reorder", "_braid_slot", "_emit"}
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__truediv__", "__pow__", "__eq__", "__str__"}
NOT_KEPT = {"deform.el_add", "weightmods.vec_add"}


def _wanted(attr: str) -> bool:
    return attr in DUNDERS or attr in PRIVATE or not attr.startswith("_")


class Tracer:
    """Wraps the layer functions of one imported `uqbench` package."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple | None] = []
        self.job = -1
        self._child: list[float] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._distinct: set = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"uqbench.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and _wanted(attr)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != "uqbench" and not name.startswith("uqbench."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if not _wanted(attr):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                self._patch(cls, attr, self._wrap(name, obj))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        keep = not name.startswith("scalars.") and name not in NOT_KEPT
        before, after = HOOKS.get(name, (None, None))
        calls, self_s, spans = self.calls, self.self_s, self.spans
        child, open_spans, clock = self._child, self._open, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            if keep:
                parent = open_spans[-1] if open_spans else -1
                index = len(spans)
                spans.append(None)
                open_spans.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                calls[nid] += 1
                self_s[nid] += end - start - inner
                if keep:
                    open_spans.pop()
                    spans[index] = (tracer.job, nid, start, end, parent)
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-job bookkeeping --------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self._distinct.clear()

    def snapshot(self) -> dict[str, float]:
        """Cumulative counters: `<name>.calls`, `<name>.self_s` and the
        named counts the hooks keep."""
        snap: dict[str, float] = dict(self.counts)
        for name, n, s in zip(self.names, self.calls, self.self_s):
            snap[f"{name}.calls"] = n
            snap[f"{name}.self_s"] = s
        return snap

    def write_spans(self, path) -> int:
        """Write the kept spans as tab-separated lines; returns their number."""
        rows = [span for span in self.spans if span is not None]
        with open(path, "w") as fh:
            fh.write("job\tname\tstart\tend\tparent\n")
            for job, nid, start, end, parent in rows:
                fh.write(f"{job}\t{self.names[nid]}\t{start:.9f}\t"
                         f"{end:.9f}\t{parent}\n")
        return len(rows)


# ---------------------------------------------------------------------------
# counts taken at the boundaries, peeking at the caches the calls consult
# ---------------------------------------------------------------------------

def _count_rref_cells(tracer, args, kwargs):
    rows = args[0]
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _memo_probe(counter: str, memo: str, key_of):
    def before(tracer, args, kwargs):
        key = key_of(args)
        if key is not None and key in getattr(args[0], memo):
            tracer.counts[counter] += 1
    return before


def _gcd_useful(tracer, args, kwargs, result, state):
    if max(result) > 0:
        tracer.counts["scalars.gcd.useful"] += 1


def _gram_entries(tracer, args, kwargs, result, state):
    words, _ = result
    tracer.counts["nichols.gram.entries"] += len(words) ** 2


def _basis_miss(tracer, args, kwargs):
    return args[1] not in args[0]._basis_cache


def _basis_rank(tracer, args, kwargs, result, state):
    if state:
        tracer.counts["nichols.gram.rank_sum"] += len(result.basis_words)


def _braid_pair_args(tracer, args, kwargs):
    datum, M, N, a, b, *rest = args
    twist = rest[0] if rest else kwargs.get("weight_twist", False)
    key = (id(M), id(N), a, b, twist)
    if key not in tracer._distinct:
        tracer._distinct.add(key)
        tracer.counts["weightmods.braid_pair.distinct"] += 1


HOOKS = {
    "linalg.rref": (_count_rref_cells, None),
    "scalars._poly_gcd": (None, _gcd_useful),
    "nichols.NicholsContext._pair_words": (
        _memo_probe("nichols.pair_words.memo_hits", "_pair_memo",
                    lambda a: (a[1], a[2])), None),
    "nichols.NicholsContext.graded_gram": (None, _gram_entries),
    "nichols.NicholsContext.nichols_basis": (_basis_miss, _basis_rank),
    "uq.UqContext._reorder": (
        _memo_probe("uq.reorder.memo_hits", "_reorder_memo",
                    lambda a: (a[1], a[2]) if a[1] and a[2] else None), None),
    "deform.TruncatedUg.mono_mul": (
        _memo_probe("deform.mono_mul.memo_hits", "_mono_cache",
                    lambda a: (a[1], a[2])), None),
    "weightmods.braid_pair": (_braid_pair_args, None),
}


# ---------------------------------------------------------------------------
# per-layer metrics from the counters of one traced pass
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(d: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from counter deltas `d`."""
    def get(key):
        return d.get(key, 0)

    def layer_self(layer):
        return sum(v for k, v in d.items()
                   if k.startswith(layer + ".") and k.endswith(".self_s"))

    q, nc = "scalars.ScalarQ", "nichols.NicholsContext"
    out = {
        "scalars.self_s": (layer_self("scalars"), "s"),
        "scalars.construct.calls": (get(f"{q}.__init__.calls"), "count"),
        "scalars.mul.calls": (get(f"{q}.__mul__.calls"), "count"),
        "scalars.add.calls": (get(f"{q}.__add__.calls"), "count"),
        "scalars.inverse.calls": (get(f"{q}.inverse.calls"), "count"),
        "scalars.eq.calls": (get(f"{q}.__eq__.calls"), "count"),
        "scalars.gcd.calls": (get("scalars._poly_gcd.calls"), "count"),
        "scalars.gcd.self_s": (get("scalars._poly_gcd.self_s"), "s"),
        "scalars.gcd.useful_ratio": (
            _ratio(get("scalars.gcd.useful"), get("scalars._poly_gcd.calls")),
            "ratio"),
        "linalg.self_s": (layer_self("linalg"), "s"),
        "linalg.rref.calls": (get("linalg.rref.calls"), "count"),
        "linalg.rref.cells": (get("linalg.rref.cells"), "count"),
        "linalg.rref.self_s": (get("linalg.rref.self_s"), "s"),
        "linalg.solve.self_s": (get("linalg.solve.self_s"), "s"),
        "linalg.mat_mul.self_s": (get("linalg.mat_mul.self_s"), "s"),
        "linalg.invert.calls": (get("linalg.invert.calls"), "count"),
        "nichols.self_s": (layer_self("nichols"), "s"),
        "nichols.pair_words.calls": (get(f"{nc}._pair_words.calls"), "count"),
        "nichols.pair_words.self_s": (get(f"{nc}._pair_words.self_s"), "s"),
        "nichols.pair_words.memo_hit_ratio": (
            _ratio(get("nichols.pair_words.memo_hits"),
                   get(f"{nc}._pair_words.calls")), "ratio"),
        "nichols.gram.entries": (get("nichols.gram.entries"), "count"),
        "nichols.gram.rank_sum": (get("nichols.gram.rank_sum"), "count"),
        "nichols.nichols_basis.calls": (get(f"{nc}.nichols_basis.calls"), "count"),
        "nichols.nichols_basis.self_s": (get(f"{nc}.nichols_basis.self_s"), "s"),
        "uq.self_s": (layer_self("uq"), "s"),
        "uq.multiply.calls": (get("uq.UqContext.multiply.calls"), "count"),
        "uq.multiply.self_s": (get("uq.UqContext.multiply.self_s"), "s"),
        "uq.reorder.calls": (get("uq.UqContext._reorder.calls"), "count"),
        "uq.reorder.memo_hit_ratio": (
            _ratio(get("uq.reorder.memo_hits"),
                   get("uq.UqContext._reorder.calls")), "ratio"),
        "uq.coproduct.calls": (get("uq.UqContext.coproduct.calls"), "count"),
        "uq.coproduct.self_s": (get("uq.UqContext.coproduct.self_s"), "s"),
        "uq.antipode.calls": (get("uq.UqContext.antipode.calls"), "count"),
        "uq.double_pairing_mono.calls": (
            get("uq.UqContext.double_pairing_mono.calls"), "count"),
        "weightmods.self_s": (layer_self("weightmods"), "s"),
        "weightmods.build_verma.self_s": (get("weightmods.build_verma.self_s"), "s"),
        "weightmods.braid_pair.calls": (get("weightmods.braid_pair.calls"), "count"),
        "weightmods.braid_pair.self_s": (get("weightmods.braid_pair.self_s"), "s"),
        "weightmods.braid_pair.distinct_ratio": (
            _ratio(get("weightmods.braid_pair.distinct"),
                   get("weightmods.braid_pair.calls")), "ratio"),
        "weightmods.braid_slot.calls": (get("weightmods._braid_slot.calls"), "count"),
        "deform.self_s": (layer_self("deform"), "s"),
        "deform.el_add.calls": (get("deform.el_add.calls"), "count"),
        "deform.mono_mul.calls": (get("deform.TruncatedUg.mono_mul.calls"), "count"),
        "deform.mono_mul.memo_hit_ratio": (
            _ratio(get("deform.mono_mul.memo_hits"),
                   get("deform.TruncatedUg.mono_mul.calls")), "ratio"),
        "deform.coboundary_solve.self_s": (get("deform.coboundary_solve.self_s"), "s"),
        "deform.rigidity_conjugator.self_s": (
            get("deform.rigidity_conjugator.self_s"), "s"),
        "deform.mult_trivialize.self_s": (get("deform.mult_trivialize.self_s"), "s"),
        "rootdata.self_s": (layer_self("rootdata"), "s"),
        "rootdata.load_datum.self_s": (get("rootdata.load_datum.self_s"), "s"),
        "rootdata.root_combination.calls": (
            get("rootdata.RootDatum.root_combination.calls"), "count"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.emit.self_s": (get("cli._emit.self_s"), "s"),
    }
    return out
