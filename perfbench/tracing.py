"""Timing wrappers installed on the layer boundaries of origami_lab.

Everything here lives in the benchmark: the library is not edited.  A
boundary is a public function or method named by ``(module, qualname)``.
Installing it replaces every reference to the function that any loaded
``origami_lab`` module holds (``from .x import f`` copies the reference),
so calls are seen however the caller imported the name.  A boundary that
no longer exists is recorded as absent with zero calls.

Two instruments share that mechanism:

* ``Sentinel`` counts ``Homology`` builds and orbit enumerations.  It is
  always on, costs one integer increment per call of two heavy
  functions, and feeds the coldness and warmth guards.
* ``Tracer`` records a span for every boundary call (name, start, end,
  parent, job), aggregates calls, total and self time per boundary, and
  the derived counters listed in ``DERIVED``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "origami_lab"

# (layer, module, qualname) in stack order, bottom to top
BOUNDARIES = (
    ("cli", "cli", "main"),
    ("perm", "perm", "is_transitive"),
    ("origami", "origami", "load_origami"),
    ("origami", "origami", "canonical_form"),
    ("origami", "origami", "automorphisms"),
    ("origami", "origami", "is_reduced"),
    ("orbit", "orbit", "sl2z_orbit"),
    ("orbit", "orbit", "apply_letter"),
    ("orbit", "orbit", "veech_generators"),
    ("homology", "homology", "Homology.__init__"),
    ("homology", "homology", "KzContext.step"),
    ("homology", "homology", "kz_context"),
    ("homology", "homology", "kz_matrix"),
    ("homology", "homology", "restrict"),
    ("homology", "homology", "tautological_split"),
    ("homology", "homology", "isotypical_W"),
    ("intlinalg", "intlinalg", "det"),
    ("intlinalg", "intlinalg", "charpoly"),
    ("intlinalg", "intlinalg", "smith_normal_form"),
    ("intlinalg", "intlinalg", "solve_right"),
    ("intlinalg", "intlinalg", "kernel_basis"),
    ("intlinalg", "intlinalg", "rank"),
    ("intlinalg", "intlinalg", "invert"),
    ("intlinalg", "intlinalg", "mat_mul"),
    ("paths", "paths", "generating_loops"),
    ("paths", "paths", "signed_crossings"),
    ("paths", "paths", "path_class_chain"),
    ("spin", "spin", "spin_parity"),
    ("galois", "galois", "is_galois_pinching_sp4"),
    ("simplicity", "simplicity", "certify_simplicity"),
    ("simplicity", "simplicity", "find_pinching_word"),
    ("simplicity", "simplicity", "verify_certificate"),
    ("lyapunov", "lyapunov", "mc_exponents"),
    ("lyapunov", "lyapunov", "ekz_sum"),
    # covers.quaternionic_block_report is left out: no timed workload runs
    # it (a cold report takes 38-56 s), so it would read 0 everywhere
    ("covers", "covers", "group_cover"),
)

# Helper layers: their self time is charged to the nearest caller from
# another layer when the intended-layer share is computed.
HELPER_LAYERS = ("intlinalg", "paths")

# derived metric name -> (unit, better)
DERIVED = {
    "orbit.sl2z_orbit.nodes": ("count", "lower"),
    "homology.kz_context.hits": ("count", "higher"),
    "homology.kz_context.misses": ("count", "lower"),
    "homology.Homology.rank_sum": ("count", "lower"),
    "intlinalg.det.max_n": ("count", "lower"),
    "galois.pinching_true": ("count", "lower"),
    "simplicity.words_explored": ("count", "lower"),
    "simplicity.closed_words": ("count", "lower"),
    "simplicity.closed_ratio": ("ratio", "higher"),
    "simplicity.words_per_s": ("1/s", "higher"),
    "lyapunov.mc.walk_steps_per_s": ("1/s", "higher"),
}

SENTINEL_BOUNDARIES = (("homology", "Homology.__init__"), ("orbit", "sl2z_orbit"))

MAX_SPANS = 200_000


def boundary_name(module, qualname):
    return "%s.%s" % (module, qualname)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for _layer, module, qualname in BOUNDARIES:
        base = boundary_name(module, qualname)
        spec.append((base + ".calls", "count", "lower"))
        spec.append((base + ".total_s", "s", "lower"))
        spec.append((base + ".self_s", "s", "lower"))
    for name, (unit, better) in DERIVED.items():
        spec.append((name, unit, better))
    spec.append(("trace.overhead", "ratio", "lower"))
    spec.append(("trace.intended_share", "ratio", "higher"))
    return spec


def _resolve(module, qualname):
    """(owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class _Patches:
    """Replaces references to functions and restores them on ``undo``."""

    def __init__(self):
        self._undo = []

    def replace(self, module, qualname, make_wrapper):
        found = _resolve(module, qualname)
        if found is None:
            return False
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if inspect.isclass(owner):
            self._set(owner, attr, wrapper)
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return True

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Sentinel:
    """Always-on call counters for the coldness and warmth guards."""

    def __init__(self):
        self.counts = {qualname: 0 for _module, qualname in SENTINEL_BOUNDARIES}
        self.present = {}
        self._patches = _Patches()

    def install(self):
        for module, qualname in SENTINEL_BOUNDARIES:
            self.present[qualname] = self._patches.replace(
                module, qualname, functools.partial(self._wrap, qualname)
            )

    def _wrap(self, key, original):
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return counted

    def snapshot(self):
        return dict(self.counts)

    def uninstall(self):
        self._patches.undo()


class Tracer:
    """Spans and per-boundary aggregates for one traced pass."""

    def __init__(self, intended_layers):
        self.intended = frozenset(intended_layers)
        self.active = False
        self._patches = _Patches()
        self.absent = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.derived = {name: 0 for name in DERIVED}
        self.charged = {}
        self.job_time = 0.0
        self.spans = []  # (job, span id, parent id, name, start, end)
        self.spans_dropped = 0
        self._stack = []  # frames: [name, layer, owner, start, child time, span id]
        self._open = {}  # name -> nesting depth, so recursion counts once in total
        self._job = None
        self._next_id = 0
        self._search_depth = 0
        self._search_time = 0.0
        self._mc_steps = 0
        self._mc_time = 0.0

    # -- installation -----------------------------------------------------

    def install(self):
        from origami_lab import homology

        self._homology = homology
        for layer, module, qualname in BOUNDARIES:
            name = boundary_name(module, qualname)
            self.calls[name] = 0
            self.total[name] = 0.0
            self.self_time[name] = 0.0
            ok = self._patches.replace(
                module, qualname, functools.partial(self._wrap, name, layer)
            )
            if not ok:
                self.absent.append(name)

    def uninstall(self):
        self._patches.undo()

    # -- spans ------------------------------------------------------------

    def begin_job(self, job_name):
        self._job = job_name
        self.active = True
        self._push("job:" + job_name, "(job)", time.perf_counter())

    def end_job(self):
        frame, dur = self._pop(time.perf_counter())
        self.job_time += dur
        self.active = False
        self._job = None

    def _push(self, name, layer, start):
        parent = self._stack[-1] if self._stack else None
        if layer in HELPER_LAYERS:
            owner = parent[2] if parent else "(job)"
        else:
            owner = layer
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, layer, owner, start, 0.0, span_id])
        self._open[name] = self._open.get(name, 0) + 1

    def _pop(self, end):
        frame = self._stack.pop()
        name, layer, owner, start, child, span_id = frame
        dur = end - start
        own = dur - child
        depth = self._open[name] - 1
        self._open[name] = depth
        if name in self.calls:
            self.calls[name] += 1
            self.self_time[name] += own
            if depth == 0:
                self.total[name] += dur
        self.charged[owner] = self.charged.get(owner, 0.0) + own
        parent_id = None
        if self._stack:
            self._stack[-1][4] += dur
            parent_id = self._stack[-1][5]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self._job, span_id, parent_id, name, start, end))
        else:
            self.spans_dropped += 1
        return frame, dur

    def _wrap(self, name, layer, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            before = tracer._before(name, args, kwargs)
            tracer._push(name, layer, time.perf_counter())
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                _frame, dur = tracer._pop(time.perf_counter())
                tracer._after(name, args, kwargs, result, before, dur)

        return traced

    # -- derived counters -------------------------------------------------

    def _cache_size(self):
        cache = getattr(self._homology, "_context_cache", None)
        return None if cache is None else len(cache)

    def _before(self, name, args, kwargs):
        if name == "homology.kz_context":
            return self._cache_size()
        if name == "simplicity.find_pinching_word":
            self._search_depth += 1
        elif self._search_depth:
            if name == "intlinalg.mat_mul":
                self.derived["simplicity.words_explored"] += 1
            elif name == "galois.is_galois_pinching_sp4":
                self.derived["simplicity.closed_words"] += 1
        if name == "intlinalg.det" and args:
            n = len(args[0])
            if n > self.derived["intlinalg.det.max_n"]:
                self.derived["intlinalg.det.max_n"] = n
        return None

    def _after(self, name, args, kwargs, result, before, dur):
        d = self.derived
        if name == "homology.kz_context":
            after = self._cache_size()
            if before is not None and after is not None:
                key = "homology.kz_context.misses" if after > before else "homology.kz_context.hits"
                d[key] += 1
        elif name == "orbit.sl2z_orbit":
            d["orbit.sl2z_orbit.nodes"] += len(getattr(result, "nodes", ()))
        elif name == "homology.Homology.__init__" and args:
            d["homology.Homology.rank_sum"] += getattr(args[0], "rank", 0)
        elif name == "galois.is_galois_pinching_sp4":
            if getattr(result, "pinching", False):
                d["galois.pinching_true"] += 1
        elif name == "simplicity.find_pinching_word":
            self._search_depth -= 1
            if self._search_depth == 0:
                self._search_time += dur
        elif name == "lyapunov.mc_exponents":
            steps = kwargs.get("steps", args[2] if len(args) > 2 else 10000)
            trials = kwargs.get("trials", args[3] if len(args) > 3 else 10)
            self._mc_steps += steps * trials
            self._mc_time += dur

    # -- report -----------------------------------------------------------

    def metrics(self, overhead):
        """Every per-layer metric value, keyed by name."""
        out = {}
        for _layer, module, qualname in BOUNDARIES:
            name = boundary_name(module, qualname)
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".total_s"] = self.total.get(name, 0.0)
            out[name + ".self_s"] = self.self_time.get(name, 0.0)
        d = dict(self.derived)
        words = d["simplicity.words_explored"]
        d["simplicity.closed_ratio"] = d["simplicity.closed_words"] / words if words else 0.0
        d["simplicity.words_per_s"] = words / self._search_time if self._search_time else 0.0
        d["lyapunov.mc.walk_steps_per_s"] = (
            self._mc_steps / self._mc_time if self._mc_time else 0.0
        )
        out.update(d)
        out["trace.overhead"] = overhead
        out["trace.intended_share"] = self.intended_share()
        return out

    def intended_share(self):
        if not self.job_time:
            return 0.0
        return sum(self.charged.get(layer, 0.0) for layer in self.intended) / self.job_time

    def layer_shares(self):
        """Self time per layer (helpers charged to their caller and not)
        as shares of the traced job time."""
        by_layer = {}
        for layer, module, qualname in BOUNDARIES:
            by_layer[layer] = by_layer.get(layer, 0.0) + self.self_time.get(
                boundary_name(module, qualname), 0.0
            )
        total = self.job_time or 1.0
        return {
            "self": {k: v / total for k, v in sorted(by_layer.items())},
            "charged": {k: v / total for k, v in sorted(self.charged.items())},
        }
