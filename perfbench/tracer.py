"""In-process tracing of equitau's layers, patched in from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper.
A class method is replaced under every attribute of the class bound to the
same function (``__mul__`` and ``__rmul__``); a module function is replaced in
every loaded ``equitau`` module that holds it, since ``exp``, ``reduce`` and
friends are re-imported by name.  ``uninstall()`` restores the originals.

A *span* wrapper records ``(name, id, parent id, job, start, end)``; a
*count* wrapper only counts calls.  Hooks that compute counts (pairs offered,
system sizes) run off the clock: span times come from a virtual clock that
excludes the time spent in hooks, so hook cost never lands in a self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from itertools import product

MODULES = ("lattice", "gradedring", "reprring", "charclass", "riemannroch",
           "finitestab", "selftest", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = 0
        self._stack = []
        self._next_id = 1
        self._hook_time = 0.0
        self._patched = []

    def clock(self):
        return time.perf_counter() - self._hook_time

    def _run_hook(self, hook, *args):
        t0 = time.perf_counter()
        try:
            hook(self.counts, *args)
        finally:
            self._hook_time += time.perf_counter() - t0

    def span(self, name, fn, before=None, after=None):
        stack, spans, counts, calls = self._stack, self.spans, self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans.append((name, sid, parent, self.job, start, end))
                counts[calls] += 1
            if after is not None:
                self._run_hook(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        counts, calls = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, original, wrapper):
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def patch_method(self, cls, attr, wrap):
        original = vars(cls)[attr]
        self._replace(cls, original, wrap(original))

    def patch_function(self, module, attr, wrap):
        original = getattr(module, attr)
        wrapper = wrap(original)
        owners = [sys.modules["equitau"]] + [sys.modules[f"equitau.{m}"] for m in MODULES]
        for owner in owners:
            self._replace(owner, original, wrapper)

    def install(self):
        mods = {m: importlib.import_module(f"equitau.{m}") for m in MODULES}
        gr, rr, cc, rh, la, fs, cli = (mods[m] for m in (
            "gradedring", "reprring", "charclass", "riemannroch", "lattice", "finitestab", "cli"))
        span, count = self.span, self.count

        def named(name, **hooks):
            return lambda fn: span(name, fn, **hooks)

        self.patch_method(gr.GradedSeries, "__init__", named("gradedring.series_new"))
        self.patch_method(gr.GradedSeries, "__mul__", named("gradedring.series_mul", before=_series_pairs))
        for attr in ("__add__", "__sub__", "__rsub__", "__neg__"):
            self.patch_method(gr.GradedSeries, attr, named("gradedring.series_add"))
        self.patch_function(gr, "apply_power_series", named("gradedring.apply_power_series"))
        self.patch_method(gr.BundleRingElement, "__mul__", named("gradedring.bundle_mul"))
        self.patch_function(gr, "reduce", named("gradedring.reduce"))
        self.patch_function(gr, "pushforward", lambda fn: count("gradedring.pushforward", fn))

        self.patch_function(cc, "todd_class_bundle", named("charclass.todd_class_bundle"))
        self.patch_function(cc, "chern_character_bundle", named("charclass.chern_character_bundle"))
        self.patch_method(cc.ProjSpaceModel, "hyperplane", lambda fn: count("charclass.hyperplane", fn))

        self.patch_function(rh, "hrr_chi", named("riemannroch.hrr_chi"))
        self.patch_function(rh, "sections_character_oracle", named("riemannroch.sections_oracle"))
        self.patch_function(rh, "weyl_closed_form", named("riemannroch.weyl_closed_form"))

        self.patch_function(rr, "chern_character", named("reprring.chern_character", before=_weights_in))
        self.patch_method(rr.RepRingElement, "__mul__", named("reprring.rep_mul"))
        self.patch_function(rr, "ideal_membership_certificate", named(
            "reprring.certificate", before=_system_size, after=_found))

        self.patch_function(la, "smith_normal_form", named("lattice.smith_normal_form"))
        self.patch_function(fs, "sector_dimensions", named("finitestab.sector_dimensions"))

        for attr in ("render_json", "series_to_json", "rep_to_json"):
            self.patch_function(cli, attr, named("cli.render"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Count hooks: (counts, args[, result])


def _series_pairs(counts, args):
    a, b = args
    if type(b) is not type(a):
        return
    counts["gradedring.series_mul.pairs"] += len(a.terms) * len(b.terms)
    da = Counter(sum(e) for e in a.terms)
    db = Counter(sum(e) for e in b.terms)
    n = a.truncation
    counts["gradedring.series_mul.kept"] += sum(
        ca * cb for d1, ca in da.items() for d2, cb in db.items() if d1 + d2 <= n
    )


def _weights_in(counts, args):
    counts["reprring.chern_character.weights_in"] += len(args[0].terms)


def _system_size(counts, args):
    """Unknowns and equations of the linear system the search will build."""
    target, generators, bound = args
    box = list(product(range(-bound, bound + 1), repeat=target.group.ngens))
    monomials = set(target.terms)
    for g in generators:
        for e in g.terms:
            monomials.update(tuple(a + b for a, b in zip(m, e)) for m in box)
    counts["reprring.certificate.unknowns"] += len(generators) * len(box)
    counts["reprring.certificate.equations"] += len(monomials)


def _found(counts, args, result):
    if result is not None:
        counts["reprring.certificate.found"] += 1


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans):
    """{name: total self time}: each span's duration minus its children's."""
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        child[parent] += end - start
    out = defaultdict(float)
    for name, sid, _, _, start, end in spans:
        out[name] += (end - start) - child.get(sid, 0.0)
    return dict(out)


def inclusive_times(spans):
    """{name: total time of spans with no ancestor of the same name}."""
    by_id = {sid: (name, parent) for name, sid, parent, _, _, _ in spans}
    out = defaultdict(float)
    for name, _, parent, _, start, end in spans:
        while parent and by_id[parent][0] != name:
            parent = by_id[parent][1]
        if not parent:
            out[name] += end - start
    return dict(out)
