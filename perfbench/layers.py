"""Per-layer spans and counts, recorded from outside opelab.

``Tracer.install`` wraps the public functions listed in ``SPANS`` and
rebinds every name in the loaded ``opelab`` modules that refers to them,
so calls made between modules are seen too; ``Tracer.remove`` puts the
originals back.  Each call records a span (job, bucket, start, end,
parent) in memory.  A bucket's self time is the time of its spans minus
the part covered by child spans, so the self times of all buckets add up
to the time spent inside ``cli.main``.  Time in functions that are not
wrapped counts toward the nearest wrapped caller.

The leaf layers ``scalars`` and ``fractions`` are called far too often
to wrap; ``profile_shares`` measures them with cProfile instead.
"""

import cProfile
import fractions
import importlib
import os
import pstats
import sys
from time import perf_counter


def _states_checked(args, kwargs, result):
    """States whose d^2 was computed: the given ones, or the whole basis
    through the weight bound."""
    datum, weight = args[0], args[1]
    states = args[2] if len(args) > 2 else kwargs.get("states")
    if states is None:
        return sum(len(datum.V.basis(w, q)) for w in range(weight + 1)
                   for q in datum.charges())
    return len(states)


def _calls(args, kwargs, result):
    return 1


def _size(args, kwargs, result):
    return len(result)


# bucket -> [(module, qualified name, {count: f(args, kwargs, result)})]
# The count functions run with tracing paused.
SPANS = {
    "cli.self": [("cli", "main", {})],
    "schemas.validate": [
        ("schemas", "validate", {"schemas.validate_calls": _calls})],
    "vla.build": [
        ("vla", name, {}) for name in (
            "VertexLieData.__init__", "VertexLieData.from_dict",
            "current_algebra", "heisenberg", "kac_moody_sl2", "virasoro",
            "weyl_pair", "direct_sum")],
    "vla.check": [
        ("vla", name, {}) for name in (
            "check_sesquilinearity", "check_skew_symmetry", "check_jacobi")],
    "envelope.basis": [
        ("envelope", "VertexAlgebra.basis", {"envelope.monomials": _size}),
        ("envelope", "VertexAlgebra.graded_dimensions", {})],
    "envelope.product": [
        ("envelope", "VertexAlgebra.nth_product",
         {"envelope.product_calls": _calls,
          "envelope.product_terms": _size}),
        ("envelope", "VertexAlgebra.singular_ope", {}),
        ("envelope", "VertexAlgebra.normal_order", {})],
    "brst.build": [
        ("brst", "BRSTDatum.__init__", {}),
        ("brst", "BRSTDatum.from_dict", {})],
    "brst.d_squared": [
        ("brst", "BRSTDatum.check_d_squared",
         {"brst.states_checked": _states_checked})],
    "brst.d_matrix": [
        ("brst", "BRSTDatum.d_matrix",
         {"brst.d_matrix_nnz": lambda a, k, r: len(r[0].data)})],
    "brst.cohomology": [
        ("brst", "BRSTDatum.brst_cohomology", {}),
        ("brst", "BRSTDatum.cohomology_dims", {})],
    "linalg.rref": [
        ("linalg", "rref",
         {"linalg.rref_cells": lambda a, k, r: len(a[0]) * a[1]}),
        ("linalg", "solve_and_rank", {}),
        ("linalg", "q_solve", {}),
        ("linalg", "span_rank", {}),
        ("linalg", "quotient_reps", {})],
    "linalg.smith": [
        ("linalg", "smith",
         {"linalg.smith_calls": _calls,
          "linalg.smith_cells": lambda a, k, r: a[0].nrows * a[0].ncols})],
    "linalg.smith_solve": [("linalg", "smith_solve", {})],
    "equivariant.build": [
        ("equivariant", "MixedComplex.__init__", {}),
        ("equivariant", "MixedComplex.from_dict", {}),
        ("equivariant", "koszul_t", {})],
    "equivariant.model": [
        ("equivariant", "cartan_model",
         {"equivariant.tokens": lambda a, k, r: len(r.tokens)})],
    "equivariant.cohomology": [
        ("equivariant", "UComplex.cohomology", {})],
    "equivariant.localize": [("equivariant", "localize_check", {})],
    "operads.build": [
        ("operads", "AlgebraInstance.__init__", {}),
        ("operads", "AlgebraInstance.from_dict", {})],
    "operads.conf": [
        ("operads", "conf_ring",
         {"operads.conf_total": lambda a, k, r: r.total}),
        ("operads", "homology_p_d_bridge", {})],
    "operads.check": [
        ("operads", "check_relations",
         {"operads.relations": lambda a, k, r: len(r["relations"])})],
}

COUNTS = sorted(name for targets in SPANS.values()
                for _, _, counters in targets for name in counters)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job = 0
        self._stack = []
        self._paused = False
        self._undo = []

    def _wrap(self, fn, bucket, counters):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.job, bucket, start, end, parent)
            if counters:
                self._paused = True
                try:
                    for name, count in counters.items():
                        self.counts[name] += count(args, kwargs, result)
                finally:
                    self._paused = False
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "opelab" or n.startswith("opelab.")]
        for bucket, targets in SPANS.items():
            for modname, qualname, counters in targets:
                owner = importlib.import_module("opelab." + modname)
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[name]
                if isinstance(owner, type):
                    kind = type(raw) if isinstance(
                        raw, (staticmethod, classmethod)) else None
                    fn = raw.__func__ if kind else raw
                    new = self._wrap(fn, bucket, counters)
                    self._rebind(owner, name, kind(new) if kind else new)
                    continue
                new = self._wrap(raw, bucket, counters)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, attr, new)

    def _rebind(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def remove(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def self_times(self):
        """{bucket: self seconds} over every recorded span."""
        child = [0.0] * len(self.spans)
        for job, bucket, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPANS, 0.0)
        for i, (job, bucket, start, end, parent) in enumerate(self.spans):
            out[bucket] += end - start - child[i]
        return out


def profile_shares(run_pass):
    """Run one pass under cProfile; calls into and self-time share of the
    ``opelab.scalars`` module and the stdlib ``fractions`` module."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_pass()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    fractions_file = os.path.abspath(fractions.__file__)
    calls = {"scalars": 0, "fractions": 0}
    self_time = {"scalars": 0.0, "fractions": 0.0}
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        total += tottime
        if os.path.abspath(filename) == fractions_file:
            key = "fractions"
        elif filename.endswith(os.path.join("opelab", "scalars.py")):
            key = "scalars"
        else:
            continue
        calls[key] += ncalls
        self_time[key] += tottime
    out = {}
    for key in ("scalars", "fractions"):
        out[key + ".calls"] = calls[key]
        out[key + ".self_share"] = self_time[key] / total if total else 0.0
    return out
