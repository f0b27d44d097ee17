"""Span tracing around the public functions of each varhardy layer.

Only the traced run installs the wrappers.  Each wrapper replaces the
function in its defining module and at every import site where another
varhardy module bound it by name (for example ``hardy.convolve``), so
calls made inside the library are seen too.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

from scipy import fft as sp_fft

# Public functions per layer.  Private helpers (``_batch_bisect``,
# ``_cube_mean_field``, ``_modular_scaled``) stay unwrapped: counting work
# inside them needs tracing inside the program.
TRACED = {
    "grid": ("cube_index_map", "convolve", "rescale_mollifier"),
    "norms": ("luxemburg_norm", "batch_restricted_norms"),
    "weights": ("a_loc_var_constant", "a_loc_p_constant", "q_w_estimate", "tilde_a_constant"),
    "maximal": (
        "grid_maximal",
        "hl_maximal",
        "local_maximal",
        "powered_weighted_local_maximal",
        "boundedness_probe",
    ),
    "hardy": ("grand_maximal", "hardy_norm", "nested_dictionaries"),
    "littlewood_paley": ("make_phi_pair", "square_function", "lp_norm", "telescoping_reconstruct"),
    "wavelets": ("analyze", "wavelet_norm"),
    "atoms": ("atomic_decompose", "whitney_decompose", "synthesize", "sequence_norm", "validate_atom"),
}

RSS_SPANS = {"littlewood_paley.make_phi_pair"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cubes_on_level(domain, level: int, shift) -> int:
    """Number of cubes of one shifted grid meeting the window, by exact
    integer arithmetic on the lattice (independent of the library)."""
    s = 1 << (domain.level - level)
    lo, hi = -domain.npts // 2, domain.npts // 2 - 1
    count = 1
    for a in shift:
        first = (3 * lo - a * s) // (3 * s)
        last = (3 * hi - a * s) // (3 * s)
        count *= last - first + 1
    return count


def _fft_points(f, g) -> int:
    """Padded transform size of one linear FFT convolution of f and g."""
    pts = 1
    for n1, n2 in zip(f.samples.shape, g.samples.shape):
        pts *= sp_fft.next_fast_len(n1 + n2 - 1, True)
    return pts


def _weight_key(w) -> tuple:
    return (w.domain, w.values.samples.tobytes())


class Tracer:
    """Collects spans and work counts while ``active``.

    A span is (name, start, end, parent index, operation id).  Self time is
    a span's duration minus the time its direct child spans cover.
    """

    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.q_w_weights: set = set()
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            rss0 = _maxrss_mb() if name in RSS_SPANS else None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
                tracer.self_s[name] += dur - frame[1]
                if rss0 is not None:
                    tracer.counts[name + ".rss_growth_mb"] += _maxrss_mb() - rss0
            tracer._count(name, args, out)
            return out

        return traced

    def _count(self, name: str, args, out) -> None:
        c = self.counts
        if name == "grid.convolve":
            c["grid.convolve.fft_points"] += _fft_points(args[0], args[1])
        elif name == "norms.batch_restricted_norms":
            p, level, shift = args[1], args[3], args[4]
            c["norms.batch_restricted_norms.cubes"] += _cubes_on_level(p.domain, level, shift)
        elif name == "weights.a_loc_var_constant":
            c["weights.cubes_swept"] += out.cube_count
        elif name == "weights.q_w_estimate":
            self.q_w_weights.add(_weight_key(args[0]))
        elif name == "atoms.whitney_decompose":
            c["atoms.whitney_decompose.cubes"] += len(out)
        elif name == "atoms.atomic_decompose":
            c["atoms.atomic_decompose.atoms_built"] += len(out.atoms)

    def install(self) -> None:
        """Wrap every TRACED function at its definition and import sites."""
        mods = {k: v for k, v in sys.modules.items() if k == "varhardy" or k.startswith("varhardy.")}
        for layer, names in TRACED.items():
            home = mods[f"varhardy.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in mods.values():
                    if getattr(mod, fname, None) is orig:
                        self._saved.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()
        self.q_w_weights.clear()

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "op": o}
            for n, a, b, p, o in self.spans
        ]

    def summary(self) -> dict[str, dict]:
        """Per function: calls, self time, total time (outermost spans) and,
        for a few pairs, calls made beneath another function's spans."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        under: dict[tuple[str, str], int] = defaultdict(int)
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            anc = parent
            outer = True
            while anc >= 0:
                if names[anc] == name:
                    outer = False
                under[(names[anc], name)] += 1
                anc = parents[anc]
            if outer:
                total[name] += t1 - t0
        return {"calls": calls, "total": total, "under": under, "self": self.self_s}


def _calls_beneath(under: dict, calls: dict, outer: str, inner: str) -> float:
    """Calls of ``inner`` made beneath ``outer`` spans, per ``outer`` call."""
    n = calls.get(outer, 0)
    return under.get((outer, inner), 0) / n if n else 0.0


def layer_metrics(tracer: Tracer, passes: int, setup_summary: dict, setup_counts: dict) -> dict[str, tuple]:
    """Per-layer metrics as (value, unit): timed-phase figures per pass,
    set-up figures for one set-up.  ``calls_per_weight`` is taken over the
    whole run: it counts how often each distinct weight's critical index is
    recomputed."""
    s = tracer.summary()
    calls, total, under, selfs = s["calls"], s["total"], s["under"], s["self"]
    c = tracer.counts
    per = 1.0 / passes
    m: dict[str, tuple] = {}

    def fn_metrics(name: str, *stats: str) -> None:
        for st in stats:
            if st == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0) * per, "count/pass")
            elif st == "self_s":
                m[f"{name}.self_s"] = (selfs.get(name, 0.0) * per, "s/pass")
            elif st == "total_s":
                m[f"{name}.total_s"] = (total.get(name, 0.0) * per, "s/pass")

    def count(name: str) -> None:
        m[name] = (c.get(name, 0) * per, "count/pass")

    fn_metrics("norms.batch_restricted_norms", "calls", "self_s")
    count("norms.batch_restricted_norms.cubes")
    fn_metrics("weights.a_loc_var_constant", "calls", "self_s")
    count("weights.cubes_swept")
    fn_metrics("norms.luxemburg_norm", "calls", "self_s")
    fn_metrics("maximal.grid_maximal", "calls", "self_s")
    for f in ("hl_maximal", "local_maximal", "boundedness_probe"):
        fn_metrics(f"maximal.{f}", "total_s")
    fn_metrics("maximal.powered_weighted_local_maximal", "self_s")
    fn_metrics("grid.cube_index_map", "calls", "self_s")
    fn_metrics("weights.q_w_estimate", "calls", "total_s")
    nweights = len(tracer.q_w_weights)
    m["weights.q_w_estimate.calls_per_weight"] = (
        calls.get("weights.q_w_estimate", 0) / nweights if nweights else 0.0,
        "ratio",
    )
    fn_metrics("weights.a_loc_p_constant", "calls", "self_s")
    fn_metrics("grid.convolve", "calls", "self_s")
    count("grid.convolve.fft_points")
    fn_metrics("grid.rescale_mollifier", "calls")
    fn_metrics("hardy.grand_maximal", "calls", "self_s")
    m["hardy.grand_maximal.convolves_per_call"] = (
        _calls_beneath(under, calls, "hardy.grand_maximal", "grid.convolve"),
        "ratio",
    )
    fn_metrics("hardy.hardy_norm", "total_s")
    fn_metrics("wavelets.analyze", "calls", "self_s")
    m["wavelets.analyze.per_norm"] = (
        _calls_beneath(under, calls, "wavelets.wavelet_norm", "wavelets.analyze"),
        "ratio",
    )
    fn_metrics("wavelets.wavelet_norm", "total_s")
    fn_metrics("littlewood_paley.square_function", "self_s")
    fn_metrics("littlewood_paley.telescoping_reconstruct", "self_s")
    fn_metrics("littlewood_paley.lp_norm", "total_s")
    fn_metrics("atoms.atomic_decompose", "calls", "self_s")
    count("atoms.atomic_decompose.atoms_built")
    fn_metrics("atoms.whitney_decompose", "calls", "self_s")
    count("atoms.whitney_decompose.cubes")
    fn_metrics("atoms.synthesize", "self_s")
    fn_metrics("atoms.sequence_norm", "self_s")
    fn_metrics("atoms.validate_atom", "calls", "self_s")

    setup_total = setup_summary["total"]
    m["littlewood_paley.make_phi_pair.total_s"] = (
        setup_total.get("littlewood_paley.make_phi_pair", 0.0),
        "s/setup",
    )
    m["littlewood_paley.make_phi_pair.rss_growth_mb"] = (
        setup_counts.get("littlewood_paley.make_phi_pair.rss_growth_mb", 0.0),
        "MB",
    )
    m["hardy.nested_dictionaries.total_s"] = (setup_total.get("hardy.nested_dictionaries", 0.0), "s/setup")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
