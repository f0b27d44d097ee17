"""Experiment configuration, probe suites and report serialization.

Each suite runs a themed batch of probes on preset-built inputs and returns
one `Report` per case, the same record the probes return.  The universal
finiteness proxy is the two-resolution protocol: quantities are computed
at levels m and m+1 and the ratio is reported next to the values, so every
report row carries its own stability evidence.  A case that carries a gap
reason is a known gap, reported as a strict expected failure: "xfail"
while its check fails, "xpass" (a failed run) once it passes.  The JSON
and CSV reports and the command line all print `Report.row()`.  Runs are
deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import atoms as atoms_mod
from . import littlewood_paley as lp_mod
from . import maximal as max_mod
from . import wavelets as wav_mod
from .exponent import VariableExponent
from .grid import MAIN_GRID_SHIFT, Domain, GridFunction, all_shifts
from .hardy import (
    MIN_DICT_COUNT,
    TestDictionary,
    dirac_membership_check,
    grand_maximal,
    hardy_norm,
    nested_dictionaries,
)
from .norms import (
    holder_check,
    indicator_norm_profile,
    localization_norm,
    lq_norm,
    luxemburg_norm,
    unit_ball_modular_check,
)
from .presets import PresetError, _radius, exponent_preset, function_preset, weight_preset, preset_catalog
from .report import Report
from .weights import (
    Weight,
    a_loc_infty_constant,
    a_loc_p_constant,
    a_loc_var_constant,
    q_w_estimate,
    reverse_holder_check,
    stability_ratio,
    tilde_a_constant,
    STABILITY_FACTOR,
)

__all__ = ["ExperimentConfig", "SuiteReport", "run_suite", "list_presets", "SUITES"]


@dataclass
class ExperimentConfig:
    n: int = 1
    T: float = 8.0
    m: int = 9
    p: str = "const:2"
    w: str = "const:1"
    suite: str = "E1"
    seed: int = 42
    out: str | None = None
    dict_size: int = 8
    dict_seed: int = 42
    dict_radius: float = 4.0

    def __post_init__(self):
        if not (5 <= self.m <= 12):
            raise PresetError(f"m must lie in [5, 12], got {self.m}")
        if self.dict_size < MIN_DICT_COUNT:
            raise PresetError(f"dictionary size must be at least {MIN_DICT_COUNT}, got {self.dict_size}")
        # the domain and presets must resolve; errors surface as usage errors
        try:
            d = self.domain()
        except ValueError as exc:
            raise PresetError(str(exc)) from exc
        exponent_preset(self.p, d)
        weight_preset(self.w, d)

    def domain(self, level: int | None = None) -> Domain:
        return Domain(self.n, self.T, self.m if level is None else level)


@dataclass
class SuiteReport:
    suite: str
    cases: list[Report]
    environment: dict
    wall_time: float

    @property
    def all_passed(self) -> bool:
        """No case failed and no known gap passed unexpectedly."""
        return all(c.status in ("pass", "xfail") for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "environment": self.environment,
            "cases": [c.row() for c in self.cases],
            "all_passed": self.all_passed,
        }


def _two_res(case: str, quantity: str, fn, cfg: ExperimentConfig, check=None, gap=None) -> Report:
    """Evaluate fn(level) at m and m+1; the case passes when check(ratio)
    holds, by default two-resolution stability."""
    v0 = fn(cfg.m)
    v1 = fn(cfg.m + 1)
    r = stability_ratio(v0, v1)
    passed = check(r) if check else r <= STABILITY_FACTOR
    return Report(case, bool(passed), {quantity: v0}, v1, r, gap)


# the two norms of a band case are equivalent on the bump family within this
# factor: the spread max/min of their ratios stays below it
BAND_BOUND = 4.0


def _band(case: str, ratios, quantity: str = "band_spread") -> Report:
    spread = max(ratios) / min(ratios)
    return Report(case, spread <= BAND_BOUND, {quantity: spread})


def _bump_specs(rng, count, T, centers=None, widths=(0.25, 1.5)):
    """Seeded (centre, width, amplitude) triples, amplitudes in [1/2, 2];
    centres default to +-3T/8, inside the window [-T, T) at every T."""
    centers = centers or (-3 * T / 8, 3 * T / 8)
    return [
        (rng.uniform(*centers), rng.uniform(*widths), rng.uniform(0.5, 2.0))
        for _ in range(count)
    ]


def _bumps(domain, specs):
    return [function_preset(f"bump:{c:.6f},{s:.6f},{a:.6f}", domain) for c, s, a in specs]


# ---------------------------------------------------------------------------
# suites


def suite_e1(cfg: ExperimentConfig, rng) -> list[Report]:
    """Norm sanity: Luxemburg oracle, modular sandwich, Holder, indicators."""
    from scipy.optimize import brentq

    d = cfg.domain()
    cases: list[Report] = []
    x = d.axis()
    # randomized piecewise-constant Luxemburg cases against the root oracle
    worst = 0.0
    for _ in range(12):
        k = int(rng.integers(2, 5))
        edges = np.sort(rng.uniform(-0.75 * cfg.T, 0.75 * cfg.T, size=k + 1))
        heights = rng.uniform(0.2, 4.0, size=k)
        pvals = rng.uniform(0.6, 4.0, size=k)
        fv = np.zeros(d.shape)
        pv = np.full(d.shape, 2.0)
        terms = []
        for i in range(k):
            sel = (x >= edges[i]) & (x < edges[i + 1])
            fv[sel] = heights[i]
            pv[sel] = pvals[i]
            # each piece is a slab across the other axes
            terms.append((float(np.sum(sel)) * d.h * (2 * d.half_width) ** (d.dim - 1), heights[i], pvals[i]))
        p = VariableExponent(GridFunction(d, pv))
        got = luxemburg_norm(GridFunction(d, fv), p)

        def g(lam):
            return sum(L * (c / lam) ** pe for L, c, pe in terms) - 1.0

        hi = 1.0
        while g(hi) > 0:
            hi *= 2
        lo = hi
        while g(lo) < 0 and lo > 1e-200:
            lo /= 2
        want = brentq(g, lo, hi, xtol=1e-14 * lo, rtol=1e-13)  # relative: the root lies in [lo, 2 lo]
        worst = max(worst, abs(got - want) / want)
    cases.append(Report("luxemburg_oracle", worst <= 1e-6, {"max_rel_err": worst}))

    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    sandwich_fail = 0
    for _ in range(10):
        c, s, a = _bump_specs(rng, 1, cfg.T)[0]
        f = function_preset(f"bump:{c:.4f},{s:.4f},{a:.4f}", d)
        for target in (0.5, 1.0, 2.0):
            nrm = luxemburg_norm(f, p, w)
            g2 = (target / nrm) * f
            if not unit_ball_modular_check(g2, p, w).passed:
                sandwich_fail += 1
    cases.append(Report("modular_sandwich", sandwich_fail == 0, {"violations": float(sandwich_fail)}))

    p_h = exponent_preset("sin2", d)
    holder_fail = 0
    sup = np.abs(x) < cfg.T / 2
    for _ in range(25):
        f = GridFunction(d, np.where(sup, rng.normal(size=d.shape), 0.0))
        g3 = GridFunction(d, np.where(sup, rng.normal(size=d.shape), 0.0))
        if not holder_check(f, g3, p_h).passed:
            holder_fail += 1
    cases.append(Report("holder", holder_fail == 0, {"violations": float(holder_fail)}))

    prof = indicator_norm_profile(2, (0,) * d.dim, (3,) * d.dim, exponent_preset("lhdecay:1", d))
    cases.append(Report("indicator_profile", bool(prof.passed), {"vs_p_minus": prof.q("vs_p_minus")}))
    loc = localization_norm(_bumps(d, _bump_specs(rng, 1, cfg.T))[0], exponent_preset("lhdecay:1", d), 0)
    cases.append(Report("localization", np.isfinite(loc), {"norm": loc}))
    return cases


def suite_e2(cfg: ExperimentConfig, rng) -> list[Report]:
    """Maximal operators: covering, sublinearity, restrictions, averaging."""
    d = cfg.domain()
    cases = []
    viol = 0
    for f in _bumps(d, _bump_specs(rng, 5, cfg.T)):
        total = np.zeros(d.shape)
        for a in all_shifts(d.dim):
            total += max_mod.grid_maximal(f, a).samples
        if not np.all(max_mod.hl_maximal(f).samples <= 6.0**d.dim * total + 1e-12):
            viol += 1
    cases.append(Report("covering", viol == 0, {"violations": float(viol)}))

    f = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    g = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    sub = np.max(
        max_mod.hl_maximal(f + g).samples
        - max_mod.hl_maximal(f).samples
        - max_mod.hl_maximal(g).samples
    )
    cases.append(Report("sublinearity", sub <= 1e-10, {"max_excess": float(sub)}))

    rng2 = np.random.default_rng(cfg.seed + 1)
    h_arr = np.abs(rng2.normal(size=d.shape))
    hgf = GridFunction(d, h_arr)
    below = max_mod.restricted_dyadic_maximal(hgf, 2 * d.half_width, "below")
    above = max_mod.restricted_dyadic_maximal(hgf, d.h, "above")
    full = max_mod.grid_maximal(hgf, (MAIN_GRID_SHIFT,) * d.dim)
    err = float(np.max(np.abs(np.maximum(below.samples, above.samples) - full.samples)))
    cases.append(Report("restricted_union", err <= 1e-12, {"max_err": err}))

    ek = max_mod.averaging_e_k(hgf, 4)
    dom_err = float(np.max(np.abs(ek.samples) - max_mod.restricted_dyadic_maximal(hgf, 2.0**-4, "below").samples))
    cases.append(Report("averaging_dominated", dom_err <= 1e-12, {"max_excess": dom_err}))

    w = weight_preset(cfg.w, d)
    f2 = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    mono = np.min(
        max_mod.powered_weighted_local_maximal(f2, w, 2.0).samples
        - max_mod.powered_weighted_local_maximal(f2, w, 0.5).samples
    )
    cases.append(Report("powered_monotone_u", mono >= -1e-10, {"min_gap": float(mono)}))
    return cases


def suite_e3(cfg: ExperimentConfig, rng) -> list[Report]:
    """Constant-exponent weight classes and the self-improvement bound."""
    cases = []
    for spec in ("const:1", "power:-1", "power:3", "absp:0.5"):
        cases.append(
            _two_res(
                f"a_infty[{spec}]",
                "constant",
                lambda lvl, s=spec: a_loc_infty_constant(
                    weight_preset(s, cfg.domain(lvl))
                ).constant,
                cfg,
            )
        )
    cases.append(
        _two_res(
            "a_p[absp:0.5,p=2]",
            "constant",
            lambda lvl: a_loc_p_constant(weight_preset("absp:0.5", cfg.domain(lvl)), 2.0).constant,
            cfg,
        )
    )
    # |x|^alpha lies in A_2 iff alpha < n; at alpha = 2n the blow-up
    # detector must fire
    steep = f"absp:{2 * cfg.n}"
    cases.append(
        _two_res(
            f"a_p[{steep},p=2]",
            "constant",
            lambda lvl: a_loc_p_constant(weight_preset(steep, cfg.domain(lvl)), 2.0).constant,
            cfg,
            check=lambda r: r >= 2.0 * (1 - 1e-3),
        )
    )
    for spec in ("const:1", "power:-0.5", "power:-1"):
        rep = reverse_holder_check(weight_preset(spec, cfg.domain()))
        cases.append(Report(f"reverse_holder[{spec}]", bool(rep.passed), {"worst_ratio": rep.q("worst_ratio")}))
    d = cfg.domain()
    w1 = weight_preset("power:-0.5", d)
    c1 = a_loc_p_constant(w1, 2.0).constant
    c2 = a_loc_p_constant(Weight(GridFunction(d, 5.0 * w1.values.samples)), 2.0).constant
    drift = abs(c2 / c1 - 1.0)
    cases.append(Report("scale_invariance", drift <= 1e-9, {"rel_drift": drift}))
    return cases


def suite_e4(cfg: ExperimentConfig, rng) -> list[Report]:
    """Variable-exponent classes: constants, monotonicity, critical index."""
    cases = []
    exponents = ("const:2", "const:3", "sin2", "lhdecay:1")
    weights = ("const:1", "power:1", "power:-0.5", "absp:0.5")
    for wspec in weights:
        for pspec in exponents:
            base = _two_res(
                f"a_var[{wspec};{pspec}]",
                "constant",
                lambda lvl: a_loc_var_constant(
                    weight_preset(wspec, cfg.domain(lvl)),
                    exponent_preset(pspec, cfg.domain(lvl)),
                ).constant,
                cfg,
            )
            cases.append(base)
            if base.passed:  # monotonicity: q(.) = p(.) + 1/2 inherits stability
                p0 = exponent_preset(pspec, cfg.domain())
                shifted = _two_res(
                    f"a_var_shifted[{wspec};{pspec}+0.5]",
                    "constant",
                    lambda lvl: a_loc_var_constant(
                        weight_preset(wspec, cfg.domain(lvl)),
                        _shift_exponent(exponent_preset(pspec, cfg.domain(lvl)), 0.5),
                    ).constant,
                    cfg,
                )
                cases.append(shifted)
    d = cfg.domain()
    # q_w of |x|^alpha is 1 + alpha / n
    for wspec, want, tol in (("const:1", 1.0, 1.1 / 32), ("absp:0.5", 1 + 0.5 / d.dim, 0.1), ("power:-0.5", 1.0, 1.1 / 32)):
        q = q_w_estimate(weight_preset(wspec, d))
        cases.append(Report(f"q_w[{wspec}]", abs(q - want) <= tol, {"index": q}))
    p = exponent_preset("lhdecay:1", d)
    for mu in (-0.5, 0.0, 1.0, 2.0):
        w = weight_preset(f"power:{mu}", d)
        ta = tilde_a_constant(w, p, max_side=1.0).constant
        av = a_loc_var_constant(w, p).constant
        agree = bool(np.isfinite(ta) == np.isfinite(av))
        cases.append(Report(f"tilde_cofinite[mu={mu}]", agree, {"tilde": ta}))
        cases.append(Report(f"a_var_cofinite[mu={mu}]", agree, {"constant": av}))
    return cases


def _shift_exponent(p: VariableExponent, delta: float) -> VariableExponent:
    return VariableExponent(
        GridFunction(p.domain, p.values.samples + delta),
        None if p.p_infty is None else p.p_infty + delta,
    )


def suite_e5(cfg: ExperimentConfig, rng) -> list[Report]:
    """Operator boundedness probes at two resolutions."""
    cases = []
    specs = _bump_specs(rng, 10, cfg.T)
    spikes = [(0.7, 0.0, 0.5), (1.2, 0.0, 0.5)]

    def family(domain):
        fam = _bumps(domain, specs)
        fam += [function_preset(f"spike:{a},{c},{s}", domain) for a, c, s in spikes]
        fam.append(function_preset("delta", domain))
        return fam

    def ratio_at(lvl, wspec):
        domain = cfg.domain(lvl)
        p = VariableExponent.constant(domain, 2.0)
        w = weight_preset(wspec, domain)
        rep = max_mod.boundedness_probe(max_mod.local_maximal, p, w, family(domain))
        return rep.q("operator_norm")

    cases.append(_two_res("mloc_ratio[absp:0.5]", "operator_norm", lambda l: ratio_at(l, "absp:0.5"), cfg))
    # |x|^{n + 1/2} lies outside A_2, so the growth detector must fire: >= 2x
    # is demanded, about 1.18 is measured in 1-D and 1.24 in 2-D
    steep = f"absp:{cfg.n + 0.5}"
    cases.append(_two_res(f"mloc_ratio[{steep}]", "operator_norm", lambda l: ratio_at(l, steep), cfg,
                          check=lambda r: r >= 2.0,
                          gap=f"the grid A_2 constant of the clamped |x|^{{{2 * cfg.n + 1}/2}} caps the growth at sqrt(2) per level"))

    fam_specs = [_bump_specs(rng, 8, cfg.T) for _ in range(5)]

    def vv_at(lvl):
        domain = cfg.domain(lvl)
        pv = exponent_preset("lhdecay:1", domain)
        wv = weight_preset("power:1", domain)
        return max(
            max_mod.vector_valued_maximal_ratio(_bumps(domain, fs), 2.0, pv, wv).q("ratio")
            for fs in fam_specs
        )

    cases.append(_two_res("vector_valued", "max_ratio", vv_at, cfg))
    d = cfg.domain()

    delta = function_preset("delta", d)
    kb = max_mod.k_b_operator(delta, 16.0)
    err = float(np.max(np.abs(kb.samples - np.exp(-16.0 * d.radius()))))
    cases.append(Report("kb_kernel", err <= 2 * d.h, {"max_err": err}))

    dom_consts = []
    for f in _bumps(d, _bump_specs(rng, 5, cfg.T)):
        rep = max_mod.peak_majorant_domination(f, 3, 2.0, 8.0)
        dom_consts.append(rep.q("constant"))
        if not rep.passed:
            cases.append(Report("peak_majorant", False, {"leak": rep.q("outside_support_leak")}))
    cases.append(Report("peak_majorant", True, {"max_constant": float(np.max(dom_consts))}))
    return cases


# nested_dictionaries draws profiles 5, 6, ... from the seed, and a large
# dictionary of count members uses profiles up to count - count // 2 - 1, so
# the seed reaches both of its halves from 12 members on
SEEDED_DICT_SIZE = 12


def _seed_dictionaries(cfg: ExperimentConfig, d: Domain) -> tuple[TestDictionary, TestDictionary]:
    """The large dictionaries of dict_seed and dict_seed + 1 that E6 compares,
    at a size where seeded members enter."""
    size = max(cfg.dict_size, SEEDED_DICT_SIZE)
    return tuple(nested_dictionaries(2, size, d, s, cfg.dict_radius)[1] for s in (cfg.dict_seed, cfg.dict_seed + 1))


def suite_e6(cfg: ExperimentConfig, rng) -> list[Report]:
    """Grand maximal functions and the point-mass membership criterion."""
    d = cfg.domain()
    small, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    cases = []
    f = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    m0 = grand_maximal(f, small, "M0").samples
    mb = grand_maximal(f, large, "Mbar0").samples
    mn = grand_maximal(f, large, "MN").samples
    chain_ok = bool(np.all(m0 <= mb + 1e-12) and np.all(mb <= mn + 1e-12))
    cases.append(Report("grand_chain", chain_ok, {"violations": 0.0 if chain_ok else 1.0}))

    delta = function_preset("delta", d)
    prof = grand_maximal(delta, small, "M0").samples
    ray = prof[(slice(None),) + (d.half_npts,) * (d.dim - 1)]  # the first axis, others at 0
    x = d.axis()
    # from 2h on the profile is dyadically self-similar, M(2x) = 2^-n M(x);
    # a fit over a single octave (4h to 1/4 at m = 5) is biased by its ripple
    sel = (x >= 2 * d.h) & (x <= 0.25)
    slope = float(np.polyfit(np.log(x[sel]), np.log(ray[sel]), 1)[0])
    cases.append(Report("delta_slope", abs(slope + d.dim) <= 0.15, {"loglog_slope": slope}))

    def radial(g):
        return Weight.from_callable(d, lambda *xs: g(_radius(*xs)), midpoint=True)

    couples = [
        ("paper91/const", exponent_preset("paper91", d), radial(np.ones_like), True),
        ("const2/rational", exponent_preset("const:2", d), radial(lambda r: r ** (d.dim + 1) / (1 + r ** (2 * d.dim + 1))), True),
        ("const2/exp", exponent_preset("const:2", d), radial(lambda r: r ** (d.dim + 1) * np.exp(r)), True),
        ("const2/const", exponent_preset("const:2", d), weight_preset("const:1", d), False),
    ]
    for name, p, w, want in couples:
        rep = dirac_membership_check(p, w)
        cases.append(Report(f"dirac[{name}]", rep.passed == want, {"ratio": rep.q("ratio")}))

    p2 = VariableExponent.constant(d, 2.0)
    w2 = weight_preset("const:1", d)
    ratios = [
        hardy_norm(f, p2, w2, large) / lq_norm(f, 2.0)
        for f in _bumps(d, _bump_specs(rng, 6, cfg.T))
    ]
    cases.append(_band("hardy_vs_l2", ratios))

    ours, other = _seed_dictionaries(cfg, d)
    g = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    r = hardy_norm(g, p2, w2, ours) / hardy_norm(g, p2, w2, other)
    cases.append(Report("dict_seed_stability", 0.5 <= r <= 2.0, {"norm_ratio": r}))
    return cases


def suite_e7(cfg: ExperimentConfig, rng) -> list[Report]:
    """Whitney geometry, good/bad split and the atomic round trip."""
    d = cfg.domain()
    _, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    cases = []
    # supports must stay clear of the window edge: the grand maximal
    # function reaches (1 + dictionary radius) beyond the support
    atom_specs = dict(centers=(-1.5, 1.5), widths=(0.25, 1.2))
    worst_recon = 0.0
    worst_whitney = 0
    overlaps = []
    for f in _bumps(d, _bump_specs(rng, 4, cfg.T, **atom_specs)):
        mn = grand_maximal(f, large, "MN").samples
        lam = float(np.median(mn[mn > 0]))
        om = GridFunction(d, (mn > lam).astype(float))
        good, cubes, (lo, shape, bad) = atoms_mod.cz_decompose(f, om, 1)
        # np.add.at adds in index order: every point sums its bad parts in cube order
        recon = good.samples.copy()
        np.add.at(recon.reshape(-1), atoms_mod._box_points(d, lo, shape), bad)
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - f.samples))) / max(f.sup(), 1e-300))
        rep = atoms_mod.whitney_geometry_report(om, cubes)
        worst_whitney += int(rep.q("violations"))
        overlaps.append(rep.q("max_dilated_overlap"))
    cases.append(Report("cz_exactness", worst_recon <= 1e-10, {"max_rel_err": worst_recon}))
    cases.append(Report("whitney_bounds", worst_whitney == 0, {"violations": float(worst_whitney)}))
    cases.append(Report("whitney_overlap", True, {"max_count": float(np.max(overlaps))}))

    p = VariableExponent.constant(d, 2.0)
    w = weight_preset("const:1", d)
    ratios = []
    worst_err = 0.0
    invalid = 0
    for f in _bumps(d, _bump_specs(rng, 3, cfg.T, **atom_specs)):
        dec = atoms_mod.atomic_decompose(f, p, w, large, L=1)
        out = atoms_mod.synthesize(dec)
        worst_err = max(worst_err, lq_norm(out - f, 2.0) / lq_norm(f, 2.0))
        invalid += int(np.count_nonzero(~atoms_mod.validate_atoms(dec, w)))
        a_norm = atoms_mod.sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
        ratios.append(a_norm / hardy_norm(f, p, w, large))
    cases.append(Report("atomic_round_trip", worst_err <= 0.05, {"max_rel_err": worst_err}))
    cases.append(Report("atomic_validity", invalid == 0, {"invalid_atoms": float(invalid)}))
    cases.append(_band("atomic_norm_band", ratios, "spread"))

    # sensitivity of the level sets to the dictionary radius (4 vs 8); the
    # radius-8 reach needs a window twice as wide before the level sets
    # regain an exterior
    d16 = Domain(d.dim, 2 * d.half_width, d.level)
    f = _bumps(d16, _bump_specs(rng, 1, cfg.T, centers=(-1.0, 1.0), widths=(0.4, 0.9)))[0]
    p16 = VariableExponent.constant(d16, 2.0)
    w16 = weight_preset("const:1", d16)
    _, four = nested_dictionaries(2, cfg.dict_size, d16, cfg.dict_seed, 4.0)
    _, wide = nested_dictionaries(2, cfg.dict_size, d16, cfg.dict_seed, 8.0)
    dec4 = atoms_mod.atomic_decompose(f, p16, w16, four, L=1)
    dec8 = atoms_mod.atomic_decompose(f, p16, w16, wide, L=1)
    n4 = atoms_mod.sequence_norm(dec4.lambdas, dec4.cubes, p16, w16, dec4.v)
    n8 = atoms_mod.sequence_norm(dec8.lambdas, dec8.cubes, p16, w16, dec8.v)
    r = n4 / n8
    cases.append(Report("radius_sensitivity", 0.2 <= r <= 5.0, {"norm_ratio_4_over_8": r}))
    return cases


def suite_e8(cfg: ExperimentConfig, rng) -> list[Report]:
    """Scale-difference kernels: telescoping, square function, norm band."""
    d = cfg.domain()
    cases = []
    phi, phi_star = lp_mod.make_phi_pair(2, d)
    worst_tel = 0.0
    rng2 = np.random.default_rng(cfg.seed + 2)
    for J in (1, 3, d.level - 3):
        f = GridFunction(d, rng2.normal(size=d.shape))
        _, rep = lp_mod.telescoping_reconstruct(f, phi, J=J)
        worst_tel = max(worst_tel, rep.q("telescope_error"))
    cases.append(Report("telescoping", worst_tel <= 1e-10, {"max_err": worst_tel}))

    f = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    _, rep = lp_mod.telescoping_reconstruct(f, phi, J=d.level - 3)
    err = rep.q("relative_l2_error")
    cases.append(Report("mollification", err <= 0.01, {"rel_l2_err": err}))

    _, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    p = VariableExponent.constant(d, 2.0)
    ratios = [
        lp_mod.lp_norm(g, p, None, phi, phi_star) / lq_norm(g, 2.0)
        for g in _bumps(d, _bump_specs(rng, 6, cfg.T))
    ]
    cases.append(_band("lp_vs_l2", ratios))

    pv = exponent_preset("lhdecay:1", d)
    wv = weight_preset("power:1", d)
    ratios2 = [
        lp_mod.lp_norm(g, pv, wv, phi, phi_star) / hardy_norm(g, pv, wv, large)
        for g in _bumps(d, _bump_specs(rng, 6, cfg.T))
    ]
    cases.append(_band("lp_vs_hardy", ratios2))

    # moment order sweep: equivalence quality for L in {0, 1, 2, 4}
    g = _bumps(d, _bump_specs(rng, 1, cfg.T))[0]
    hn = hardy_norm(g, p, None, large)
    for L in (0, 1, 2, 4):
        phL, phsL = lp_mod.make_phi_pair(L, d)
        r = lp_mod.lp_norm(g, p, None, phL, phsL) / hn
        cases.append(Report(f"order_sweep[L={L}]", 0.05 <= r <= 20.0, {"lp_over_hardy": r}))
    return cases


def suite_e9(cfg: ExperimentConfig, rng) -> list[Report]:
    """Wavelet transform identities and the two-term norm band."""
    d = cfg.domain()
    cases = []
    sys = wav_mod.build_wavelet_system(2)
    rng2 = np.random.default_rng(cfg.seed + 3)
    f = GridFunction(d, rng2.normal(size=d.shape))
    co = wav_mod.analyze(f, sys, 0)
    back = wav_mod.synthesize_coefficients(co)
    pr_err = float(np.max(np.abs(back.samples - f.samples)))
    cases.append(Report("perfect_reconstruction", pr_err <= 1e-10, {"max_err": pr_err}))
    l2sq = d.h**d.dim * float(np.sum(f.samples**2))
    err = abs(co.energy() - l2sq)
    cases.append(Report("parseval", err <= 1e-8, {"abs_err": err}))
    vf = wav_mod.v_function(f, sys, 0)
    wf = wav_mod.w_function(f, sys, 0)
    part = abs(lq_norm(vf, 2.0) ** 2 + lq_norm(wf, 2.0) ** 2 - l2sq)
    cases.append(Report("vw_partition", part <= 1e-7, {"abs_err": part}))

    p = VariableExponent.constant(d, 2.0)
    ratios = [
        wav_mod.wavelet_norm(g, p, None, sys) / lq_norm(g, 2.0)
        for g in _bumps(d, _bump_specs(rng, 6, cfg.T))
    ]
    cases.append(_band("wavelet_vs_l2[J=0]", ratios))

    _, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    pv = exponent_preset("lhdecay:1", d)
    wv = weight_preset("power:1", d)
    ratios2 = [
        wav_mod.wavelet_norm(g, pv, wv, sys) / hardy_norm(g, pv, wv, large)
        for g in _bumps(d, _bump_specs(rng, 6, cfg.T))
    ]
    cases.append(_band("wavelet_vs_hardy[J=0]", ratios2))
    return cases


SUITES = {
    "E1": suite_e1,
    "E2": suite_e2,
    "E3": suite_e3,
    "E4": suite_e4,
    "E5": suite_e5,
    "E6": suite_e6,
    "E7": suite_e7,
    "E8": suite_e8,
    "E9": suite_e9,
}


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Execute one suite, write JSON and CSV reports, return the result."""
    if cfg.suite not in SUITES:
        raise PresetError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    cases = SUITES[cfg.suite](cfg, rng)
    wall = time.perf_counter() - t0
    report = SuiteReport(
        cfg.suite,
        cases,
        {
            "n": cfg.n,
            "T": cfg.T,
            "m": cfg.m,
            "p": cfg.p,
            "w": cfg.w,
            "seed": cfg.seed,
            "dict": {"size": cfg.dict_size, "seed": cfg.dict_seed, "rD": cfg.dict_radius},
            "version": __version__,
        },
        wall,
    )
    if cfg.out:
        write_report(report, cfg.out)
    return report


def write_report(report: SuiteReport, out: str | Path) -> None:
    out = Path(out)
    doc = report.to_json_dict()
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    doc["wall_time_s"] = round(report.wall_time, 3)
    out.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    rows = [c.row() for c in report.cases]
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        # the `passed` field keeps its historical CSV column name `pass`
        wr.writerow(["suite", *("pass" if k == "passed" else k for k in rows[0])])
        for row in rows:
            wr.writerow([report.suite, *("" if v is None else v for v in row.values())])


def list_presets() -> str:
    """Stable-ordered preset listing for the command line."""
    lines = []
    for family, keys in preset_catalog().items():
        lines.append(f"{family}:")
        for k in keys:
            lines.append(f"  {k}")
    lines.append("suites:")
    for s in sorted(SUITES):
        lines.append(f"  {s}")
    return "\n".join(lines)
