"""Experiment configuration, probe suites and report serialization.

Each suite runs a themed batch of probes on preset-built inputs and emits
one row per measured quantity.  The universal finiteness proxy is the
two-resolution protocol: quantities are computed at levels m and m+1 and
the ratio is reported next to the values, so every report row carries its
own stability evidence.  Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import atoms as atoms_mod
from . import littlewood_paley as lp_mod
from . import maximal as max_mod
from . import wavelets as wav_mod
from .exponent import VariableExponent
from .grid import Cube, Domain, GridFunction, all_shifts
from .hardy import (
    build_dictionary,
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
from .presets import PresetError, exponent_preset, function_preset, weight_preset, preset_catalog
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
    stability_factor: float = STABILITY_FACTOR
    dict_size: int = 8
    dict_seed: int = 42
    dict_radius: float = 4.0

    def __post_init__(self):
        if not (5 <= self.m <= 12):
            raise PresetError(f"m must lie in [5, 12], got {self.m}")
        # presets must resolve; errors surface as usage errors
        d = self.domain()
        exponent_preset(self.p, d)
        weight_preset(self.w, d)

    def domain(self, level: int | None = None) -> Domain:
        return Domain(self.n, self.T, self.m if level is None else level)


@dataclass
class Case:
    case: str
    quantity: str
    value_m: float
    value_m1: float | None = None
    ratio: float | None = None
    passed: bool = True


@dataclass
class SuiteReport:
    suite: str
    cases: list[Case]
    environment: dict
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_dict(self) -> dict:
        def clean(c: Case) -> dict:
            return {
                "case": c.case,
                "quantity": c.quantity,
                "value_m": float(c.value_m),
                "value_m1": None if c.value_m1 is None else float(c.value_m1),
                "ratio": None if c.ratio is None else float(c.ratio),
                "passed": bool(c.passed),
            }

        return {
            "suite": self.suite,
            "environment": self.environment,
            "cases": [clean(c) for c in self.cases],
            "all_passed": bool(self.all_passed),
        }


def _two_res(case: str, quantity: str, fn, cfg: ExperimentConfig, threshold=None) -> Case:
    """Evaluate fn(level) at m and m+1 and flag two-resolution stability."""
    v0 = fn(cfg.m)
    v1 = fn(cfg.m + 1)
    r = stability_ratio(v0, v1)
    thr = threshold if threshold is not None else cfg.stability_factor
    return Case(case, quantity, v0, v1, r, bool(r <= thr))


def _bump_specs(rng, count, centers=(-3, 3), widths=(0.25, 1.5), amps=(0.5, 2.0)):
    return [
        (rng.uniform(*centers), rng.uniform(*widths), rng.uniform(*amps))
        for _ in range(count)
    ]


def _bumps(domain, specs):
    return [function_preset(f"bump:{c:.6f},{s:.6f},{a:.6f}", domain) for c, s, a in specs]


# ---------------------------------------------------------------------------
# suites


def suite_e1(cfg: ExperimentConfig, rng) -> list[Case]:
    """Norm sanity: Luxemburg oracle, modular sandwich, Holder, indicators."""
    from scipy.optimize import brentq

    d = cfg.domain()
    cases: list[Case] = []
    x = d.axis()
    # randomized piecewise-constant Luxemburg cases against the root oracle
    worst = 0.0
    for _ in range(12):
        k = int(rng.integers(2, 5))
        edges = np.sort(rng.uniform(-6, 6, size=k + 1))
        heights = rng.uniform(0.2, 4.0, size=k)
        pvals = rng.uniform(0.6, 4.0, size=k)
        fv = np.zeros(d.shape)
        pv = np.full(d.shape, 2.0)
        terms = []
        for i in range(k):
            sel = (x >= edges[i]) & (x < edges[i + 1])
            fv[sel] = heights[i]
            pv[sel] = pvals[i]
            terms.append((float(np.sum(sel)) * d.h, heights[i], pvals[i]))
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
    cases.append(Case("luxemburg_oracle", "max_rel_err", worst, None, None, worst <= 1e-6))

    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    sandwich_fail = 0
    for _ in range(10):
        c, s, a = _bump_specs(rng, 1)[0]
        f = function_preset(f"bump:{c:.4f},{s:.4f},{a:.4f}", d)
        for target in (0.5, 1.0, 2.0):
            nrm = luxemburg_norm(f, p, w)
            g2 = (target / nrm) * f
            if not unit_ball_modular_check(g2, p, w).passed:
                sandwich_fail += 1
    cases.append(
        Case("modular_sandwich", "violations", float(sandwich_fail), None, None, sandwich_fail == 0)
    )

    p_h = exponent_preset("sin2", d)
    holder_fail = 0
    sup = np.abs(x) < 4
    for _ in range(25):
        f = GridFunction(d, np.where(sup, rng.normal(size=d.shape), 0.0))
        g3 = GridFunction(d, np.where(sup, rng.normal(size=d.shape), 0.0))
        if not holder_check(f, g3, p_h).passed:
            holder_fail += 1
    cases.append(Case("holder", "violations", float(holder_fail), None, None, holder_fail == 0))

    prof = indicator_norm_profile(Cube(2, (0,), (3,)), exponent_preset("lhdecay:1", d))
    cases.append(
        Case("indicator_profile", "vs_p_minus", prof.q("vs_p_minus"), None, None, bool(prof.passed))
    )
    loc = localization_norm(_bumps(d, _bump_specs(rng, 1))[0], exponent_preset("lhdecay:1", d), 0)
    cases.append(Case("localization", "norm", loc, None, None, np.isfinite(loc)))
    return cases


def suite_e2(cfg: ExperimentConfig, rng) -> list[Case]:
    """Maximal operators: covering, sublinearity, restrictions, averaging."""
    d = cfg.domain()
    cases = []
    viol = 0
    for f in _bumps(d, _bump_specs(rng, 5)):
        total = np.zeros(d.shape)
        for a in all_shifts(d.dim):
            total += max_mod.grid_maximal(f, a).samples
        if not np.all(max_mod.hl_maximal(f).samples <= 6.0**d.dim * total + 1e-12):
            viol += 1
    cases.append(Case("covering", "violations", float(viol), None, None, viol == 0))

    f = _bumps(d, _bump_specs(rng, 1))[0]
    g = _bumps(d, _bump_specs(rng, 1))[0]
    sub = np.max(
        max_mod.hl_maximal(f + g).samples
        - max_mod.hl_maximal(f).samples
        - max_mod.hl_maximal(g).samples
    )
    cases.append(Case("sublinearity", "max_excess", float(sub), None, None, sub <= 1e-10))

    rng2 = np.random.default_rng(cfg.seed + 1)
    h_arr = np.abs(rng2.normal(size=d.shape))
    hgf = GridFunction(d, h_arr)
    below = max_mod.restricted_dyadic_maximal(hgf, 2 * d.half_width, "below")
    above = max_mod.restricted_dyadic_maximal(hgf, d.h, "above")
    full = max_mod.grid_maximal(hgf, (1,) * d.dim)
    err = float(np.max(np.abs(np.maximum(below.samples, above.samples) - full.samples)))
    cases.append(Case("restricted_union", "max_err", err, None, None, err <= 1e-12))

    ek = max_mod.averaging_e_k(hgf, 4)
    dom_err = float(np.max(np.abs(ek.samples) - max_mod.restricted_dyadic_maximal(hgf, 2.0**-4, "below").samples))
    cases.append(Case("averaging_dominated", "max_excess", dom_err, None, None, dom_err <= 1e-12))

    w = weight_preset(cfg.w, d)
    f2 = _bumps(d, _bump_specs(rng, 1))[0]
    mono = np.min(
        max_mod.powered_weighted_local_maximal(f2, w, 2.0).samples
        - max_mod.powered_weighted_local_maximal(f2, w, 0.5).samples
    )
    cases.append(Case("powered_monotone_u", "min_gap", float(mono), None, None, mono >= -1e-10))
    return cases


def suite_e3(cfg: ExperimentConfig, rng) -> list[Case]:
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
    blow = _two_res(
        "a_p[absp:2,p=2]",
        "constant",
        lambda lvl: a_loc_p_constant(weight_preset("absp:2", cfg.domain(lvl)), 2.0).constant,
        cfg,
    )
    blow.passed = blow.ratio >= 2.0 * (1 - 1e-3)  # the blow-up detector must fire
    cases.append(blow)
    for spec in ("const:1", "power:-0.5", "power:-1"):
        rep = reverse_holder_check(weight_preset(spec, cfg.domain()))
        cases.append(
            Case(f"reverse_holder[{spec}]", "worst_ratio", rep.q("worst_ratio"), None, None, bool(rep.passed))
        )
    d = cfg.domain()
    w1 = weight_preset("power:-0.5", d)
    c1 = a_loc_p_constant(w1, 2.0).constant
    c2 = a_loc_p_constant(Weight(GridFunction(d, 5.0 * w1.values.samples)), 2.0).constant
    drift = abs(c2 / c1 - 1.0)
    cases.append(Case("scale_invariance", "rel_drift", drift, None, None, drift <= 1e-9))
    return cases


def suite_e4(cfg: ExperimentConfig, rng) -> list[Case]:
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
    for wspec, want, tol in (("const:1", 1.0, 1.1 / 32), ("absp:0.5", 1.5, 0.1), ("power:-0.5", 1.0, 1.1 / 32)):
        q = q_w_estimate(weight_preset(wspec, d))
        cases.append(Case(f"q_w[{wspec}]", "index", q, None, None, abs(q - want) <= tol))
    p = exponent_preset("lhdecay:1", d)
    for mu in (-0.5, 0.0, 1.0, 2.0):
        w = weight_preset(f"power:{mu}", d)
        ta = tilde_a_constant(w, p, max_side=1.0).constant
        av = a_loc_var_constant(w, p).constant
        agree = np.isfinite(ta) == np.isfinite(av)
        cases.append(Case(f"tilde_cofinite[mu={mu}]", "tilde", ta, av, None, bool(agree)))
    return cases


def _shift_exponent(p: VariableExponent, delta: float) -> VariableExponent:
    gen = p.generator
    shifted = (lambda *xs: np.asarray(gen(*xs)) + delta) if gen else None
    return VariableExponent(
        GridFunction(p.domain, p.values.samples + delta),
        None if p.p_infty is None else p.p_infty + delta,
        generator=shifted,
    )


def suite_e5(cfg: ExperimentConfig, rng) -> list[Case]:
    """Operator boundedness probes at two resolutions."""
    cases = []
    specs = _bump_specs(rng, 10)
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

    stable = _two_res("mloc_ratio[absp:0.5]", "operator_norm", lambda l: ratio_at(l, "absp:0.5"), cfg)
    cases.append(stable)
    growing = _two_res("mloc_ratio[absp:1.5]", "operator_norm", lambda l: ratio_at(l, "absp:1.5"), cfg)
    growing.passed = growing.ratio >= 2.0  # failure detector must fire
    cases.append(growing)

    fam_specs = [_bump_specs(rng, 8) for _ in range(5)]

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
    cases.append(Case("kb_kernel", "max_err", err, None, None, err <= 2 * d.h))

    dom_consts = []
    for f in _bumps(d, _bump_specs(rng, 5)):
        rep = max_mod.peak_majorant_domination(f, 3, 2.0, 8.0)
        dom_consts.append(rep.q("constant"))
        if not rep.passed:
            cases.append(Case("peak_majorant", "leak", rep.q("outside_support_leak"), None, None, False))
    cases.append(
        Case("peak_majorant", "max_constant", float(np.max(dom_consts)), None, None, True)
    )
    return cases


def suite_e6(cfg: ExperimentConfig, rng) -> list[Case]:
    """Grand maximal functions and the point-mass membership criterion."""
    d = cfg.domain()
    small, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    cases = []
    f = _bumps(d, _bump_specs(rng, 1))[0]
    m0 = grand_maximal(f, small, "M0").samples
    mb = grand_maximal(f, large, "Mbar0").samples
    mn = grand_maximal(f, large, "MN").samples
    chain_ok = bool(np.all(m0 <= mb + 1e-12) and np.all(mb <= mn + 1e-12))
    cases.append(Case("grand_chain", "violations", 0.0 if chain_ok else 1.0, None, None, chain_ok))

    delta = function_preset("delta", d)
    prof = grand_maximal(delta, small, "M0").samples
    x = d.axis()
    sel = (x >= 4 * d.h) & (x <= 0.25)
    slope = float(np.polyfit(np.log(x[sel]), np.log(prof[sel]), 1)[0])
    cases.append(Case("delta_slope", "loglog_slope", slope, None, None, abs(slope + d.dim) <= 0.15))

    couples = [
        ("paper91/const", exponent_preset("paper91", d), Weight.from_callable(d, lambda t: np.ones_like(np.asarray(t, dtype=float)), midpoint=True), True),
        ("const2/rational", exponent_preset("const:2", d), Weight.from_callable(d, lambda t: np.abs(t) ** (d.dim + 1) / (1 + np.abs(t) ** (2 * d.dim + 1)), midpoint=True), True),
        ("const2/exp", exponent_preset("const:2", d), Weight.from_callable(d, lambda t: np.abs(t) ** (d.dim + 1) * np.exp(np.abs(t)), midpoint=True), True),
        ("const2/const", exponent_preset("const:2", d), weight_preset("const:1", d), False),
    ]
    for name, p, w, want in couples:
        rep = dirac_membership_check(p, w)
        cases.append(Case(f"dirac[{name}]", "ratio", rep.q("ratio"), None, None, rep.passed == want))

    p2 = VariableExponent.constant(d, 2.0)
    w2 = weight_preset("const:1", d)
    ratios = [
        hardy_norm(f, p2, w2, large) / lq_norm(f, 2.0)
        for f in _bumps(d, _bump_specs(rng, 6))
    ]
    band = max(ratios) / min(ratios)
    cases.append(Case("hardy_vs_l2", "band_spread", band, None, None, band <= 4.0))

    other = build_dictionary(2, "large", cfg.dict_size, d, cfg.dict_seed + 1, cfg.dict_radius)
    g = _bumps(d, _bump_specs(rng, 1))[0]
    r = hardy_norm(g, p2, w2, large) / hardy_norm(g, p2, w2, other)
    cases.append(Case("dict_seed_stability", "norm_ratio", r, None, None, 0.5 <= r <= 2.0))
    return cases


def suite_e7(cfg: ExperimentConfig, rng) -> list[Case]:
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
    for f in _bumps(d, _bump_specs(rng, 4, **atom_specs)):
        mn = grand_maximal(f, large, "MN").samples
        lam = float(np.median(mn[mn > 0]))
        good, bad = atoms_mod.cz_decompose(f, lam, large, 1)
        recon = good.samples.copy()
        for _, b in bad:
            b.add_into(recon)
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - f.samples))) / max(f.sup(), 1e-300))
        om = GridFunction(d, (mn > lam).astype(float))
        rep = atoms_mod.whitney_geometry_report(om, [c for c, _ in bad])
        worst_whitney += int(rep.q("violations"))
        overlaps.append(rep.q("max_dilated_overlap"))
    cases.append(Case("cz_exactness", "max_rel_err", worst_recon, None, None, worst_recon <= 1e-10))
    cases.append(Case("whitney_bounds", "violations", float(worst_whitney), None, None, worst_whitney == 0))
    cases.append(Case("whitney_overlap", "max_count", float(np.max(overlaps)), None, None, True))

    p = VariableExponent.constant(d, 2.0)
    w = weight_preset("const:1", d)
    ratios = []
    worst_err = 0.0
    invalid = 0
    for f in _bumps(d, _bump_specs(rng, 3, **atom_specs)):
        dec = atoms_mod.atomic_decompose(f, p, w, large, L=1)
        out = atoms_mod.synthesize(dec)
        worst_err = max(worst_err, lq_norm(out - f, 2.0) / lq_norm(f, 2.0))
        invalid += sum(0 if atoms_mod.validate_atom(a, w, p).passed else 1 for a in dec.atoms)
        a_norm = atoms_mod.sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
        ratios.append((dec.single_part[0] + a_norm) / hardy_norm(f, p, w, large))
    cases.append(Case("atomic_round_trip", "max_rel_err", worst_err, None, None, worst_err <= 0.05))
    cases.append(Case("atomic_validity", "invalid_atoms", float(invalid), None, None, invalid == 0))
    band = max(ratios) / min(ratios)
    cases.append(Case("atomic_norm_band", "spread", band, None, None, band <= 4.0))

    # sensitivity of the level sets to the dictionary radius (4 vs 8); the
    # radius-8 reach needs a window twice as wide before the level sets
    # regain an exterior
    d16 = Domain(d.dim, 2 * d.half_width, d.level)
    f = _bumps(d16, _bump_specs(rng, 1, centers=(-1.0, 1.0), widths=(0.4, 0.9)))[0]
    p16 = VariableExponent.constant(d16, 2.0)
    w16 = weight_preset("const:1", d16)
    _, four = nested_dictionaries(2, cfg.dict_size, d16, cfg.dict_seed, 4.0)
    _, wide = nested_dictionaries(2, cfg.dict_size, d16, cfg.dict_seed, 8.0)
    dec4 = atoms_mod.atomic_decompose(f, p16, w16, four, L=1)
    dec8 = atoms_mod.atomic_decompose(f, p16, w16, wide, L=1)
    n4 = dec4.single_part[0] + atoms_mod.sequence_norm(dec4.lambdas, dec4.cubes, p16, w16, dec4.v)
    n8 = dec8.single_part[0] + atoms_mod.sequence_norm(dec8.lambdas, dec8.cubes, p16, w16, dec8.v)
    cases.append(Case("radius_sensitivity", "norm_ratio_4_over_8", n4 / n8, None, None, 0.2 <= n4 / n8 <= 5.0))
    return cases


def suite_e8(cfg: ExperimentConfig, rng) -> list[Case]:
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
    cases.append(Case("telescoping", "max_err", worst_tel, None, None, worst_tel <= 1e-10))

    f = _bumps(d, _bump_specs(rng, 1))[0]
    _, rep = lp_mod.telescoping_reconstruct(f, phi, J=d.level - 3)
    cases.append(
        Case("mollification", "rel_l2_err", rep.q("relative_l2_error"), None, None, rep.q("relative_l2_error") <= 0.01)
    )

    _, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    p = VariableExponent.constant(d, 2.0)
    ratios = [
        lp_mod.lp_norm(g, p, None, phi, phi_star) / lq_norm(g, 2.0)
        for g in _bumps(d, _bump_specs(rng, 6))
    ]
    cases.append(Case("lp_vs_l2", "band_spread", max(ratios) / min(ratios), None, None, max(ratios) / min(ratios) <= 4.0))

    pv = exponent_preset("lhdecay:1", d)
    wv = weight_preset("power:1", d)
    ratios2 = [
        lp_mod.lp_norm(g, pv, wv, phi, phi_star) / hardy_norm(g, pv, wv, large)
        for g in _bumps(d, _bump_specs(rng, 6))
    ]
    cases.append(
        Case("lp_vs_hardy", "band_spread", max(ratios2) / min(ratios2), None, None, max(ratios2) / min(ratios2) <= 4.0)
    )

    # moment order sweep: equivalence quality for L in {0, 1, 2, 4}
    g = _bumps(d, _bump_specs(rng, 1))[0]
    hn = hardy_norm(g, p, None, large, check_order=False)
    for L in (0, 1, 2, 4):
        phL, phsL = lp_mod.make_phi_pair(L, d)
        r = lp_mod.lp_norm(g, p, None, phL, phsL) / hn
        cases.append(Case(f"order_sweep[L={L}]", "lp_over_hardy", r, None, None, 0.05 <= r <= 20.0))
    return cases


def suite_e9(cfg: ExperimentConfig, rng) -> list[Case]:
    """Wavelet transform identities and the two-term norm band."""
    d = cfg.domain()
    cases = []
    sys = wav_mod.build_wavelet_system(2)
    rng2 = np.random.default_rng(cfg.seed + 3)
    f = GridFunction(d, rng2.normal(size=d.shape))
    co = wav_mod.analyze(f, sys, 0)
    back = wav_mod.synthesize_coefficients(co)
    pr_err = float(np.max(np.abs(back.samples - f.samples)))
    cases.append(Case("perfect_reconstruction", "max_err", pr_err, None, None, pr_err <= 1e-10))
    l2sq = d.h**d.dim * float(np.sum(f.samples**2))
    cases.append(
        Case("parseval", "abs_err", abs(co.energy() - l2sq), None, None, abs(co.energy() - l2sq) <= 1e-8)
    )
    vf = wav_mod.v_function(f, sys, 0)
    wf = wav_mod.w_function(f, sys, 0)
    part = abs(lq_norm(vf, 2.0) ** 2 + lq_norm(wf, 2.0) ** 2 - l2sq)
    cases.append(Case("vw_partition", "abs_err", part, None, None, part <= 1e-7))

    p = VariableExponent.constant(d, 2.0)
    ratios = [
        wav_mod.wavelet_norm(g, p, None, sys, check_moments=False) / lq_norm(g, 2.0)
        for g in _bumps(d, _bump_specs(rng, 6))
    ]
    cases.append(Case("wavelet_vs_l2[J=0]", "band_spread", max(ratios) / min(ratios), None, None, max(ratios) / min(ratios) <= 4.0))

    _, large = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    pv = exponent_preset("lhdecay:1", d)
    wv = weight_preset("power:1", d)
    ratios2 = [
        wav_mod.wavelet_norm(g, pv, wv, sys) / hardy_norm(g, pv, wv, large)
        for g in _bumps(d, _bump_specs(rng, 6))
    ]
    cases.append(
        Case("wavelet_vs_hardy[J=0]", "band_spread", max(ratios2) / min(ratios2), None, None, max(ratios2) / min(ratios2) <= 4.0)
    )
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
    if cfg.n != 1:
        raise PresetError(
            "probe suites are one dimensional; the library operators support n=2 directly"
        )
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
            "version": _package_version(),
        },
        wall,
    )
    if cfg.out:
        write_report(report, cfg.out)
    return report


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("varhardy")
    except Exception:
        return "unknown"


def write_report(report: SuiteReport, out: str | Path) -> None:
    out = Path(out)
    doc = report.to_json_dict()
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    doc["wall_time_s"] = round(report.wall_time, 3)
    out.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["suite", "case", "quantity", "value_m", "value_m1", "ratio", "pass"])
        for c in report.cases:
            wr.writerow(
                [
                    report.suite,
                    c.case,
                    c.quantity,
                    repr(c.value_m),
                    "" if c.value_m1 is None else repr(c.value_m1),
                    "" if c.ratio is None else repr(c.ratio),
                    c.passed,
                ]
            )


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
