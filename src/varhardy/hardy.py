"""Grand maximal functions and the weighted local Hardy quasi-norm.

The supremum over the continuum ball of test functions is replaced by a
finite dictionary of normalized smooth bumps: each member satisfies
|D^alpha phi| <= 1 on its support ball for all orders up to N+1 (checked
by finite differences at build time, with margin 0.9).  The dictionary
supremum is a certified lower bound of the continuum one; equivalence
probes always compare like with like, i.e. the same dictionary on both
sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np
from scipy.ndimage import maximum_filter1d

from .exponent import VariableExponent
from .grid import Domain, GridFunction, bump_profile, convolve_bank, kernel_spectrum, quadrature, rescale_mollifier
from .norms import luxemburg_norm
from .report import Report
from .weights import Weight, q_w_estimate, stability_ratio, STABILITY_FACTOR

__all__ = [
    "TestDictionary",
    "build_dictionary",
    "grand_maximal",
    "hardy_norm",
    "capital_n",
    "dirac_membership_check",
    "SMALL_RADIUS",
    "LARGE_RADIUS",
]

SMALL_RADIUS = 1.0
LARGE_RADIUS = 4.0  # stand-in for the astronomically large proof radius
DERIVATIVE_MARGIN = 0.9


@dataclass(frozen=True)
class TestDictionary:
    """Finite family of normalized test bumps.

    Every member is compactly supported in the ball of radius `radius`,
    with all finite-difference derivatives up to order `order` + 1 bounded
    by 1 there.  `nondegenerate` records that at least one member has
    nonvanishing integral, which makes the grand maximal function vanish
    only on the zero function.
    """

    domain: Domain
    radius: float
    order: int
    members: tuple[GridFunction, ...]
    masses: tuple[float, ...]
    seed: int

    @property
    def nondegenerate(self) -> bool:
        return any(abs(m) > 1e-12 for m in self.masses)

    @cached_property
    def spectra(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(j, kernel spectrum of the member rescaled to t = 2^-j) for every
        member and every dyadic scale from t = 1 down to t = 4h (so the
        discrete convolutions stay faithful), members outer; built on first
        use and kept."""
        return tuple(
            (j, kernel_spectrum(rescale_mollifier(member, 2.0 ** (-j))))
            for member in self.members
            for j in range(self.domain.level - 1)
        )


def _fd_derivative_sup(vals: np.ndarray, h: float, order: int, dim: int) -> float:
    """Max absolute finite-difference derivative over all orders <= order.

    Every mixed partial comes from repeated gradients along each axis, keyed
    by its per-axis derivative counts."""
    worst = float(np.max(np.abs(vals)))
    frontier = {(0,) * dim: vals}
    for _ in range(order):
        nxt = {}
        for counts, arr in frontier.items():
            for ax in range(dim):
                key = counts[:ax] + (counts[ax] + 1,) + counts[ax + 1 :]
                if key in nxt:
                    continue
                darr = np.gradient(arr, h, axis=ax)
                nxt[key] = darr
                worst = max(worst, float(np.max(np.abs(darr))))
        frontier = nxt
    return worst


def _profiles(count: int, rng: np.random.Generator):
    """Analytic radial profiles on [0, 1): bump, modulations, perturbations."""
    profiles = [
        bump_profile,
        lambda u: bump_profile(u) * np.cos(np.pi * u),
        lambda u: bump_profile(u) * np.sin(np.pi * u),
        lambda u: bump_profile(u) * np.cos(2 * np.pi * u),
        lambda u: bump_profile(u) * (1.0 - 2.0 * u * u),
    ]
    while len(profiles) < count:
        coefs = rng.normal(scale=0.5, size=3)

        def perturbed(u, c=coefs):
            trig = 1.0 + c[0] * np.cos(np.pi * u) + c[1] * np.sin(2 * np.pi * u) + c[2] * np.cos(
                3 * np.pi * u
            )
            return bump_profile(u) * trig

        profiles.append(perturbed)
    return profiles[:count]


def build_dictionary(
    N: int,
    variant: str = "small",
    count: int = 8,
    domain: Domain | None = None,
    seed: int = 42,
    radius: float | None = None,
) -> TestDictionary:
    """Normalized bump dictionary of the requested derivative order.

    variant "small" supports members in the unit ball; "large" uses
    `radius` (default 4) and includes the small members, so the small and
    large dictionaries are nested.
    """
    if count < 4:
        raise ValueError("count must be at least 4")
    if domain is None:
        domain = Domain(1, 8, 9)
    if variant not in ("small", "large"):
        raise ValueError("variant must be 'small' or 'large'")
    r_d = SMALL_RADIUS if variant == "small" else (radius or LARGE_RADIUS)
    rng = np.random.default_rng(seed)
    profiles = _profiles(count, rng)
    if variant == "small":
        specs = [(i, SMALL_RADIUS) for i in range(count)]
    else:
        # first half identical to the small variant so the dictionaries nest
        n_small = count // 2
        specs = [(i, SMALL_RADIUS) for i in range(n_small)]
        specs += [(i, r_d) for i in range(count - n_small)]
    members: list[GridFunction] = []
    masses: list[float] = []
    r = domain.radius()
    for prof_i, rad in specs:
        vals = profiles[prof_i](r / (rad * 0.999))
        sup_d = _fd_derivative_sup(vals, domain.h, N + 1, domain.dim)
        if not np.isfinite(sup_d) or sup_d == 0.0:
            continue  # normalization failure: drop the member
        vals = vals * (DERIVATIVE_MARGIN / sup_d)
        member = GridFunction(domain, vals)
        members.append(member)
        masses.append(quadrature(member))
    return TestDictionary(domain, r_d, N, tuple(members), tuple(masses), seed)


def nested_dictionaries(
    N: int,
    count: int = 8,
    domain: Domain | None = None,
    seed: int = 42,
    radius: float | None = None,
) -> tuple[TestDictionary, TestDictionary]:
    """(small, large) pair with the small members a prefix of the large ones."""
    large = build_dictionary(N, "large", count, domain, seed, radius)
    small = build_dictionary(N, "small", count // 2, domain, seed)
    return small, large


def _offset_max(vals: np.ndarray, t_over_h: int, dim: int) -> np.ndarray:
    """sup over lattice offsets |z - x| < t of vals(z), vals >= 0."""
    w = t_over_h - 1  # strict inequality: offsets up to t/h - 1 cells
    if w <= 0:
        return vals
    # the ball |z|^2 <= w^2, one offset z' in the leading axes at a time: a
    # window of half-width isqrt(w^2 - |z'|^2) along the last axis, shifted
    # by z'; z' = 0 starts the result
    last = dim - 1
    out = maximum_filter1d(vals, size=2 * w + 1, axis=last, mode="constant", cval=0.0)
    lead = vals.shape[:last]
    rows = {}
    for z in product(*(range(-min(w, n - 1), min(w, n - 1) + 1) for n in lead)):
        rest = w * w - sum(c * c for c in z)
        if not any(z) or rest < 0:
            continue
        r = math.isqrt(rest)
        if r not in rows:
            rows[r] = maximum_filter1d(vals, size=2 * r + 1, axis=last, mode="constant", cval=0.0)
        dst = tuple(slice(0, n - c) if c >= 0 else slice(-c, None) for c, n in zip(z, lead))
        src = tuple(slice(c, None) if c >= 0 else slice(0, n + c) for c, n in zip(z, lead))
        np.maximum(out[dst], rows[r][src], out=out[dst])
    return out


def grand_maximal(f: GridFunction, dic: TestDictionary, mode: str = "MN") -> GridFunction:
    """Grand maximal function over the dictionary and dyadic scales t < 1.

    mode "M0" and "Mbar0" take the sup of |phi_t * f(x)| over members and
    scales; "MN" additionally takes the sup over lattice offsets |z-x| < t.
    The kernel spectra come from the dictionary's cache, so a call costs one
    forward transform of f and one inverse transform per member and scale.
    """
    if mode not in ("M0", "Mbar0", "MN"):
        raise ValueError("mode must be M0, Mbar0 or MN")
    d = f.domain
    if dic.domain != d:
        raise ValueError("dictionary and function domains differ")
    out = np.zeros(d.shape)
    convs = convolve_bank(f, (ghat for _, ghat in dic.spectra))
    for (j, _), conv in zip(dic.spectra, convs):
        conv = np.abs(conv)
        if mode == "MN":
            conv = _offset_max(conv, 1 << (d.level - j), d.dim)  # t/h cells
        np.maximum(out, conv, out=out)
    return GridFunction(d, out)


def capital_n(p: VariableExponent, w: Weight) -> int:
    """Order threshold 2 + floor(n (q_w / min(1, p_minus) - 1))."""
    q_w = q_w_estimate(w)
    n = p.domain.dim
    return 2 + math.floor(n * (q_w / min(1.0, p.p_minus) - 1.0))


def hardy_norm(
    f: GridFunction,
    p: VariableExponent,
    w: Weight | None,
    dic: TestDictionary,
    check_order: bool = True,
) -> float:
    """Luxemburg norm of the offset grand maximal function."""
    if check_order and w is not None:
        needed = capital_n(p, w)
        if dic.order < needed:
            raise ValueError(
                f"dictionary order {dic.order} below the required threshold {needed}"
            )
    return luxemburg_norm(grand_maximal(f, dic, "MN"), p, w)


def dirac_membership_check(
    p: VariableExponent, w: Weight, threshold: float = STABILITY_FACTOR
) -> Report:
    """Two-resolution integrability probe for the point-mass criterion.

    Evaluates the clamped-midpoint integral of |x|^{-n p(x)} w(x) over the
    unit ball at levels m and m+1; a stable value means the point mass
    belongs to the space.
    """
    d = p.domain

    def integral(pp: VariableExponent, ww: Weight) -> float:
        dd = pp.domain
        half = dd.h / 2
        r = reduce(np.hypot, (x + half for x in dd.coords()), 0.0)
        mask = r < 1.0
        integrand = np.where(mask, r ** (-dd.dim * pp.values.samples), 0.0)
        return dd.h ** dd.dim * float(np.sum(integrand * ww.values.samples))

    i0 = integral(p, w)
    i1 = integral(p.at_level(d.level + 1), w.at_level(d.level + 1))
    ratio = stability_ratio(i0, i1)
    return Report(
        "dirac_membership_check",
        passed=ratio <= threshold,
        quantities={"integral_m": i0, "integral_m1": i1, "ratio": ratio},
    )
