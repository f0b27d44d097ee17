"""Scale-difference kernel pair, local square function and the two-term norm.

The kernel pair is (phi, phi_star) with phi a compactly supported unit-mass
mollifier whose moments of orders 1..L vanish, and
phi_star = phi - 2^-n phi(./2).  Then phi_star has vanishing moments up to
order L, and the dyadic rescalings telescope exactly:
phi_star_{2^-j} = phi_{2^-j} - phi_{2^-(j-1)}, so partial sums of the
square-function levels reconstruct the running mollification of f with no
error beyond round-off.  `make_phi_pair` keeps phi_star on phi, so the
telescope runs on the same phi_star as the norms; a phi made any other way
is refused.

Each kernel's spectrum at each scale is built on first use and kept on the
kernel instance (`grid.scaled_spectrum`), cropped to its support, so calls
on one pair after the first transform only f: once per distinct padded
shape, plus one inverse transform per kernel.
"""

from __future__ import annotations

import math
from itertools import chain, islice

import numpy as np

from .exponent import VariableExponent
from .grid import (
    Domain,
    GridFunction,
    bump_profile,
    convolve_bank,
    multi_indices,
    scaled_spectrum,
)
from .norms import luxemburg_norm
from .report import Report
from .weights import Weight

__all__ = [
    "make_phi_pair",
    "square_function",
    "lp_norm",
    "telescoping_reconstruct",
]


def make_phi_pair(L: int, domain: Domain) -> tuple[GridFunction, GridFunction]:
    """Mollifier with unit mass and L vanishing moments, plus its telescope.

    phi is a polynomial-corrected bump supported in [-1, 1]^n; the
    correction coefficients solve the moment Gram system so that
    int x^b phi = delta_{b,0} for |b| <= L.  phi_star is sampled from the
    same analytic closure, so the dyadic telescoping identity is exact on
    the lattice.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    d = domain
    alphas = multi_indices(d.dim, L)
    # The bump and the monomials are separable, so the Gram system over
    # [-1,1]^n is a product of 1-D moment matrices, each a midpoint rule
    fine = 4096
    t = (np.arange(fine) + 0.5) / fine * 2.0 - 1.0
    mono = t[:, None] ** np.arange(L + 1)
    gram_1d = (mono[:, :, None] * mono[:, None, :] * bump_profile(t)[:, None, None]).sum(axis=0) * (2.0 / fine)
    gram = np.prod([gram_1d[np.ix_(a, a)] for a in np.array(alphas).T], axis=0)
    rhs = np.zeros(len(alphas))
    rhs[alphas.index((0,) * d.dim)] = 1.0
    if np.linalg.cond(gram) > 1e12:
        raise np.linalg.LinAlgError("moment Gram system is singular")
    coef = np.linalg.solve(gram, rhs)

    def phi_fn(*xs):
        xs = [np.asarray(v, dtype=float) for v in xs]
        acc = np.zeros(np.broadcast(*xs).shape)
        for c, a in zip(coef, alphas):
            acc += math.prod((x**k for x, k in zip(xs, a)), start=c)
        return acc * math.prod(bump_profile(x) for x in xs)

    def phi_star_fn(*xs):
        half = [np.asarray(v, dtype=float) / 2.0 for v in xs]
        return phi_fn(*xs) - 2.0 ** (-d.dim) * phi_fn(*half)

    phi = GridFunction.from_callable(d, phi_fn)
    phi_star = GridFunction.from_callable(d, phi_star_fn)
    phi._memo["phi_star"] = phi_star
    return phi, phi_star


def _check_domains(f: GridFunction, *kernels: GridFunction) -> None:
    if any(g.domain != f.domain for g in kernels):
        raise ValueError("domain mismatch")


def _check_depth(d: Domain, J: int) -> None:
    if J < 1:
        raise ValueError("J must be at least 1")
    if 2.0 ** (-J) < 4 * d.h:
        raise ValueError("J too deep for the grid resolution")


def _level_spectra(kernel: GridFunction, J: int):
    """Spectra of the kernel rescaled to 2^-j for j = 1..J."""
    return (scaled_spectrum(kernel, j) for j in range(1, J + 1))


def _root_sum_squares(d: Domain, convs) -> GridFunction:
    acc = np.zeros(d.shape)
    for conv in convs:
        acc += conv**2
    return GridFunction._adopt(d, np.sqrt(acc))


def square_function(f: GridFunction, phi_star: GridFunction, J: int) -> GridFunction:
    """Truncated square function (sum_{j=1..J} |phi_star_{2^-j} * f|^2)^{1/2}."""
    _check_domains(f, phi_star)
    _check_depth(f.domain, J)
    return _root_sum_squares(f.domain, convolve_bank(f, _level_spectra(phi_star, J)))


def lp_norm(
    f: GridFunction,
    p: VariableExponent,
    w: Weight | None,
    phi: GridFunction,
    phi_star: GridFunction,
) -> float:
    """Two-term norm ||phi * f|| + ||square function|| in L^{p(.)}(w), the
    square function over the scales 2^-j, j = 1..m - 3.

    Both terms come from one bank of convolutions.
    """
    d = f.domain
    J = d.level - 3
    _check_domains(f, phi, phi_star)
    convs = convolve_bank(f, chain([scaled_spectrum(phi, 0)], _level_spectra(phi_star, J)))
    head = luxemburg_norm(GridFunction._adopt(d, next(convs)), p, w)
    tail = luxemburg_norm(_root_sum_squares(d, convs), p, w)
    return head + tail


def telescoping_reconstruct(
    f: GridFunction, phi: GridFunction, J: int | None = None
) -> tuple[GridFunction, Report]:
    """phi*f + sum_{j<=J} phi_star_{2^-j}*f, which telescopes to phi_{2^-J}*f.

    Returns the reconstruction together with a report of its relative L^2
    distance from f (the mollification error at scale 2^-J).  The levels
    convolve with the phi_star that `make_phi_pair` built beside phi and
    share its spectra with `lp_norm`; a phi made any other way raises
    ValueError.
    """
    d = f.domain
    if J is None:
        J = d.level - 3
    _check_domains(f, phi)
    if "phi_star" not in phi._memo:
        raise ValueError("phi must come from make_phi_pair")
    phi_star = phi._memo["phi_star"]
    convs = convolve_bank(f, chain([scaled_spectrum(phi, 0)], _level_spectra(phi_star, J), [scaled_spectrum(phi, J)]))
    acc = next(convs)
    for conv in islice(convs, J):
        acc += conv
    out = GridFunction._adopt(d, acc)
    direct = next(convs)
    tele_err = float(np.max(np.abs(out.samples - direct)))
    denom = math.sqrt(d.h**d.dim * float(np.sum(f.samples**2)))
    rel_l2 = (
        math.sqrt(d.h**d.dim * float(np.sum((out.samples - f.samples) ** 2))) / denom
        if denom > 0
        else 0.0
    )
    rep = Report(
        "telescoping_reconstruct",
        passed=tele_err <= 1e-10 * max(1.0, f.sup()),
        quantities={"telescope_error": tele_err, "relative_l2_error": rel_l2, "J": float(J)},
    )
    return out, rep
