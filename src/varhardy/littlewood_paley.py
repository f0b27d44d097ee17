"""Scale-difference kernel pair, local square function and the two-term norm.

The kernel pair is (phi, phi_star) with phi a compactly supported unit-mass
mollifier whose moments of orders 1..L vanish, and
phi_star = phi - 2^-n phi(./2).  Then phi_star has vanishing moments up to
order L, and the dyadic rescalings telescope exactly:
phi_star_{2^-j} = phi_{2^-j} - phi_{2^-(j-1)}, so partial sums of the
square-function levels reconstruct the running mollification of f with no
error beyond round-off.
"""

from __future__ import annotations

import math
from itertools import chain, islice

import numpy as np

from .exponent import VariableExponent
from .grid import Domain, GridFunction, bump_profile, convolve_bank, kernel_spectrum, multi_indices, rescale_mollifier
from .norms import luxemburg_norm
from .report import Report
from .weights import Weight

__all__ = [
    "make_phi_pair",
    "square_function",
    "lp_norm",
    "telescoping_reconstruct",
]


def make_phi_pair(L: int, domain: Domain | None = None) -> tuple[GridFunction, GridFunction]:
    """Mollifier with unit mass and L vanishing moments, plus its telescope.

    phi is a polynomial-corrected bump supported in [-1, 1]^n; the
    correction coefficients solve the moment Gram system so that
    int x^b phi = delta_{b,0} for |b| <= L.  phi_star is sampled from the
    same analytic closure, so the dyadic telescoping identity is exact on
    the lattice.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    if domain is None:
        domain = Domain(1, 8, 9)
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
    return (kernel_spectrum(rescale_mollifier(kernel, 2.0 ** (-j))) for j in range(1, J + 1))


def _root_sum_squares(d: Domain, convs) -> GridFunction:
    acc = np.zeros(d.shape)
    for conv in convs:
        acc += conv**2
    return GridFunction(d, np.sqrt(acc))


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
    J: int | None = None,
) -> float:
    """Two-term norm ||phi * f|| + ||square function|| in L^{p(.)}(w).

    Both terms come from one transform of f.
    """
    d = f.domain
    if J is None:
        J = d.level - 3
    _check_domains(f, phi, phi_star)
    _check_depth(d, J)
    convs = convolve_bank(f, chain([kernel_spectrum(phi)], _level_spectra(phi_star, J)))
    head = luxemburg_norm(GridFunction(d, next(convs)), p, w)
    tail = luxemburg_norm(_root_sum_squares(d, convs), p, w)
    return head + tail


def telescoping_reconstruct(
    f: GridFunction, phi: GridFunction, J: int | None = None
) -> tuple[GridFunction, Report]:
    """phi*f + sum_{j<=J} phi_star_{2^-j}*f, which telescopes to phi_{2^-J}*f.

    Returns the reconstruction together with a report of its relative L^2
    distance from f (the mollification error at scale 2^-J).  All J + 2
    convolutions come from one transform of f.
    """
    d = f.domain
    if J is None:
        J = d.level - 3
    _check_domains(f, phi)
    phi_star = GridFunction(
        d, phi.samples - rescale_mollifier_half(phi).samples
    )
    convs = convolve_bank(
        f,
        chain(
            [kernel_spectrum(phi)],
            _level_spectra(phi_star, J),
            [kernel_spectrum(rescale_mollifier(phi, 2.0 ** (-J)))],
        ),
    )
    acc = next(convs)
    for conv in islice(convs, J):
        acc += conv
    out = GridFunction(d, acc)
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


def rescale_mollifier_half(phi: GridFunction) -> GridFunction:
    """2^-n phi(./2) sampled on the lattice via separable linear
    interpolation at half-integer source points."""
    d = phi.domain
    x = d.axis()
    idx = np.interp(x / 2.0, x, np.arange(d.npts))
    lo = np.floor(idx).astype(int)
    hi = np.minimum(lo + 1, d.npts - 1)
    out = phi.samples
    for ax, frac in enumerate(np.ix_(*[idx - lo] * d.dim)):
        a, b = out.take(lo, axis=ax), out.take(hi, axis=ax)
        out = a + (b - a) * frac
    return GridFunction(d, 2.0 ** (-d.dim) * out)
