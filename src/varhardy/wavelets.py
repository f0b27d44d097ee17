"""Compactly supported orthonormal wavelet transform and its square functions.

Filters come from spectral factorization of the maxflat half-band
polynomial: the minimal-phase root selection gives the classical extremal
filters with N vanishing moments on 2N taps.  The fast transform is
periodized at the window boundary, standard practice for sampled data;
test functions should live in the middle of the window so wrap-around
stays below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponent import VariableExponent
from .grid import Domain, GridFunction
from .norms import luxemburg_norm
from .weights import Weight, q_w_estimate

__all__ = [
    "WaveletSystem",
    "build_wavelet_system",
    "analyze",
    "synthesize_coefficients",
    "v_function",
    "w_function",
    "wavelet_norm",
    "expanded_cube",
    "WaveletCoefficients",
]

QMF_TOL = 1e-10


@dataclass(frozen=True)
class WaveletSystem:
    """Orthonormal filter bank with N vanishing moments on 2N taps."""

    N: int
    scaling_filter: np.ndarray
    wavelet_filter: np.ndarray

    @property
    def vanishing_moments(self) -> int:
        return self.N

    @property
    def support_length(self) -> int:
        return 2 * self.N - 1  # support of the scaling function is [0, 2N-1]


def _polish_roots(roots: np.ndarray, poly: np.ndarray) -> np.ndarray:
    dpoly = np.polyder(poly)
    for _ in range(3):
        vals = np.polyval(poly, roots)
        dervs = np.polyval(dpoly, roots)
        roots = roots - vals / dervs
    return roots


def build_wavelet_system(N: int) -> WaveletSystem:
    """Extremal-phase orthonormal filters with N vanishing moments.

    The half-band polynomial is factored over its roots; roots inside the
    unit circle (one per reciprocal pair) build the minimal-phase factor,
    and N roots at z = -1 supply the moment zeros.  The construction is
    validated against the quadrature-mirror identities at build time.
    """
    if not (2 <= N <= 10):
        raise ValueError("N must be between 2 and 10")
    P = np.zeros(N)
    for k in range(N):
        P[k] = math.comb(N - 1 + k, k)
    poly = np.zeros(2 * N - 1)
    base = np.array([-0.25, 0.5, -0.25])
    cur = np.array([1.0])
    for k in range(N):
        off = (N - 1) - k
        padded = np.zeros(2 * N - 1)
        padded[off : off + cur.size] = cur * P[k]
        poly += padded
        cur = np.convolve(cur, base)
    coeffs = poly[::-1]  # highest degree first for np.roots
    roots = np.roots(coeffs)
    roots = _polish_roots(roots, coeffs)
    inside = roots[np.abs(roots) < 1.0]
    # minimal-phase factor from the inside roots, then N binomial factors
    h = np.array([1.0])
    for r in inside:
        h = np.convolve(h, np.array([1.0, -r]))
    h = np.real(h)
    for _ in range(N):
        h = np.convolve(h, np.array([0.5, 0.5]))
    h = h * (math.sqrt(2.0) / np.sum(h))
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    sys = WaveletSystem(N, h, g)
    _validate_qmf(sys)
    return sys


def _validate_qmf(sys: WaveletSystem) -> None:
    h = sys.scaling_filter
    if abs(np.sum(h) - math.sqrt(2.0)) > QMF_TOL:
        raise ValueError("filter sum is not sqrt(2)")
    for m in range(1, sys.N):
        corr = np.sum(h[2 * m :] * h[: h.size - 2 * m])
        if abs(corr) > QMF_TOL:
            raise ValueError(f"orthonormality fails at shift {m}: {corr:.2e}")
    if abs(np.sum(h * h) - 1.0) > QMF_TOL:
        raise ValueError("filter does not have unit energy")


@dataclass
class WaveletCoefficients:
    """Output of the periodized fast transform on the window.

    scaling: level-J array (per axis 2T * 2^J entries); details[j] holds
    the level-j wavelet channels, a single array for n = 1 or the dict
    {"lh", "hl", "hh"} for n = 2.  k-labels start at -T * 2^j.
    """

    domain: Domain
    system: WaveletSystem
    J: int
    Jmax: int
    scaling: np.ndarray
    details: dict[int, object]

    def coefficient_count(self) -> int:
        total = self.scaling.size
        for v in self.details.values():
            if isinstance(v, dict):
                total += sum(a.size for a in v.values())
            else:
                total += v.size
        return total

    def energy(self) -> float:
        total = float(np.sum(self.scaling**2))
        for v in self.details.values():
            if isinstance(v, dict):
                total += sum(float(np.sum(a**2)) for a in v.values())
            else:
                total += float(np.sum(v**2))
        return total

    def k_offset(self, j: int) -> int:
        return -int(round(self.domain.half_width * 2.0**j))


def _analysis_step(c: np.ndarray, filt: np.ndarray, axis: int = 0) -> np.ndarray:
    """Periodized filtering and downsampling along one axis."""
    n = c.shape[axis]
    taps = filt.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    moved = np.moveaxis(c, axis, 0)
    out = np.tensordot(filt, moved[idx], axes=(0, 1))
    return np.moveaxis(out, 0, axis)


def _synthesis_step(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int = 0) -> np.ndarray:
    n = 2 * a.shape[axis]
    taps = h.size
    a0 = np.moveaxis(a, axis, 0)
    d0 = np.moveaxis(d, axis, 0)
    out = np.zeros((n,) + a0.shape[1:])
    for i in range(taps):
        pos = (2 * np.arange(n // 2) + i) % n
        out[pos] += h[i] * a0 + g[i] * d0
    return np.moveaxis(out, 0, axis)


def analyze(f: GridFunction, sys: WaveletSystem, J: int, Jmax: int | None = None) -> WaveletCoefficients:
    """Periodized fast transform: couplings with the basis at levels J..Jmax.

    Fine-scale scaling coefficients are h^{n/2} f(x_k), the standard
    identification of samples with level-m couplings; the discrete
    transform then conserves both count and energy exactly.
    """
    d = f.domain
    if Jmax is None:
        Jmax = d.level - 1
    if Jmax >= d.level or J > Jmax:
        raise ValueError("level overflow: need J <= Jmax < grid level")
    min_len = sys.scaling_filter.size
    if d.half_width * 2.0 ** (J + 1) < min_len:
        raise ValueError("level overflow: coarsest level shorter than the filter")
    h = sys.scaling_filter
    g = sys.wavelet_filter
    c = f.samples * d.h ** (d.dim / 2.0)
    # the full cascade down to J is always kept, so the transform stays
    # orthonormal (count and energy conserved); Jmax only marks how deep
    # the square-function consumers look
    details: dict[int, object] = {}
    for j in range(d.level - 1, J - 1, -1):
        if d.dim == 1:
            a = _analysis_step(c, h)
            dd = _analysis_step(c, g)
            details[j] = dd
            c = a
        else:
            lo0 = _analysis_step(c, h, 0)
            hi0 = _analysis_step(c, g, 0)
            details[j] = {
                "lh": _analysis_step(lo0, g, 1),
                "hl": _analysis_step(hi0, h, 1),
                "hh": _analysis_step(hi0, g, 1),
            }
            c = _analysis_step(lo0, h, 1)
    return WaveletCoefficients(d, sys, J, Jmax, c, details)


def synthesize_coefficients(coeffs: WaveletCoefficients) -> GridFunction:
    """Inverse transform back to samples; exact up to round-off."""
    d = coeffs.domain
    sys = coeffs.system
    h, g = sys.scaling_filter, sys.wavelet_filter
    c = coeffs.scaling
    for j in range(coeffs.J, d.level):
        det = coeffs.details[j]
        if d.dim == 1:
            c = _synthesis_step(c, det, h, g)
        else:
            lo0 = _synthesis_step(c, det["lh"], h, g, 1)
            hi0 = _synthesis_step(det["hl"], det["hh"], h, g, 1)
            c = _synthesis_step(lo0, hi0, h, g, 0)
    return GridFunction(d, c * d.h ** (-d.dim / 2.0))


def _upsample_to_grid(arr: np.ndarray, domain: Domain, j: int) -> np.ndarray:
    """Repeat level-j per-cube values onto the sample lattice."""
    rep = 1 << (domain.level - j)
    if domain.dim == 1:
        return np.repeat(arr, rep)
    return np.repeat(np.repeat(arr, rep, axis=0), rep, axis=1)


def _v_samples(coeffs: WaveletCoefficients) -> GridFunction:
    d, J = coeffs.domain, coeffs.J
    amp = 2.0 ** (J * d.dim / 2.0)
    return GridFunction(d, _upsample_to_grid(np.abs(coeffs.scaling) * amp, d, J))


def _w_samples(coeffs: WaveletCoefficients) -> GridFunction:
    d = coeffs.domain
    acc = np.zeros(d.shape)
    for j, det in coeffs.details.items():
        if j > coeffs.Jmax:
            continue
        amp2 = 2.0 ** (j * d.dim)
        if d.dim == 1:
            acc += _upsample_to_grid(det**2, d, j) * amp2
        else:
            for ch in det.values():
                acc += _upsample_to_grid(ch**2, d, j) * amp2
    return GridFunction(d, np.sqrt(acc))


def v_function(f: GridFunction, sys: WaveletSystem, J: int) -> GridFunction:
    """Scaling-channel square function: piecewise-constant on level-J cubes,
    value 2^{Jn/2} |<f, phi_{J,k}>| on the cube indexed by k."""
    return _v_samples(analyze(f, sys, J))


def w_function(f: GridFunction, sys: WaveletSystem, J: int, Jmax: int | None = None) -> GridFunction:
    """Wavelet-channel square function over levels J..Jmax, all channels."""
    return _w_samples(analyze(f, sys, J, Jmax))


def wavelet_norm(
    f: GridFunction,
    p: VariableExponent,
    w: Weight | None,
    sys: WaveletSystem,
    J: int = 0,
    Jmax: int | None = None,
    check_moments: bool = True,
) -> float:
    """Two-term norm ||Vf|| + ||Wf|| in L^{p(.)}(w).

    Requires enough vanishing moments: N >= max(-1, floor(n (q_w /
    min(1, p_minus) - 1))).
    """
    if check_moments and w is not None:
        n = f.domain.dim
        q_w = q_w_estimate(w)
        needed = max(-1, math.floor(n * (q_w / min(1.0, p.p_minus) - 1.0)))
        if sys.vanishing_moments < needed:
            raise ValueError(
                f"moment bound violated: system has {sys.vanishing_moments}, needs L >= {needed}"
            )
    coeffs = analyze(f, sys, J, Jmax)  # the scaling channel does not depend on Jmax
    return luxemburg_norm(_v_samples(coeffs), p, w) + luxemburg_norm(_w_samples(coeffs), p, w)


def expanded_cube(j: int, k, sys: WaveletSystem, dim: int = 1) -> tuple[tuple[float, float], ...]:
    """Support region of the basis member (j, k): per-axis intervals
    [2^-j k_m, 2^-j (k_m + 2N - 1)]."""
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    if ks.size != dim:
        raise ValueError("index dimension mismatch")
    side = 2.0 ** (-j)
    return tuple((side * km, side * (km + 2 * sys.N - 1)) for km in ks)
