"""Named presets for exponents, weights and test functions.

Preset strings are the configuration surface of the command line harness:
exponents like "const:2" or "paper91", weights like "power:-0.5" or
"absp:0.5", functions like "bump:0,1".  Singular weight presets sample at
cell centers and floor at 2^-52, the standard midpoint regularization.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .exponent import VariableExponent
from .grid import Domain, GridFunction, bump_profile
from .weights import Weight

__all__ = [
    "exponent_preset",
    "weight_preset",
    "function_preset",
    "preset_catalog",
    "PresetError",
]


class PresetError(ValueError):
    """Unknown preset name or malformed arguments."""


def _radius(*xs):
    return reduce(np.hypot, xs[1:], np.abs(xs[0]))


def _split(spec: str) -> tuple[str, list[str]]:
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    return name, args


def exponent_preset(spec: str, domain: Domain) -> VariableExponent:
    """Build a variable exponent from its preset string."""
    name, args = _split(spec)
    try:
        if name == "const":
            (v,) = map(float, args)
            if v <= 0:
                raise PresetError(f"exponent must be positive: {spec!r}")
            return VariableExponent.constant(domain, v)
        if name == "paper91":
            fn = lambda *xs: np.maximum(0.5, np.minimum(1.0, _radius(*xs)))
            return VariableExponent.from_callable(domain, fn, p_infty=1.0)
        if name == "lhdecay":
            a = float(args[0]) if args else 1.0
            fn = lambda *xs: 2.0 + a / np.log(np.e + _radius(*xs))
            return VariableExponent.from_callable(domain, fn, p_infty=2.0)
        if name == "sin2":
            def fn(*xs):
                return 2.0 + np.sin(np.asarray(sum(xs), dtype=float)) ** 2
            return VariableExponent.from_callable(domain, fn, p_infty=2.5)
    except PresetError:
        raise
    except Exception as exc:
        raise PresetError(f"malformed exponent preset {spec!r}") from exc
    raise PresetError(f"unknown exponent preset key {name!r} in {spec!r}")


def weight_preset(spec: str, domain: Domain) -> Weight:
    """Build a weight from its preset string."""
    name, args = _split(spec)
    try:
        if name == "const":
            (c,) = map(float, args)
            if c <= 0:
                raise PresetError(f"weight must be positive: {spec!r}")
            return Weight.constant(domain, c)
        if name == "power":
            (mu,) = map(float, args)
            return Weight.from_callable(domain, lambda *xs: (1.0 + _radius(*xs)) ** mu)
        if name == "exp":
            (mu,) = map(float, args)
            def fn(*xs):
                return np.broadcast_to(np.exp(mu * np.asarray(xs[0], dtype=float)), np.broadcast(*xs).shape)
            return Weight.from_callable(domain, fn)
        if name == "absp":
            (alpha,) = map(float, args)
            return Weight.from_callable(
                domain, lambda *xs: _radius(*xs) ** alpha, midpoint=True
            )
    except PresetError:
        raise
    except Exception as exc:
        raise PresetError(f"malformed weight preset {spec!r}") from exc
    raise PresetError(f"unknown weight preset key {name!r} in {spec!r}")


def function_preset(spec: str, domain: Domain) -> GridFunction:
    """Build a test function from its preset string."""
    name, args = _split(spec)
    fargs = [float(a) for a in args]
    try:
        if name == "bump":
            c = fargs[0] if fargs else 0.0
            s = fargs[1] if len(fargs) > 1 else 1.0
            amp = fargs[2] if len(fargs) > 2 else 1.0
            return GridFunction.from_callable(
                domain, lambda *xs: amp * bump_profile(_radius(*[np.asarray(x) - c for x in xs]) / s)
            )
        if name == "haar":
            c = fargs[0] if fargs else 0.0
            s = fargs[1] if len(fargs) > 1 else 1.0

            def fn(*xs):
                t = np.asarray(xs[0], dtype=float) - c
                out = np.where((t >= -s) & (t < 0), 1.0, 0.0) - np.where((t >= 0) & (t < s), 1.0, 0.0)
                for y in xs[1:]:
                    out = out * (np.abs(y) < s).astype(float)
                return out

            return GridFunction.from_callable(domain, fn)
        if name == "plateau":
            c = fargs[0] if fargs else 0.0
            s = fargs[1] if len(fargs) > 1 else 2.0
            deg = int(fargs[2]) if len(fargs) > 2 else 0

            def fn(*xs):
                t = (_radius(*[np.asarray(x) - c for x in xs])) / s
                window = np.clip(2.0 - 2.0 * t, 0.0, 1.0)  # 1 inside |t|<1/2, ramp to 0 at 1
                x0 = (np.asarray(xs[0], dtype=float) - c) / s
                return (x0**deg if deg else 1.0) * window

            return GridFunction.from_callable(domain, fn)
        if name == "spike":
            alpha = fargs[0] if fargs else 0.5
            c = fargs[1] if len(fargs) > 1 else 0.0
            s = fargs[2] if len(fargs) > 2 else 1.0
            half = domain.h / 2

            def fn(*xs):
                r = _radius(*[np.asarray(x) + half - c for x in xs])  # cell centers
                return np.where(r < s, np.maximum(r, half) ** (-alpha), 0.0)

            return GridFunction.from_callable(domain, fn)
        if name == "delta":
            c = fargs[0] if fargs else 0.0
            vals = np.zeros(domain.shape)
            i = int(round(c / domain.h)) + domain.half_npts
            vals[(i,) * domain.dim] = domain.h ** -domain.dim
            return GridFunction(domain, vals)
    except PresetError:
        raise
    except Exception as exc:
        raise PresetError(f"malformed function preset {spec!r}") from exc
    raise PresetError(f"unknown function preset key {name!r} in {spec!r}")


def preset_catalog() -> dict[str, list[str]]:
    """Stable-ordered listing of every preset family and its keys."""
    return {
        "exponent": ["const:<v>", "lhdecay:<a>", "paper91", "sin2"],
        "weight": ["absp:<alpha>", "const:<c>", "exp:<mu>", "power:<mu>"],
        "function": [
            "bump:<center>,<width>[,<amp>]",
            "delta[:<center>]",
            "haar:<center>,<width>",
            "plateau:<center>,<width>[,<degree>]",
            "spike:<alpha>[,<center>,<width>]",
        ],
    }
