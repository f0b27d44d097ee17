"""Command line interface.

    varhardy <suite|norm|maximal|awconst|atoms|lp|wavelet|list>
             [--config FILE] [--n 1] [--T 8] [--m 9] [--p PRESET]
             [--w PRESET] [--seed INT] [--out PATH] ...

A JSON config file mirrors the flags; explicit flags win.  Exit code 0
means every probe in the run passed, 1 means some failed, 2 is a usage
error (unknown preset or malformed arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .grid import GridFunction
from .harness import ExperimentConfig, SUITES, list_presets, run_suite
from .norms import luxemburg_norm
from .presets import PresetError, exponent_preset, function_preset, weight_preset

USAGE_ERROR = 2


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None, help="JSON file mirroring the flags")
    sp.add_argument("--n", type=int, default=None, help="dimension (1 or 2)")
    sp.add_argument("--T", type=float, default=None, help="window half width")
    sp.add_argument("--m", type=int, default=None, help="resolution level, h = 2^-m")
    sp.add_argument("--p", type=str, default=None, help="exponent preset")
    sp.add_argument("--w", type=str, default=None, help="weight preset")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None, help="report path stem")
    sp.add_argument(
        "--hardy-dict",
        type=str,
        default=None,
        help="dictionary settings as size=8,seed=42,rD=4",
    )


def _parse_hardy_dict(spec: str) -> dict:
    out = {}
    mapping = {"size": ("dict_size", int), "seed": ("dict_seed", int), "rD": ("dict_radius", float)}
    for item in spec.split(","):
        key, _, val = item.partition("=")
        if key not in mapping:
            raise PresetError(f"unknown hardy-dict key {key!r}")
        field, cast = mapping[key]
        out[field] = cast(val)
    return out


def _build_config(args: argparse.Namespace, suite: str | None = None) -> ExperimentConfig:
    merged: dict = {}
    if args.config:
        merged.update(json.loads(Path(args.config).read_text()))
        unknown = sorted(set(merged) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise PresetError(f"unknown config keys {unknown} in {args.config}")
    for key in ("n", "T", "m", "p", "w", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "hardy_dict", None):
        merged.update(_parse_hardy_dict(args.hardy_dict))
    if suite is not None:
        merged["suite"] = suite
    if getattr(args, "suite", None):
        merged["suite"] = args.suite
    return ExperimentConfig(**merged)


def _print_cases(report) -> None:
    for c in report.cases:
        mark = "pass" if c.passed else "FAIL"
        extra = ""
        if c.value_m1 is not None:
            extra += f" value_m1={c.value_m1:.6g}"
        if c.ratio is not None:
            extra += f" ratio={c.ratio:.4g}"
        print(f"[{mark}] {report.suite}/{c.case} {c.quantity}={c.value_m:.6g}{extra}")


def cmd_suite(args) -> int:
    cfg = _build_config(args)
    report = run_suite(cfg)
    _print_cases(report)
    print(f"suite {report.suite}: {'all passed' if report.all_passed else 'FAILURES'} "
          f"({report.wall_time:.1f}s)")
    return 0 if report.all_passed else 1


def cmd_norm(args) -> int:
    cfg = _build_config(args)
    d = cfg.domain()
    f = function_preset(args.f, d)
    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    print(f"luxemburg_norm[f={args.f}, p={cfg.p}, w={cfg.w}] = "
          f"{luxemburg_norm(f, p, w):.10g}")
    return 0


def _apply_operator(spec: str, f: GridFunction, w) -> GridFunction:
    from . import maximal as mx

    name, _, arg = spec.partition(":")
    if name == "M":
        return mx.hl_maximal(f)
    if name == "Mloc":
        return mx.local_maximal(f)
    if name == "MlocR":
        return mx.local_maximal(f, R=float(arg))
    if name == "Mgrid":
        shift = tuple(int(c) for c in arg.split(";")) if arg else (1,) * f.domain.dim
        return mx.grid_maximal(f, shift)
    if name == "Mwpow":
        return mx.powered_weighted_local_maximal(f, w, float(arg))
    if name == "KB":
        return mx.k_b_operator(f, float(arg) if arg else 16.0)
    if name == "Ek":
        return mx.averaging_e_k(f, int(arg))
    if name == "Mdleq":
        return mx.restricted_dyadic_maximal(f, float(arg), "below")
    if name == "Mdgeq":
        return mx.restricted_dyadic_maximal(f, float(arg), "above")
    raise PresetError(f"unknown operator key {name!r} in {spec!r}")


def cmd_maximal(args) -> int:
    cfg = _build_config(args)
    d = cfg.domain()
    f = function_preset(args.f, d)
    w = weight_preset(cfg.w, d)
    out = _apply_operator(args.operator, f, w)
    path = Path(cfg.out or "maximal_profile.csv")
    row = out.samples[(d.half_npts,) * (d.dim - 1)]  # the last axis through 0
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(d.axis(), row):
            fh.write(f"{x!r},{v!r}\n")
    print(f"operator {args.operator}: sup = {out.sup():.8g}, profile -> {path}")
    return 0


def cmd_awconst(args) -> int:
    from .weights import (
        a1_loc_constant,
        a_loc_infty_constant,
        a_loc_p_constant,
        a_loc_var_constant,
        q_w_estimate,
        tilde_a_constant,
    )

    cfg = _build_config(args)
    d = cfg.domain()
    w = weight_preset(cfg.w, d)
    p = exponent_preset(cfg.p, d)
    print(f"A_infty^loc  = {a_loc_infty_constant(w).constant:.8g}")
    print(f"A_1^loc      = {a1_loc_constant(w).constant:.8g}")
    for pp in (1.5, 2.0, 4.0):
        print(f"A_{pp}^loc   = {a_loc_p_constant(w, pp).constant:.8g}")
    if p.p_minus > 1:
        print(f"A_p(.)^loc   = {a_loc_var_constant(w, p).constant:.8g}")
        print(f"tilde A      = {tilde_a_constant(w, p, max_side=1.0).constant:.8g}")
    print(f"q_w estimate = {q_w_estimate(w):.5g}")
    return 0


def cmd_atoms(args) -> int:
    from .atoms import atomic_decompose, save_decomposition, sequence_norm, synthesize
    from .hardy import nested_dictionaries
    from .norms import lq_norm

    cfg = _build_config(args)
    d = cfg.domain()
    f = function_preset(args.f, d)
    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    _, dic = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    dec = atomic_decompose(f, p, w, dic)
    err = lq_norm(synthesize(dec) - f, 2.0) / max(lq_norm(f, 2.0), 1e-300)
    a_norm = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
    path = Path(cfg.out or "decomposition.json")
    save_decomposition(dec, path)
    print(f"atoms={len(dec.atoms)} q={dec.q} L={dec.L} v={dec.v}")
    print(f"sequence_norm={a_norm:.8g} single={dec.single_part[0]:.8g}")
    print(f"round_trip_rel_l2={err:.3e}")
    print(f"written -> {path} (+ .bin sidecar)")
    return 0


def cmd_lp(args) -> int:
    from .littlewood_paley import lp_norm, make_phi_pair, telescoping_reconstruct

    cfg = _build_config(args)
    d = cfg.domain()
    f = function_preset(args.f, d)
    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    phi, phi_star = make_phi_pair(args.L, d)
    _, rep = telescoping_reconstruct(f, phi)
    print(f"lp_norm = {lp_norm(f, p, w, phi, phi_star):.8g}")
    print(f"telescope_error = {rep.q('telescope_error'):.3e}")
    print(f"mollification_rel_l2 = {rep.q('relative_l2_error'):.3e}")
    return 0


def cmd_wavelet(args) -> int:
    from .wavelets import analyze, build_wavelet_system, wavelet_norm

    cfg = _build_config(args)
    d = cfg.domain()
    f = function_preset(args.f, d)
    p = exponent_preset(cfg.p, d)
    w = weight_preset(cfg.w, d)
    sys_ = build_wavelet_system(args.N)
    print(f"wavelet_norm[J={args.J}] = {wavelet_norm(f, p, w, sys_, J=args.J):.8g}")
    co = analyze(f, sys_, args.J)
    path = Path(cfg.out or "wavelet_coeffs.json")
    _export_coefficients(co, path)
    print(f"coefficients -> {path} (+ .bin sidecar)")
    return 0


def _export_coefficients(co, path: Path) -> None:
    entries = []
    sidecar = path.with_suffix(".bin")
    offset = 0
    with open(sidecar, "wb") as fh:
        arr = np.ascontiguousarray(co.scaling, dtype="<f8")
        fh.write(arr.tobytes())
        entries.append({"l": 0, "j": co.J, "k": co.k_offset(co.J), "kind": "scaling",
                        "offset": offset, "count": arr.size})
        offset += arr.nbytes
        for j in sorted(co.details):
            for li, (name, ch) in enumerate(sorted(co.details[j].items()), start=1):
                arr = np.ascontiguousarray(ch, dtype="<f8")
                fh.write(arr.tobytes())
                entries.append({"l": li, "j": j, "k": co.k_offset(j), "kind": name,
                                "offset": offset, "count": arr.size})
                offset += arr.nbytes
    path.write_text(json.dumps({"sidecar": sidecar.name, "entries": entries},
                               indent=1, sort_keys=True))


def cmd_list(args) -> int:
    print(list_presets())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="varhardy", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("suite", help="run a probe suite (E1..E9)")
    _add_common(sp)
    sp.add_argument("--suite", type=str, default="E1", choices=sorted(SUITES))
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("norm", help="Luxemburg norm of a preset function")
    _add_common(sp)
    sp.add_argument("--f", type=str, default="bump:0,1")
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("maximal", help="apply a maximal-type operator")
    _add_common(sp)
    sp.add_argument("--f", type=str, default="bump:0,1")
    sp.add_argument(
        "--operator",
        type=str,
        default="Mloc",
        help="M | Mloc | MlocR:<R> | Mgrid:<a> | Mwpow:<u> | KB:<B> | Ek:<k> | Mdleq:<r0> | Mdgeq:<r0>",
    )
    sp.set_defaults(fn=cmd_maximal)

    sp = sub.add_parser("awconst", help="weight class constants")
    _add_common(sp)
    sp.set_defaults(fn=cmd_awconst)

    sp = sub.add_parser("atoms", help="atomic decomposition of a preset function")
    _add_common(sp)
    sp.add_argument("--f", type=str, default="bump:0,1")
    sp.set_defaults(fn=cmd_atoms)

    sp = sub.add_parser("lp", help="scale-difference norm and telescoping check")
    _add_common(sp)
    sp.add_argument("--f", type=str, default="bump:0,1")
    sp.add_argument("--L", type=int, default=2, help="vanishing moment order")
    sp.set_defaults(fn=cmd_lp)

    sp = sub.add_parser("wavelet", help="wavelet norm and coefficient export")
    _add_common(sp)
    sp.add_argument("--f", type=str, default="bump:0,1")
    sp.add_argument("--N", type=int, default=2, help="filter order")
    sp.add_argument("--J", type=int, default=0, help="coarsest level")
    sp.set_defaults(fn=cmd_wavelet)

    sp = sub.add_parser("list", help="list presets and suites")
    sp.set_defaults(fn=cmd_list)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
