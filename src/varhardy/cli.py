"""Command line interface.

    varhardy <suite|norm|maximal|awconst|atoms|lp|wavelet|list>
             [--config FILE] [--n 1] [--T 8] [--m 9] [--p PRESET]
             [--w PRESET] [--seed INT] [--out PATH] ...

A JSON config file mirrors the flags; explicit flags win.  Exit code 0
means every probe in the run passed or failed as a declared known gap
(printed `[xfail]`), 1 means some failed or a known gap passed (printed
`[XPASS]`), 2 is a usage error (unknown preset or malformed arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .grid import MAIN_GRID_SHIFT, GridFunction
from .harness import ExperimentConfig, SUITES, list_presets, run_suite
from .norms import luxemburg_norm
from .presets import PresetError, exponent_preset, function_preset, weight_preset

USAGE_ERROR = 2


def _common_parser() -> argparse.ArgumentParser:
    """The flags every command but `list` takes, as an argparse parent."""
    sp = argparse.ArgumentParser(add_help=False)
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
    return sp


def _parse_hardy_dict(spec: str) -> dict:
    out = {}
    mapping = {"size": ("dict_size", int), "seed": ("dict_seed", int), "rD": ("dict_radius", float)}
    for item in spec.split(","):
        key, _, val = item.partition("=")
        if key not in mapping:
            raise PresetError(f"unknown hardy-dict key {key!r}")
        field, cast = mapping[key]
        out[field] = _cast(cast, val, spec)
    return out


def _cast(cast, text: str, spec: str):
    """`text`, an argument of `spec`, as `cast`; a malformed one is a usage error."""
    try:
        return cast(text)
    except ValueError as exc:
        raise PresetError(f"malformed argument {text!r} in {spec!r}") from exc


# JSON value types accepted for each ExperimentConfig field annotation
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "str | None": (str, type(None))}


def _read_config(path: str) -> dict:
    """The config file's settings; a file that is not a JSON object of
    known keys with values of the field types is a usage error."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PresetError(f"malformed JSON in config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PresetError(f"config {path} must hold a JSON object, got {type(doc).__name__}")
    annotation = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = sorted(set(doc) - set(annotation))
    if unknown:
        raise PresetError(f"unknown config keys {unknown} in {path}")
    for key, val in doc.items():
        if isinstance(val, bool) or not isinstance(val, _CONFIG_TYPES[annotation[key]]):
            raise PresetError(f"config key {key!r} in {path} must be {annotation[key]}, got {val!r}")
    return doc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    merged: dict = _read_config(args.config) if args.config else {}
    for key in ("n", "T", "m", "p", "w", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "hardy_dict", None):
        merged.update(_parse_hardy_dict(args.hardy_dict))
    if getattr(args, "suite", None):
        merged["suite"] = args.suite
    return ExperimentConfig(**merged)


def _preset_inputs(args):
    """The config, its domain and the preset f, p and w of a preset command."""
    cfg = _build_config(args)
    d = cfg.domain()
    return cfg, d, function_preset(args.f, d), exponent_preset(cfg.p, d), weight_preset(cfg.w, d)


def _print_cases(report) -> None:
    for case in report.cases:
        row = case.row()
        mark = {"fail": "FAIL", "xpass": "XPASS"}.get(row["status"], row["status"])
        optional = (("value_m1", ".6g"), ("ratio", ".4g"))
        extra = "".join(f" {k}={row[k]:{fmt}}" for k, fmt in optional if row[k] is not None)
        print(f"[{mark}] {report.suite}/{row['case']} {row['quantity']}={row['value_m']:.6g}{extra}")
        if case.gap is not None:
            print(f"    known gap: {case.gap}")


def cmd_suite(args) -> int:
    cfg = _build_config(args)
    report = run_suite(cfg)
    _print_cases(report)
    print(f"suite {report.suite}: {'all passed' if report.all_passed else 'FAILURES'} "
          f"({report.wall_time:.1f}s)")
    return 0 if report.all_passed else 1


def cmd_norm(args) -> int:
    cfg, _, f, p, w = _preset_inputs(args)
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
        return mx.local_maximal(f, R=_cast(float, arg, spec))
    if name == "Mgrid":
        shift = tuple(_cast(int, c, spec) for c in arg.split(";")) if arg else (MAIN_GRID_SHIFT,) * f.domain.dim
        return mx.grid_maximal(f, shift)
    if name == "Mwpow":
        return mx.powered_weighted_local_maximal(f, w, _cast(float, arg, spec))
    if name == "KB":
        return mx.k_b_operator(f, _cast(float, arg, spec) if arg else 16.0)
    if name == "Ek":
        return mx.averaging_e_k(f, _cast(int, arg, spec))
    if name == "Mdleq":
        return mx.restricted_dyadic_maximal(f, _cast(float, arg, spec), "below")
    if name == "Mdgeq":
        return mx.restricted_dyadic_maximal(f, _cast(float, arg, spec), "above")
    raise PresetError(f"unknown operator key {name!r} in {spec!r}")


def cmd_maximal(args) -> int:
    cfg, d, f, _, w = _preset_inputs(args)
    t0 = time.perf_counter()
    out = _apply_operator(args.operator, f, w)
    wall = time.perf_counter() - t0
    path = Path(cfg.out or "maximal_profile.csv")
    row = out.samples[(d.half_npts,) * (d.dim - 1)]  # the last axis through 0
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(d.axis(), row):
            fh.write(f"{x!r},{v!r}\n")
    print(f"operator {args.operator}: sup = {out.sup():.8g}, wall {wall * 1e3:.2f} ms, profile -> {path}")
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
        for name, constant in (
            ("A_p(.)^loc", lambda: a_loc_var_constant(w, p)),
            ("tilde A", lambda: tilde_a_constant(w, p, max_side=1.0)),
        ):
            t0 = time.perf_counter()
            rep = constant()
            wall = time.perf_counter() - t0
            # of the cubes of every (level, shift), those whose norms were
            # solved: repeated layouts' cubes and pruned cubes are not; and
            # the candidates whose upper bound the second moment tightened
            print(
                f"{name:<12} = {rep.constant:.8g}  (solved {rep.cubes_solved} of {rep.cube_count} cubes, "
                f"{rep.cubes_refined} bounds refined, wall {wall * 1e3:.2f} ms)"
            )
    print(f"q_w estimate = {q_w_estimate(w):.5g}")
    return 0


def cmd_atoms(args) -> int:
    from .atoms import atomic_decompose, save_decomposition, sequence_norm, synthesize, validate_atoms
    from .hardy import nested_dictionaries
    from .norms import lq_norm

    cfg, d, f, p, w = _preset_inputs(args)
    _, dic = nested_dictionaries(2, cfg.dict_size, d, cfg.dict_seed, cfg.dict_radius)
    t0 = time.perf_counter()
    dec = atomic_decompose(f, p, w, dic)
    t1 = time.perf_counter()
    out = synthesize(dec)
    t2 = time.perf_counter()
    invalid = int(np.count_nonzero(~validate_atoms(dec, w)))
    t3 = time.perf_counter()
    err = lq_norm(out - f, 2.0) / max(lq_norm(f, 2.0), 1e-300)
    a_norm = sequence_norm(dec.lambdas, dec.cubes, p, w, dec.v)
    path = Path(cfg.out or "decomposition.json")
    save_decomposition(dec, path)
    print(f"atoms={len(dec.lambdas)} q={dec.q} L={dec.L} v={dec.v}")
    print(f"invalid_atoms={invalid}")
    print(f"sequence_norm={a_norm:.8g}")
    print(f"round_trip_rel_l2={err:.3e}")
    print(f"wall_s decompose={t1 - t0:.3f} synthesize={t2 - t1:.3f} validate={t3 - t2:.3f}")
    print(f"written -> {path} (+ .bin sidecar)")
    return 0


def cmd_lp(args) -> int:
    from .littlewood_paley import lp_norm, make_phi_pair, telescoping_reconstruct

    _, d, f, p, w = _preset_inputs(args)
    phi, phi_star = make_phi_pair(args.L, d)
    _, rep = telescoping_reconstruct(f, phi)
    print(f"lp_norm = {lp_norm(f, p, w, phi, phi_star):.8g}")
    print(f"telescope_error = {rep.q('telescope_error'):.3e}")
    print(f"mollification_rel_l2 = {rep.q('relative_l2_error'):.3e}")
    return 0


def cmd_wavelet(args) -> int:
    from .wavelets import analyze, build_wavelet_system, wavelet_norm

    cfg, _, f, p, w = _preset_inputs(args)
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
    common = _common_parser()
    preset = argparse.ArgumentParser(add_help=False, parents=[common])
    preset.add_argument("--f", type=str, default="bump:0,1")

    sp = sub.add_parser("suite", help="run a probe suite (E1..E9)", parents=[common])
    sp.add_argument("--suite", type=str, default="E1", choices=sorted(SUITES))
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("norm", help="Luxemburg norm of a preset function", parents=[preset])
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("maximal", help="apply a maximal-type operator", parents=[preset])
    sp.add_argument(
        "--operator",
        type=str,
        default="Mloc",
        help="M | Mloc | MlocR:<R> | Mgrid:<a> | Mwpow:<u> | KB:<B> | Ek:<k> | Mdleq:<r0> | Mdgeq:<r0>",
    )
    sp.set_defaults(fn=cmd_maximal)

    sp = sub.add_parser("awconst", help="weight class constants", parents=[common])
    sp.set_defaults(fn=cmd_awconst)

    sp = sub.add_parser("atoms", help="atomic decomposition of a preset function", parents=[preset])
    sp.set_defaults(fn=cmd_atoms)

    sp = sub.add_parser("lp", help="scale-difference norm and telescoping check", parents=[preset])
    sp.add_argument("--L", type=int, default=2, help="vanishing moment order")
    sp.set_defaults(fn=cmd_lp)

    sp = sub.add_parser("wavelet", help="wavelet norm and coefficient export", parents=[preset])
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
