"""Command-line front end.

Subcommands:
  synth   write a synthetic dataset with exactly known spectrum
  run     decompose a dataset and write the mode table and result files
  loo     run leave-one-out robustness and clustering on top of run
  rom     build reduced-order models and their error curves
  slice   export amplitude/phase (and ellipse) slices of selected modes

Settings come from a flat key=value config file plus a few overriding
flags.  All outputs are deterministic: rerunning a command with the same
config and seed rewrites byte-identical files.  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .dmd import DmdOptions, DmdResult, exact_dmd
from .errors import ConfigError, DataFormatError, NumericalError
from .grids import SnapshotMatrix, SurfaceSlice, VerticalSection, extract_slice
from .modes import (ModeInfo, format_mode_table, period, polar_mode,
                    tidal_ellipse, write_mode_table)
from .oracle import generate, tidal_spec
from .ranking import (build_mode_table, kde_grid, KdeDensity, label_clusters,
                      leave_one_out, LeaveOneOutResult, robustness_scores)
from .rom import RomSelection, factor_error_curve, select_modes

_ROM_FIELDS = ("indices", "rms_min", "rms_max", "robustness_min",
               "robustness_max", "persistent_only")


@dataclass
class RunConfig:
    """Flat configuration shared by every subcommand."""

    input: str = ""
    out: str = "out"
    seed: int = 0
    rank: int | None = None
    tlsq: bool = True
    tlsq_rank: int | None = None
    normalize: bool = True
    mean_removal: bool = False
    bfit: str = "multi:10"
    svd_mode: str = "high_accuracy"
    loo_trials: int = 30
    h_robust: float = 2e-3
    h_cluster: float = 2.5e-2
    cluster_level: float = 0.1
    persistence_t: float | None = None
    persistence_factor: float = 0.1
    synth_preset: str = "tidal"
    synth_d: int = 500
    synth_n: int = 144
    synth_dt: float = 1.0
    synth_noise: float = 0.0
    synth_profile: str = "orthogonalized"
    slice_kind: str = "surface"
    slice_channel: str = ""
    slice_k: int = 0
    slice_path: str = ""
    slice_modes: str = "1"
    roms: dict = field(default_factory=dict)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {s!r}")


def _optional(parse):
    return lambda s: None if s.strip() == "" else parse(s)


# One parser per RunConfig field, chosen by its annotation.
_TYPE_PARSERS = {str: str, int: int, float: float, bool: _parse_bool,
                 int | None: _optional(int), float | None: _optional(float)}
_PARSERS = {name: _TYPE_PARSERS[hint]
            for name, hint in typing.get_type_hints(RunConfig).items() if name != "roms"}


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file; unknown keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("rom."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _ROM_FIELDS:
                raise ConfigError(f"{path}:{lineno}: bad ROM key {key!r}")
            _, name, fld = parts
            cfg.roms.setdefault(name, {})[fld] = value
            continue
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _config_echo(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        if f.name == "roms":
            continue
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {'' if v is None else v}")
    for name in sorted(cfg.roms):
        for fld in _ROM_FIELDS:
            if fld in cfg.roms[name]:
                lines.append(f"rom.{name}.{fld} = {cfg.roms[name][fld]}")
    return "\n".join(sorted(lines)) + "\n"


def _rom_fields(name: str, fields: dict) -> dict:
    """The RomSelection keywords of one rom.<name> block; indices = all
    stays the string "all" until the rank is known."""
    kw = {}
    try:
        if "indices" in fields:
            txt = fields["indices"].strip()
            if txt.lower() == "all":
                kw["indices"] = "all"
            else:
                kw["indices"] = tuple(int(t) for t in txt.split(",") if t.strip())
        for fld in ("rms_min", "rms_max", "robustness_min", "robustness_max"):
            if fld in fields:
                kw[fld] = float(fields[fld])
        if "persistent_only" in fields:
            kw["persistent_only"] = _parse_bool(fields["persistent_only"])
    except ValueError as exc:
        raise ConfigError(f"rom.{name}: {exc}") from exc
    return kw


def _slice_request(cfg: RunConfig) -> tuple[list[int], SurfaceSlice | VerticalSection]:
    """The 1-based mode indices and the slice geometry of cfg.  The
    geometry's channel is left empty: it needs the layout of the input."""
    try:
        modes_idx = [int(t) for t in cfg.slice_modes.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad slice_modes: {exc}") from exc
    if not modes_idx:
        raise ConfigError("slice_modes selects no modes")
    if cfg.slice_kind == "surface":
        return modes_idx, SurfaceSlice(channel="", k=cfg.slice_k)
    if cfg.slice_kind != "section":
        raise ConfigError(f"unknown slice_kind {cfg.slice_kind!r}")
    try:
        verts = tuple(
            tuple(int(c) for c in vert.split(","))
            for vert in cfg.slice_path.split(";") if vert.strip()
        )
    except ValueError as exc:
        raise ConfigError(f"bad slice_path: {exc}") from exc
    if not verts or any(len(v) != 2 for v in verts):
        raise ConfigError("slice_path must be j0,i0;j1,i1;...")
    return modes_idx, VerticalSection(channel="", path=verts)


class _OutputDir:
    """Collects written files so the manifest can list them."""

    def __init__(self, out: str, command: str):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.files: list[str] = []

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.dir / name

    def write_text(self, name: str, text: str) -> None:
        self.path(name).write_text(text)

    def write_json(self, name: str, payload: dict) -> None:
        self.write_text(name, json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def finish(self, cfg: RunConfig) -> None:
        self.write_text("config_echo.cfg", _config_echo(cfg))
        manifest = {
            "schema": "koopmode.manifest.v1",
            "command": self.command,
            "files": sorted(self.files),
        }
        (self.dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        )


def _complex_pairs(arr: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=complex)]


def _resolve_options(cfg: RunConfig) -> DmdOptions:
    """Decomposition options from the config; an unset rank stays None,
    which the decomposition resolves to its default rank."""
    try:
        return DmdOptions(r=cfg.rank, use_tlsq=cfg.tlsq, tlsq_rank=cfg.tlsq_rank,
                          normalize_columns=cfg.normalize, remove_mean=cfg.mean_removal,
                          b_fit=cfg.bfit, svd_mode=cfg.svd_mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_settings(cfg: RunConfig) -> None:
    """Reject bad window, robustness and clustering settings before any
    data is read or decomposed."""
    checks = (
        ("loo_trials", cfg.loo_trials >= 1, ">= 1"),
        ("h_robust", 0.0 < cfg.h_robust < math.inf, "positive and finite"),
        ("h_cluster", 0.0 < cfg.h_cluster < math.inf, "positive and finite"),
        ("cluster_level", 0.0 < cfg.cluster_level < 1.0, "in (0, 1)"),
        ("persistence_t", cfg.persistence_t is None or 0.0 < cfg.persistence_t < math.inf,
         "positive and finite"),
        ("persistence_factor", 0.0 < cfg.persistence_factor < 1.0, "in (0, 1)"),
    )
    for key, ok, rule in checks:
        if not ok:
            raise ConfigError(f"{key} must be {rule}, got {getattr(cfg, key)}")


@dataclass(frozen=True)
class _Analysis:
    """The input, decomposition and mode table of one command; after
    leave-one-out also the trials.  snap is a DMDS file opened for
    streaming, or CSV snapshots loaded whole."""

    snap: fileio.SnapshotFile | SnapshotMatrix
    t_window: float
    result: DmdResult
    infos: list[ModeInfo]
    loo: LeaveOneOutResult | None


def _analyse(cfg: RunConfig, robust: bool) -> _Analysis:
    """Load, resolve options, decompose and tabulate the modes; robust runs
    leave-one-out and fills the robustness column."""
    if not cfg.input:
        raise ConfigError("no input dataset configured (key: input)")
    _check_settings(cfg)
    opts = _resolve_options(cfg)
    try:
        snap = fileio.open_source(cfg.input)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
    if robust and snap.n < 3:  # a trial deletes one of the N - 1 pair columns
        raise DataFormatError(f"{cfg.input}: leave-one-out needs N >= 3 snapshots, "
                              f"the input has N = {snap.n}")
    t_window = cfg.persistence_t if cfg.persistence_t is not None else (snap.n - 1) * snap.dt
    loo = leave_one_out(snap, opts, trials=cfg.loo_trials, seed=cfg.seed) if robust else None
    result = loo.base if robust else exact_dmd(snap, opts)
    infos = build_mode_table(result, t_window, layout=snap.layout)
    if robust:
        scores = robustness_scores(result.mu, loo, h=cfg.h_robust)
        infos = [dataclasses.replace(info, robustness=float(s))
                 for info, s in zip(infos, scores)]
    return _Analysis(snap, t_window, result, infos, loo)


def _write_result_files(out: _OutputDir, a: _Analysis) -> None:
    result = a.result
    result.modes_file.copy_to(out.path("modes.dmdm"))  # never reads the mapped modes
    payload = {
        "schema": "koopmode.result.v1",
        "r": result.r,
        "dt": result.dt,
        "t0": result.t0,
        "options": result.options.to_json_dict(),
        "eigenvalues": _complex_pairs(result.mu),
        "gamma": _complex_pairs(result.gamma),
        "b": _complex_pairs(result.b),
        "residuals": [float(x) for x in result.residuals],
        "singular_values": [float(x) for x in result.singular_values],
        "modes_file": "modes.dmdm",
    }
    out.write_json("result.json", payload)
    fileio.write_csv(out.path("singular_values.csv"), ("k", "sigma"), "%d,%.17g",
                     enumerate(result.singular_values.tolist(), start=1))
    write_mode_table(a.infos, out.path("modes_table.csv"))


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth_preset != "tidal":
        raise ConfigError(f"unknown synth preset {cfg.synth_preset!r}")
    try:
        spec = tidal_spec(d=cfg.synth_d, n=cfg.synth_n, dt=cfg.synth_dt,
                          noise_sigma=cfg.synth_noise, seed=cfg.seed,
                          profile=cfg.synth_profile)
        snap, truth = generate(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _OutputDir(cfg.out, "synth")
    fileio.write_snapshots(out.path("oracle.dmds"), snap)
    out.files.append("oracle.dmds.grid.json")
    fileio.write_mode_matrix(out.path("ground_truth_modes.dmdm"), truth.modes, spec.dt)
    out.write_json("ground_truth.json", {
        "schema": "koopmode.ground_truth.v1",
        "dt": spec.dt,
        "eigenvalues": _complex_pairs(truth.mu),
        "gamma": _complex_pairs(truth.gamma),
        "b": _complex_pairs(truth.b),
        "profile": cfg.synth_profile,
        "modes_file": "ground_truth_modes.dmdm",
    })
    out.finish(cfg)
    print(f"synth: wrote {snap.d}x{snap.n} dataset, {truth.mu.size} true modes "
          f"to {out.dir}")
    for g, b in zip(truth.gamma, truth.b):
        if g.imag < 0:
            continue
        p = period(g)
        pt = "" if math.isinf(p) else f"{p:.2f}"
        print(f"  gamma={g.real:+.4f}{g.imag:+.4f}i  period={pt:>6}  |b|={abs(b):.2f}")
    return 0


def cmd_run(cfg: RunConfig) -> int:
    a = _analyse(cfg, robust=False)
    out = _OutputDir(cfg.out, "run")
    _write_result_files(out, a)
    out.finish(cfg)
    print(f"run: r={a.result.r} modes from {a.snap.d}x{a.snap.n} snapshots -> {out.dir}")
    print(format_mode_table(a.infos, max_rows=20), end="")
    return 0


def cmd_loo(cfg: RunConfig) -> int:
    a = _analyse(cfg, robust=True)
    pooled = a.loo.pooled()
    density = KdeDensity(points=pooled, weights=np.ones(pooled.size),
                         bandwidth=cfg.h_cluster)
    raster = kde_grid(density, extra_points=a.result.mu, normalized=False)
    clusters = label_clusters(density, raster, a.result.mu, cfg.cluster_level,
                              weights=np.array([info.rms for info in a.infos]))
    re_axis, im_axis, values = raster
    values /= density.normalization  # in place, as kde_grid(normalized=True)
    a = dataclasses.replace(a, infos=[dataclasses.replace(info, cluster=c)
                                      for info, c in zip(a.infos, clusters)])
    out = _OutputDir(cfg.out, "loo")
    _write_result_files(out, a)
    fileio.write_csv(
        out.path("pooled_eigenvalues.csv"), ("trial", "omitted_column", "re", "im"),
        "%d,%d,%.17g,%.17g",
        ((t, trial.omitted_column, z.real, z.imag)
         for t, trial in enumerate(a.loo.trials) for z in trial.mu.tolist()),
    )
    im_list = im_axis.tolist()
    fileio.write_csv(
        out.path("kde_grid.csv"), ("re", "im", "density"), "%.17g,%.17g,%.17g",
        ((re, im, v) for re, row in zip(re_axis.tolist(), values)
         for im, v in zip(im_list, row.tolist())),
    )
    out.finish(cfg)
    n_clustered = sum(1 for info in a.infos if info.cluster is not None)
    failed = f", {len(a.loo.failures)} failed" if a.loo.failures else ""
    print(f"loo: {len(a.loo.trials)} trials{failed}, {pooled.size} pooled eigenvalues, "
          f"{n_clustered}/{a.result.r} modes in clusters -> {out.dir}")
    print(format_mode_table(a.infos, max_rows=20), end="")
    return 0


def cmd_rom(cfg: RunConfig) -> int:
    if not cfg.roms:
        raise ConfigError("no ROM selections configured (keys: rom.<name>.<field>)")
    selections = {name: _rom_fields(name, cfg.roms[name]) for name in sorted(cfg.roms)}
    a = _analyse(cfg, robust=any(
        "robustness_min" in f or "robustness_max" in f for f in cfg.roms.values()))
    data_rank = a.result.data_rank
    out = _OutputDir(cfg.out, "rom")
    summary = {}
    for name, kw in selections.items():
        if kw.get("indices") == "all":
            kw["indices"] = tuple(range(1, a.result.r + 1))
        sel = RomSelection(persistence_t=a.t_window,
                           persistence_factor=cfg.persistence_factor, **kw)
        try:
            indices = select_modes(a.infos, sel)
            curve = factor_error_curve(a.result, indices)
        except ValueError as exc:
            raise ConfigError(f"rom.{name}: {exc}") from exc
        fileio.write_csv(
            out.path(f"rom_{name}_errors.csv"), ("n", "t_hours", "rom_norm", "rel_error"),
            "%d,%.17g,%.17g,%.17g",
            zip(curve.steps.tolist(), curve.times_hours.tolist(),
                curve.rom_norm.tolist(), curve.rel_error.tolist()),
        )
        summary[name] = {
            "indices": list(indices),
            "n_modes": len(indices),
            "pct_of_rank": 100.0 * len(indices) / data_rank,
            "max_rel_error": float(curve.rel_error.max()),
        }
        print(f"rom {name}: {len(indices)} modes "
              f"({summary[name]['pct_of_rank']:.2f}% of rank {data_rank}), "
              f"max rel error {curve.rel_error.max():.3e}")
    out.write_json("rom_summary.json", {
        "schema": "koopmode.rom_summary.v1",
        "data_rank": data_rank,
        "roms": summary,
    })
    out.finish(cfg)
    return 0


def _ellipse_rows(gu: np.ndarray, gv: np.ndarray):
    for (j, i), u in np.ndenumerate(gu):
        v = gv[j, i]
        if np.isnan(u.real) or np.isnan(v.real):
            yield j, i, math.nan, math.nan, math.nan, ""
            continue
        ell = tidal_ellipse(u, v)
        yield (j, i, ell.semi_major, ell.semi_minor, ell.orientation_rad,
               ell.rotation_sense)


def cmd_slice(cfg: RunConfig) -> int:
    modes_idx, spec = _slice_request(cfg)
    a = _analyse(cfg, robust=False)
    result, layout = a.result, a.snap.layout
    channel = cfg.slice_channel or layout.channels[0].name
    names = {c.name for c in layout.channels}
    if channel not in names:
        raise ConfigError(f"layout has no channel named {channel!r}; "
                          f"available: {', '.join(sorted(names))}")
    for m in modes_idx:
        if not 1 <= m <= result.r:
            raise ConfigError(f"slice mode index {m} outside 1..{result.r}")
    spec = dataclasses.replace(spec, channel=channel)
    out = _OutputDir(cfg.out, "slice")
    for m in modes_idx:
        phi, b = result.mode(m - 1), result.b[m - 1]
        try:
            sl = extract_slice(phi, layout, spec)
        except (IndexError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for tag, grid in zip(("amplitude", "phase"), polar_mode(sl, b)):
            fileio.write_csv(
                out.path(f"slice_mode{m}_{tag}.csv"), ("row", "col", "value"), "%d,%d,%.17g",
                ((i, j, v) for i, row in enumerate(grid.tolist()) for j, v in enumerate(row)),
            )
        if (cfg.slice_kind == "surface" and result.partner[m - 1] is not None
                and {"ux", "uy"} <= names):
            vec = phi * b
            w_ux = layout.channels[layout.channel_index("ux")].weight
            w_uy = layout.channels[layout.channel_index("uy")].weight
            gu = layout.grid_from_stacked(vec, "ux")[cfg.slice_k] * (2.0 / w_ux)
            gv = layout.grid_from_stacked(vec, "uy")[cfg.slice_k] * (2.0 / w_uy)
            fileio.write_csv(
                out.path(f"slice_mode{m}_ellipse.csv"),
                ("row", "col", "semi_major", "semi_minor", "orientation_rad",
                 "rotation_sense"),
                "%d,%d,%.17g,%.17g,%.17g,%s", _ellipse_rows(gu, gv),
            )
    out.finish(cfg)
    print(f"slice: wrote {cfg.slice_kind} slices of modes {modes_idx} -> {out.dir}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "run": cmd_run,
    "loo": cmd_loo,
    "rom": cmd_rom,
    "slice": cmd_slice,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopmode",
        description="Koopman-mode decomposition toolkit for gridded snapshot data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--rank", type=int, help="truncation rank (overrides config)")
        p.add_argument("--tlsq", choices=("on", "off"),
                       help="total-least-squares projection (overrides config)")
        p.add_argument("--mean-removal", choices=("on", "off"), dest="mean_removal",
                       help="temporal mean removal (overrides config)")
        p.add_argument("--bfit", help="amplitude fit: first or multi:<count>")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.rank is not None:
        cfg.rank = args.rank
    if args.tlsq is not None:
        cfg.tlsq = args.tlsq == "on"
    if args.mean_removal is not None:
        cfg.mean_removal = args.mean_removal == "on"
    if args.bfit is not None:
        cfg.bfit = args.bfit
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
