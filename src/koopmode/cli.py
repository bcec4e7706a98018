"""Command-line front end.

Subcommands:
  synth   write a synthetic dataset with exactly known spectrum
  run     decompose a dataset and write the mode table and result files
  loo     run leave-one-out robustness and clustering on top of run
  rom     build reduced-order models and their error curves
  slice   export amplitude/phase (and ellipse) slices of selected modes

Settings come from a flat key=value config file; a few keys can also be
given as flags, which override the file.  Config lines, flags and ROM
blocks are parsed by one table into typed values, and each key's rule is
checked as it is read; the decomposition options are built once the
last flag is set.  All outputs are deterministic: rerunning a command
with the same config and seed rewrites byte-identical files.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error, 143 stopped by SIGTERM.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import signal
import sys
import threading
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .dmd import DmdOptions, DmdResult, exact_dmd
from .errors import ConfigError, DataFormatError, NumericalError
from .grids import GridLayout, SnapshotMatrix, extract_slice, section_cut, surface_cut
from .modes import (ModeInfo, format_mode_table, period, polar_mode,
                    tidal_ellipse, write_mode_table)
from .oracle import generate, tidal_spec
from .ranking import (CLUSTER_BANDWIDTH, CLUSTER_LEVEL_FRACTION, ROBUSTNESS_BANDWIDTH,
                      build_mode_table, kde_grid, KdeDensity, label_clusters,
                      leave_one_out, LeaveOneOutResult, robustness_scores)
from .rom import RomSelection, factor_error_curve, select_modes


@dataclass
class RunConfig:
    """Flat configuration shared by every subcommand.  roms maps each
    rom.<name> block to its given fields, typed as RomSelection's."""

    input: str = ""
    out: str = "out"
    seed: int = 0
    rank: int | None = None
    tlsq: bool = True
    normalize: bool = True
    mean_removal: bool = False
    bfit: str = "multi:10"
    loo_trials: int = 30
    h_robust: float = ROBUSTNESS_BANDWIDTH
    h_cluster: float = CLUSTER_BANDWIDTH
    cluster_level: float = CLUSTER_LEVEL_FRACTION
    persistence_t: float | None = None
    persistence_factor: float = 0.1
    synth_d: int = 500
    synth_n: int = 144
    synth_dt: float = 1.0
    synth_noise: float = 0.0
    synth_profile: str = "orthogonalized"
    slice_kind: str = "surface"
    slice_channel: str = ""
    slice_k: int = 0
    slice_path: tuple[tuple[int, ...], ...] = ()
    slice_modes: tuple[int, ...] = (1,)
    roms: dict = field(default_factory=dict)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {s!r}")


def _parse_indices(s: str) -> tuple[int, ...] | str:
    """A comma list of 1-based mode indices, repeats dropped in first-seen
    order; "all" stays the string "all" until the rank is known."""
    if s.strip().lower() == "all":
        return "all"
    return tuple(dict.fromkeys(int(t) for t in s.split(",") if t.strip()))


def _parse_path(s: str) -> tuple[tuple[int, ...], ...]:
    """A ;-separated list of comma lists of ints: j0,i0;j1,i1;..."""
    return tuple(tuple(int(c) for c in vert.split(",")) for vert in s.split(";") if vert.strip())


def _text(value) -> str:
    """value spelled as its parser reads it back: None as nothing, (1, 2)
    as 1,2 and ((0, 0), (2, 3)) as 0,0;2,3."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return (";" if value and isinstance(value[0], tuple) else ",").join(map(_text, value))
    return str(value)


def _optional(parse):
    return lambda s: None if s.strip() == "" else parse(s)


# One parser per field of RunConfig and of a rom.<name> block, chosen by
# its annotation.
_TYPE_PARSERS = {str: str, int: int, float: float, bool: _parse_bool,
                 int | None: _optional(int), float | None: _optional(float),
                 tuple[int, ...]: _parse_indices, tuple[int, ...] | None: _optional(_parse_indices),
                 tuple[tuple[int, ...], ...]: _parse_path}
_PARSERS = {name: _TYPE_PARSERS[hint]
            for name, hint in typing.get_type_hints(RunConfig).items() if name != "roms"}
_ROM_PARSERS = {name: _TYPE_PARSERS[hint]
                for name, hint in typing.get_type_hints(RomSelection).items()
                if not name.startswith("persistence_")}

# The rule a set (not None) value of a key must meet, and its wording.
_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
_FRACTION = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_BANDWIDTH = (lambda v: v > 0.0 and sys.float_info.min <= v * v < math.inf,
              "positive with a finite normal square")
_NUMBER = (lambda v: not math.isnan(v), "a number")
_RULES = {"loo_trials": (lambda v: v >= 1, ">= 1"), "seed": (lambda v: v >= 0, ">= 0"),
          "h_robust": _BANDWIDTH, "h_cluster": _BANDWIDTH, "cluster_level": _FRACTION,
          "persistence_t": _POSITIVE, "persistence_factor": _FRACTION,
          "synth_dt": _POSITIVE,  # OracleSpec rejects a step that aliases the preset
          "synth_noise": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
          "slice_kind": (lambda v: v in ("surface", "section"), "surface or section"),
          "slice_modes": (lambda v: v != "all" and len(v) > 0 and min(v) >= 1,
                          "a non-empty list of mode indices >= 1"),
          "slice_path": (lambda v: all(len(vert) == 2 for vert in v), "j,i pairs: j0,i0;j1,i1;..."),
          # rom.<name>.<field>: a NaN bound compares false, so it would bound nothing
          "indices": (lambda v: v == "all" or len(v) > 0 and min(v) >= 1,
                      "all or a non-empty list of mode indices >= 1"),
          "rms_min": _NUMBER, "rms_max": _NUMBER,
          "robustness_min": _NUMBER, "robustness_max": _NUMBER}


def _set(cfg: RunConfig, key: str, text: str, where: str) -> None:
    """Parse text as the value of key, a RunConfig field or
    rom.<name>.<field>, check the field's rule and assign it."""
    *block, fld = key.split(".")  # block is [] or ["rom", name]
    try:
        value = (_ROM_PARSERS if block else _PARSERS)[fld](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    if isinstance(value, str) and "#" in value:  # config_echo.cfg could not read it back
        raise ConfigError(f"{key} must not contain '#', which ends a config line, got {value}")
    ok, rule = _RULES.get(fld, (lambda v: True, ""))
    if value is not None and not ok(value):
        raise ConfigError(f"{key} must be {rule}, got {_text(value)}")
    if block:
        cfg.roms.setdefault(block[1], {})[fld] = value
    else:
        setattr(cfg, key, value)


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file; unknown keys are errors, and so
    is a ROM block that sets indices together with a box bound, or whose
    name, part of the file name rom_<name>_errors.csv, is empty or holds '/'."""
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
            if len(parts) != 3 or parts[2] not in _ROM_PARSERS or not parts[1] or "/" in parts[1]:
                raise ConfigError(f"{path}:{lineno}: bad ROM key {key!r}")
        elif key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        _set(cfg, key, value, f"{path}:{lineno}")
    for name, fields in cfg.roms.items():
        given = [f for f, v in fields.items() if v is not None and v is not False]
        if "indices" in given and len(given) > 1:
            raise ConfigError(f"rom.{name}: either indices or box bounds, got {', '.join(given)}")
    return cfg


def _config_echo(cfg: RunConfig) -> str:
    lines = [f"{key} = {_text(getattr(cfg, key))}" for key in _PARSERS]
    lines += (f"rom.{name}.{fld} = {_text(value)}"
              for name, fields in cfg.roms.items() for fld, value in fields.items())
    return "\n".join(sorted(lines)) + "\n"


class _OutputDir(contextlib.AbstractContextManager):
    """A command's output directory, a context manager that collects the
    written files for the manifest.  It appears with the first file, or
    with the mode file written at modes_path(), which finish renames to
    modes.dmdm.  An exception removes what the command made: that file,
    the files in a directory it made, then each such directory left empty."""

    def __init__(self, out: str, command: str):
        self.dir = Path(out)
        self.command = command
        self.files: list[str] = []
        self.partial: Path | None = None
        self.made: list[Path] = []  # outermost first

    def __exit__(self, kind, exc, tb) -> None:
        if kind is None:
            return
        if self.partial is not None:
            self.partial.unlink(missing_ok=True)
        for name in self.files if self.dir in self.made else ():
            (self.dir / name).unlink(missing_ok=True)
        with contextlib.suppress(OSError):  # stops at one another process wrote into
            for folder in reversed(self.made):
                folder.rmdir()

    def _mkdir(self) -> None:
        for folder in reversed([p for p in (self.dir, *self.dir.parents) if not p.exists()]):
            with contextlib.suppress(FileExistsError):  # else made meanwhile by another process
                folder.mkdir()
                self.made.append(folder)

    def path(self, name: str) -> Path:
        if not self.files:
            self._mkdir()
        self.files.append(name)
        return self.dir / name

    def modes_path(self) -> Path:
        self._mkdir()
        self.partial = self.dir / ".modes.dmdm.partial"
        return self.partial

    def write_text(self, name: str, text: str) -> None:
        self.path(name).write_text(text)

    def write_json(self, name: str, payload: dict) -> None:
        self.write_text(name, json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def finish(self, cfg: RunConfig) -> None:
        if self.partial is not None:
            os.replace(self.partial, self.path("modes.dmdm"))
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
    return DmdOptions(r=cfg.rank, use_tlsq=cfg.tlsq, normalize_columns=cfg.normalize,
                      remove_mean=cfg.mean_removal, b_fit=cfg.bfit)


@dataclass(frozen=True)
class _Analysis:
    """The input and decomposition of one command, and after leave-one-out
    the trials and each mode's robustness.  snap is a DMDS file opened for
    streaming, or CSV snapshots loaded whole."""

    snap: fileio.SnapshotFile | SnapshotMatrix
    t_window: float
    result: DmdResult
    loo: LeaveOneOutResult | None
    robustness: list[float | None]  # None for every mode without leave-one-out

    def table(self, layout: GridLayout | None) -> list[ModeInfo]:
        """The mode table with the robustness; a layout fills rms_vertical,
        reading each mode's vertical rows."""
        return [dataclasses.replace(info, robustness=s) for info, s in
                zip(build_mode_table(self.result, self.t_window, layout=layout), self.robustness)]


def _source(cfg: RunConfig) -> fileio.SnapshotFile | SnapshotMatrix:
    if not cfg.input:
        raise ConfigError("no input dataset configured (key: input)")
    return fileio.open_source(cfg.input)


def _analyse(cfg: RunConfig, opts: DmdOptions, snap: fileio.SnapshotFile | SnapshotMatrix,
             robust: bool, dest: Path | None = None) -> _Analysis:
    """Decompose snap, writing the modes to dest (or a temporary); robust
    runs leave-one-out and scores each mode's robustness."""
    if robust and snap.n < 3:  # a trial deletes one of the N - 1 pair columns
        raise DataFormatError(f"{cfg.input}: leave-one-out needs N >= 3 snapshots, "
                              f"the input has N = {snap.n}")
    t_window = cfg.persistence_t if cfg.persistence_t is not None else (snap.n - 1) * snap.dt
    result = exact_dmd(snap, opts, dest)
    loo = leave_one_out(result, trials=cfg.loo_trials, seed=cfg.seed) if robust else None
    return _Analysis(snap, t_window, result, loo, [None] * result.r if loo is None
                     else robustness_scores(result.mu, loo, h=cfg.h_robust).tolist())


def _write_result_files(out: _OutputDir, result: DmdResult, infos: list[ModeInfo]) -> None:
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
    write_mode_table(infos, out.path("modes_table.csv"))


def cmd_synth(cfg: RunConfig, opts: DmdOptions, out: _OutputDir) -> int:
    spec = tidal_spec(d=cfg.synth_d, n=cfg.synth_n, dt=cfg.synth_dt,
                      noise_sigma=cfg.synth_noise, seed=cfg.seed, profile=cfg.synth_profile)
    snap, truth = generate(spec)
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


def cmd_run(cfg: RunConfig, opts: DmdOptions, out: _OutputDir) -> int:
    a = _analyse(cfg, opts, _source(cfg), robust=False, dest=out.modes_path())
    infos = a.table(a.snap.layout)
    _write_result_files(out, a.result, infos)
    out.finish(cfg)
    print(f"run: r={a.result.r} modes from {a.snap.d}x{a.snap.n} snapshots -> {out.dir}")
    print(format_mode_table(infos), end="")
    return 0


def cmd_loo(cfg: RunConfig, opts: DmdOptions, out: _OutputDir) -> int:
    a = _analyse(cfg, opts, _source(cfg), robust=True, dest=out.modes_path())
    infos = a.table(a.snap.layout)
    pooled = a.loo.pooled()
    density = KdeDensity(points=pooled, weights=np.ones(pooled.size),
                         bandwidth=cfg.h_cluster)
    re_axis, im_axis, values = raster = kde_grid(density, extra_points=a.result.mu)
    clusters = label_clusters(density, raster, a.result.mu, cfg.cluster_level,
                              weights=np.array([info.rms for info in infos]))
    infos = [dataclasses.replace(info, cluster=c) for info, c in zip(infos, clusters)]
    _write_result_files(out, a.result, infos)
    fileio.write_csv(
        out.path("pooled_eigenvalues.csv"), ("trial", "omitted_column", "re", "im"),
        "%d,%d,%.17g,%.17g",
        ((t, trial.omitted_column, z.real, z.imag)
         for t, trial in enumerate(a.loo.trials) for z in trial.mu.tolist()),
    )
    im_text = ["%.17g" % im for im in im_axis.tolist()]  # each axis value formatted once
    fileio.write_csv(
        out.path("kde_grid.csv"), ("re", "im", "density"), "%s,%s,%.17g",
        ((re, im, v) for re, row in zip(("%.17g" % re for re in re_axis.tolist()), values)
         for im, v in zip(im_text, row.tolist())),
    )
    out.finish(cfg)
    n_clustered = sum(1 for info in infos if info.cluster is not None)
    failed = f", {len(a.loo.failures)} failed" if a.loo.failures else ""
    print(f"loo: {len(a.loo.trials)} trials{failed}, {pooled.size} pooled eigenvalues, "
          f"{n_clustered}/{a.result.r} modes in clusters -> {out.dir}")
    print(format_mode_table(infos), end="")
    return 0


def cmd_rom(cfg: RunConfig, opts: DmdOptions, out: _OutputDir) -> int:
    if not cfg.roms:
        raise ConfigError("no ROM selections configured (keys: rom.<name>.<field>)")
    a = _analyse(cfg, opts, _source(cfg),
                 robust=any(kw.get(f) is not None for kw in cfg.roms.values()
                            for f in ("robustness_min", "robustness_max")))
    infos = a.table(None)  # no selection reads rms_vertical
    curves = {}  # every selection resolves before the first file is written
    for name in sorted(cfg.roms):
        kw = cfg.roms[name]
        if kw.get("indices") == "all":
            kw = dict(kw, indices=tuple(range(1, a.result.r + 1)))
        sel = RomSelection(persistence_t=a.t_window,
                           persistence_factor=cfg.persistence_factor, **kw)
        try:
            indices = select_modes(infos, sel)
            curves[name] = indices, factor_error_curve(a.result, indices)
        except ValueError as exc:
            raise ConfigError(f"rom.{name}: {exc}") from exc
    data_rank = a.result.data_rank
    summary = {}
    for name, (indices, curve) in curves.items():
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


def cmd_slice(cfg: RunConfig, opts: DmdOptions, out: _OutputDir) -> int:
    if cfg.slice_kind == "section" and not cfg.slice_path:
        raise ConfigError("slice_path must be set for a section: j0,i0;j1,i1;...")
    snap = _source(cfg)
    layout = snap.layout
    channel = cfg.slice_channel or layout.channels[0].name
    # each cut is checked, and a section's path rasterized, once, before any data is read
    cut = (surface_cut(layout, channel, cfg.slice_k) if cfg.slice_kind == "surface"
           else section_cut(layout, channel, cfg.slice_path))
    # a velocity surface draws a pair's ellipse from ux and uy, unweighted, doubled
    uv = [(surface_cut(layout, name, cfg.slice_k), 2.0 / layout.channels[layout.channel_index(name)].weight)
          for name in ("ux", "uy")
          if cfg.slice_kind == "surface" and {"ux", "uy"} <= {c.name for c in layout.channels}]
    result = exact_dmd(snap, opts)
    for m in cfg.slice_modes:
        if not 1 <= m <= result.r:
            raise ConfigError(f"slice mode index {m} outside 1..{result.r}")
    for m in cfg.slice_modes:
        b = result.b[m - 1]
        sl = extract_slice(result.mode(m - 1, cut.rows), cut)
        for tag, grid in zip(("amplitude", "phase"), polar_mode(sl, b)):
            fileio.write_csv(out.path(f"slice_mode{m}_{tag}.csv"), ("row", "col", "value"),
                             "%d,%d,%.17g", fileio.grid_cells(grid))
        if uv and result.partner[m - 1] is not None:
            ell = tidal_ellipse(*(extract_slice(result.mode(m - 1, c.rows) * b, c) * scale
                                  for c, scale in uv))
            fileio.write_csv(
                out.path(f"slice_mode{m}_ellipse.csv"),
                ("row", "col", "semi_major", "semi_minor", "orientation_rad", "rotation_sense"),
                "%d,%d,%.17g,%.17g,%.17g,%s",
                fileio.grid_cells(ell.semi_major, ell.semi_minor, ell.orientation_rad, ell.rotation_sense))
    out.finish(cfg)
    print(f"slice: wrote {cfg.slice_kind} slices of modes {list(cfg.slice_modes)} -> {out.dir}")
    return 0


_COMMANDS = {"synth": cmd_synth, "run": cmd_run, "loo": cmd_loo, "rom": cmd_rom,
             "slice": cmd_slice}


# The config keys that a flag can also set: --out, ..., --mean-removal.
_FLAGS = ("out", "seed", "rank", "tlsq", "mean_removal", "bfit")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main returns 2, not SystemExit(2); subparsers inherit it
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="koopmode",
        description="Koopman-mode decomposition toolkit for gridded snapshot data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        for key in _FLAGS:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"config key {key} (overrides the config file)")
    return parser


def _config(args: argparse.Namespace) -> tuple[RunConfig, DmdOptions]:
    """The config file's settings, then each given flag set over its key,
    and the decomposition options they resolve to: DmdOptions checks rank
    and bfit, for every command."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for key in _FLAGS:
        if getattr(args, key) is not None:
            _set(cfg, key, getattr(args, key), "--" + key.replace("_", "-"))
    return cfg, _resolve_options(cfg)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  In the main thread a SIGTERM ends it as SystemExit(143),
    which removes what it made as an error does; the old handler is restored."""
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        args = build_parser().parse_args(argv)
        cfg, opts = _config(args)
        with _OutputDir(cfg.out, args.command) as out:
            return _COMMANDS[args.command](cfg, opts, out)
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:  # before ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        if previous is not None:  # None: one set outside Python, which cannot be put back
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
