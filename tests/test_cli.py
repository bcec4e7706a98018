"""Command-line interface: config parsing, subcommand pipelines, exit
codes, and byte-level determinism of outputs."""
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import signal
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmode import cli, fileio, ranking
from koopmode.cli import main, load_config, RunConfig
from koopmode.dmd import DmdResult, exact_dmd
from koopmode.errors import ConfigError
from koopmode.fileio import open_snapshots, write_mode_matrix, write_snapshots
from koopmode.grids import (SnapshotMatrix, VelocityField, scalar_layout,
                            stack_observables, velocity_layout)
from koopmode.oracle import TIDAL_PERIODS_HOURS
from koopmode.ranking import KdeDensity, kde_grid

from conftest import make_rng, rank_critical_snapshots


def write_cfg(tmp_path, name="run.cfg", **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def dir_digest(path):
    out = {}
    for p in sorted(path.iterdir()):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def synth_dataset(tmp_path, d=40, n=32, noise=0.0, seed=0):
    out = tmp_path / "synth"
    cfg = write_cfg(tmp_path, "synth.cfg", out=out, synth_d=d, synth_n=n,
                    synth_noise=noise, seed=seed)
    assert main(["synth", "--config", cfg]) == 0
    return out / "oracle.dmds"


# ---------------------------------------------------------------- config

def test_load_config_parses_values(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# a comment line\n"
        "input = data.dmds   # trailing comment\n"
        "rank = 17\n"
        "tlsq = off\n"
        "persistence_t = 143.0\n"
        "slice_path = 0,1; 2,3\n"
        "slice_modes = 3,1,3\n"
        "rom.big.indices = all\n"
        "rom.band.rms_min = 0.5\n"
        "rom.band.rms_max = 2.0\n"
        "rom.band.persistent_only = on\n"
        "rom.band.robustness_min =\n"
        "\n"
    )
    cfg = load_config(path)
    assert cfg.input == "data.dmds"
    assert cfg.rank == 17 and cfg.tlsq is False
    assert cfg.persistence_t == 143.0
    assert cfg.slice_path == ((0, 1), (2, 3)) and cfg.slice_modes == (3, 1)
    assert cfg.roms == {"big": {"indices": "all"},
                        "band": {"rms_min": 0.5, "rms_max": 2.0, "persistent_only": True,
                                 "robustness_min": None}}


@pytest.mark.parametrize("line", ["wavelets = on", "svd_mode = high_accuracy",
                                  "synth_preset = tidal", "tlsq_rank = 5"])
def test_load_config_rejects_unknown_key(tmp_path, line):
    """An unknown key, or one that older versions read, is an error."""
    path = tmp_path / "a.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_bad_rom_key(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("rom.x.colour = 3\n")
    with pytest.raises(ConfigError, match="ROM key"):
        load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("rank = seventeen\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_rejects_bare_line(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_config_echo_round_trips(tmp_path):
    """load_config reads back what config_echo.cfg writes: every field,
    each set away from its default where its rule allows another value,
    and the ROM blocks.  A field without a parser reads as an unknown key."""
    cfg = RunConfig(
        input="data.dmds", out="elsewhere", seed=5, rank=17, tlsq=False,
        normalize=False, mean_removal=True, bfit="first",
        loo_trials=7, h_robust=0.004, h_cluster=0.05,
        cluster_level=0.2, persistence_t=143.5, persistence_factor=0.3,
        synth_d=60, synth_n=48, synth_dt=0.5,
        synth_noise=1e-3, synth_profile="phase_ramp", slice_kind="section",
        slice_channel="uz", slice_k=2, slice_path=((0, 0), (2, 3)), slice_modes=(1, 2),
        roms={"all": {"indices": "all"}, "some": {"indices": (3, 1)},
              "band": {"rms_min": 0.5, "rms_max": None, "persistent_only": True}})
    for f in dataclasses.fields(RunConfig):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        assert getattr(cfg, f.name) != default, f.name
    path = tmp_path / "echo.cfg"
    path.write_text(cli._config_echo(cfg))
    assert load_config(path) == cfg
    echo = path.read_text()
    assert "slice_path = 0,0;2,3\n" in echo and "rom.band.persistent_only = True\n" in echo


_INDICES = st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True).map(tuple)
_BOUND = st.one_of(st.none(), st.floats(allow_nan=False))
_ROM_BLOCK = st.one_of(
    st.fixed_dictionaries({"indices": st.one_of(st.just("all"), _INDICES)}),
    st.fixed_dictionaries({}, optional={"indices": st.none(), "rms_min": _BOUND,
                                        "rms_max": _BOUND, "robustness_min": _BOUND,
                                        "robustness_max": _BOUND,
                                        "persistent_only": st.booleans()}).filter(bool))


@given(modes=_INDICES,
       path=st.lists(st.tuples(st.integers(-9, 99), st.integers(-9, 99)), max_size=5).map(tuple),
       roms=st.dictionaries(st.text("abz_019", min_size=1, max_size=5), _ROM_BLOCK, max_size=3))
@settings(max_examples=60, deadline=None)
def test_config_echo_round_trips_typed_slice_and_rom_values(modes, path, roms):
    """Whatever typed slice and ROM values a config holds, load_config
    reads back from config_echo.cfg the same values."""
    cfg = RunConfig(slice_modes=modes, slice_path=path, roms=roms)
    with tempfile.TemporaryDirectory() as tmp:
        echo = Path(tmp) / "echo.cfg"
        echo.write_text(cli._config_echo(cfg))
        assert load_config(echo) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "none.cfg")


def _switch():
    return st.sampled_from(["on", "off", "true", "False", "YES", "no", "1", "0"])


@given(out=st.text("abc_/.0123456789", min_size=1, max_size=12),
       seed=st.integers(0, 10**6), rank=st.one_of(st.just(""), st.integers(1, 500)),
       tlsq=_switch(), mean_removal=_switch(),
       bfit=st.one_of(st.just("first"), st.integers(2, 40).map("multi:{}".format)))
@settings(max_examples=60, deadline=None)
def test_flags_set_what_config_lines_set(out, seed, rank, tlsq, mean_removal, bfit):
    """The six flags are config keys: given as flags or as config lines,
    the same values give the same RunConfig."""
    values = dict(out=out, seed=seed, rank=rank, tlsq=tlsq,
                  mean_removal=mean_removal, bfit=bfit)
    flags = [arg for key, v in values.items()
             for arg in ("--" + key.replace("_", "-"), str(v))]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), **values)
        from_lines = cli._config(cli.build_parser().parse_args(["run", "--config", path]))
    from_flags = cli._config(cli.build_parser().parse_args(["run", *flags]))
    assert from_flags == from_lines  # the config and the options it resolves to
    assert from_flags[0].rank == (rank or None) and from_flags[0].seed == seed
    assert from_flags[1].r == from_flags[0].rank and from_flags[1].b_fit == bfit


@pytest.mark.parametrize("flag,value", [("--tlsq", "maybe"), ("--rank", "x"),
                                        ("--seed", "x")])
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, flag, value):
    """A flag's value is parsed as the config key's: a bad one returns 2
    from main, as a bad config line does, instead of an argparse exit."""
    assert main(["run", flag, value, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {flag}: bad value for {flag[2:]}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["run", "--rank"], ["run", "--colour", "x"], [], ["bogus"]],
                         ids=["no-value", "unknown-flag", "no-command", "unknown-command"])
def test_argparse_errors_are_config_errors(capsys, argv):
    """What argparse itself rejects returns 2 from main with a config
    error, as a bad flag value does, instead of raising SystemExit."""
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--mean-removal" in capsys.readouterr().out


@pytest.mark.parametrize("command,key,value", [
    ("synth", "synth_noise", "nan"), ("synth", "synth_noise", -1e-3),
    ("synth", "synth_dt", "nan"), ("synth", "synth_dt", "inf"), ("synth", "synth_dt", 0),
    ("synth", "synth_dt", 1e-320), ("synth", "synth_dt", 1e-14),
    ("synth", "synth_dt", 12), ("synth", "synth_dt", 24),
    ("synth", "seed", -1), ("run", "seed", -1),
])
def test_synthesis_and_seed_keys_are_checked_when_read(tmp_path, capsys, command, key, value):
    """synth_noise (finite, >= 0), synth_dt (positive and finite) and seed
    (>= 0) fail as the config is read, naming the key, and write nothing.
    A positive synth_dt that puts two of the preset's eigenvalues within
    N eps of each other (12 h and 24 h take S2 onto the constant mode's 1)
    is refused by OracleSpec, also before anything is written."""
    cfg = write_cfg(tmp_path, "c.cfg", out=tmp_path / "o", **{key: value})
    assert main([command, "--config", cfg]) == 2
    owner = key == "synth_dt" and 0 < float(value) < math.inf
    expected = (f"dt = {float(value)} h puts two closed-set eigenvalues" if owner
                else f"{key} must be ")
    assert f"config error: {expected}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_settings_are_checked_for_every_command(tmp_path, capsys):
    """A key's rule holds whichever command reads it: synth, which never
    runs leave-one-out, still rejects loo_trials = 0."""
    cfg = write_cfg(tmp_path, "synth.cfg", out=tmp_path / "synth", loo_trials=0)
    assert main(["synth", "--config", cfg]) == 2
    assert "config error: loo_trials must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "synth").exists()


@pytest.mark.parametrize("command", ["synth", "run", "rom", "slice"])
@pytest.mark.parametrize("key,value,message", [
    ("bfit", "bogus", "unknown b_fit 'bogus'"),
    ("rank", "0", "truncation rank r must be >= 1, got 0"),
    ("rom.a.rms_min", "abc", "bad value for rom.a.rms_min: could not convert"),
    ("rom.a.indices", "1,x", "bad value for rom.a.indices: invalid literal"),
    ("rom.a.indices", "0", "rom.a.indices must be all or a non-empty list of mode indices >= 1, "
                           "got 0"),
    ("rom.a.indices", "-1,2", "rom.a.indices must be all or a non-empty list of mode indices "
                              ">= 1, got -1,2"),
    ("rom.a.indices", ",", "rom.a.indices must be all or a non-empty list of mode indices >= 1, "
                           "got \n"),
    ("slice_modes", "x", "bad value for slice_modes: invalid literal"),
    ("slice_modes", "all", "slice_modes must be a non-empty list of mode indices >= 1, got all"),
    ("slice_modes", "0", "slice_modes must be a non-empty list of mode indices >= 1, got 0"),
    ("slice_modes", "-2", "slice_modes must be a non-empty list of mode indices >= 1, got -2"),
    ("slice_path", "1;2", "slice_path must be j,i pairs: j0,i0;j1,i1;..., got 1;2"),
])
def test_every_command_rejects_what_another_command_reads(tmp_path, monkeypatch, capsys,
                                                          command, key, value, message):
    """A ROM, slice or decomposition setting is parsed and checked as the
    config is read, by the one setter or by DmdOptions, so every command,
    synth and run too, which use none of the ROM and slice keys, exits 2
    on a bad one before it reads its input, and writes nothing."""
    def never(*args, **kwargs):
        raise AssertionError("called before the settings were checked")

    data = synth_dataset(tmp_path)
    monkeypatch.setattr(cli.fileio, "open_source", never)
    capsys.readouterr()
    out = tmp_path / f"{command}-out"
    cfg = write_cfg(tmp_path, f"{command}.cfg", input=data, out=out, synth_d=40, synth_n=32,
                    **{key: value})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "run", "rom", "slice"])
@pytest.mark.parametrize("flag,value", [("--out", "runs#1"), ("--bfit", "multi:10#2")])
def test_a_flag_value_holding_a_hash_is_rejected(tmp_path, monkeypatch, capsys, command,
                                                 flag, value):
    """A '#' ends a config line, so config_echo.cfg could not hold the
    value: a flag that sets one exits 2 as it is read, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main([command, flag, value]) == 2
    key = flag[2:]
    assert capsys.readouterr().err == (f"config error: {key} must not contain '#', "
                                       f"which ends a config line, got {value}\n")
    assert list(tmp_path.iterdir()) == []


def test_slice_kind_is_checked_for_run(tmp_path, capsys):
    """run never slices, yet a slice_kind other than surface or section
    in its config fails as the config is read."""
    data = synth_dataset(tmp_path)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, input=data, out=out, rank=17, slice_kind="bogus")
    assert main(["run", "--config", cfg]) == 2
    assert ("config error: slice_kind must be surface or section, got bogus"
            in capsys.readouterr().err)
    assert not out.exists()


# ----------------------------------------------------------------- synth

def test_synth_outputs(tmp_path, capsys):
    data = synth_dataset(tmp_path)
    outdir = data.parent
    for name in ("oracle.dmds", "oracle.dmds.grid.json",
                 "ground_truth_modes.dmdm", "ground_truth.json",
                 "config_echo.cfg", "manifest.json"):
        assert (outdir / name).is_file(), name
    truth = json.loads((outdir / "ground_truth.json").read_text())
    assert len(truth["eigenvalues"]) == 17
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert "oracle.dmds" in manifest["files"]
    assert "synth: wrote" in capsys.readouterr().out


def test_synth_bad_preset(tmp_path, capsys):
    """synth_preset is no longer a key: the one preset is the tidal one."""
    cfg = write_cfg(tmp_path, out=tmp_path / "o", synth_preset="storm")
    assert main(["synth", "--config", cfg]) == 2
    assert "unknown key 'synth_preset'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------------- run

def test_run_recovers_tidal_spectrum(tmp_path, capsys):
    data = synth_dataset(tmp_path, d=60, n=64)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "run.cfg", input=data, out=out, rank=17)
    assert main(["run", "--config", cfg]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["r"] == 17
    got = sorted(abs(complex(re, im) - 1.0) < 2.0 for re, im in result["eigenvalues"])
    assert len(got) == 17
    angles = sorted(abs(math.atan2(im, re)) for re, im in result["eigenvalues"])
    expected = sorted([0.0] + [2 * math.pi / p for p in TIDAL_PERIODS_HOURS.values()
                               for _ in (0, 1)])
    assert np.allclose(angles, expected, atol=1e-8)
    with open(out / "modes_table.csv") as fh:
        header = fh.readline().strip()
    assert header == "idx,Cluster,PT,HLT,L2RMS,L2wRMS,KSnarrow"
    assert "run: r=17" in capsys.readouterr().out


def test_run_default_rank_caps_at_n_minus_4(tmp_path):
    data = synth_dataset(tmp_path, d=60, n=18)  # rank 17 data, n - 4 = 14
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "run.cfg", input=data, out=out)
    assert main(["run", "--config", cfg]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["r"] == 14


def test_run_csv_input_and_overrides(tmp_path):
    n = 12
    t = np.arange(n)
    rows = np.vstack([np.cos(0.5 * t), np.sin(0.5 * t)])
    lines = [",".join(f"t={float(x)}" for x in t)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    csv_path = tmp_path / "wave.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "runcsv"
    cfg = write_cfg(tmp_path, "run.cfg", input=csv_path, out=tmp_path / "ignored")
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--rank", "2", "--tlsq", "off", "--bfit", "first"]) == 0
    result = json.loads((out / "result.json").read_text())
    mus = [complex(re, im) for re, im in result["eigenvalues"]]
    assert sorted(m.imag for m in mus) == pytest.approx(
        [-math.sin(0.5), math.sin(0.5)], abs=1e-9)
    echo = (out / "config_echo.cfg").read_text()
    assert "tlsq = False" in echo
    assert "rank = 2" in echo
    assert "bfit = first" in echo
    assert not (tmp_path / "ignored").exists()


def test_default_rank_from_centered_pair(tmp_path):
    """Under mean removal the default rank comes from the centered pair:
    the clean tidal oracle has rank 17 uncentered, 16 centered."""
    data = synth_dataset(tmp_path, d=500, n=144)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "run.cfg", input=data, out=out, mean_removal="on")
    assert main(["run", "--config", cfg]) == 0
    assert json.loads((out / "result.json").read_text())["r"] == 16
    rom_out = tmp_path / "rom"
    rom_cfg = write_cfg(tmp_path, "rom.cfg", input=data, out=rom_out,
                        mean_removal="on", **{"rom.all.indices": "all"})
    assert main(["rom", "--config", rom_cfg]) == 0
    assert json.loads((rom_out / "rom_summary.json").read_text())["data_rank"] == 16


def test_growing_mode_runs_clean(tmp_path):
    """One mode with mu = 15 over 144 snapshots: its windowed RMS and
    persistence test pass the float range, which is no traceback."""
    n, d = 144, 8
    data = np.linspace(1.0, 2.0, d)[:, None] * (15.0 ** np.arange(n))[None, :]
    path = tmp_path / "grow.dmds"
    write_snapshots(path, SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d)))
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "run.cfg", input=path, out=out, rank=1)
    assert main(["run", "--config", cfg]) == 0
    with open(out / "modes_table.csv") as fh:
        table = list(csv.reader(fh))
    assert table[1][table[0].index("L2RMS")] == ""
    rom_cfg = write_cfg(tmp_path, "rom.cfg", input=path, out=tmp_path / "rom",
                        rank=1, persistence_t=1000,
                        **{"rom.keep.persistent_only": "on"})
    assert main(["rom", "--config", rom_cfg]) == 0


def test_growing_mode_rom_summary_is_strict_json(tmp_path):
    """Column norms of entries near 1e168 must not overflow into a NaN
    relative error, which strict JSON readers reject."""
    n, d = 144, 8
    data = np.linspace(1.0, 2.0, d)[:, None] * (15.0 ** np.arange(n))[None, :]
    path = tmp_path / "grow.dmds"
    write_snapshots(path, SnapshotMatrix(data, dt=1.0, t0=0.0, layout=scalar_layout(d)))
    out = tmp_path / "rom"
    cfg = write_cfg(tmp_path, "rom.cfg", input=path, out=out, rank=1,
                    persistence_t=1000, **{"rom.keep.persistent_only": "on"})
    assert main(["rom", "--config", cfg]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((out / "rom_summary.json").read_text(), parse_constant=reject)
    assert math.isfinite(summary["roms"]["keep"]["max_rel_error"])


# ------------------------------------------------------------------- loo

def loo_out(tmp_path, **extra):
    data = synth_dataset(tmp_path)
    out = tmp_path / "loo"
    cfg = write_cfg(tmp_path, "loo.cfg", input=data, out=out, rank=17,
                    loo_trials=6, **extra)
    assert main(["loo", "--config", cfg]) == 0
    return out


def test_loo_outputs(tmp_path, capsys):
    out = loo_out(tmp_path)
    with open(out / "pooled_eigenvalues.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "omitted_column", "re", "im"]
    # 31-column pair, so deleting one never forces a rank cap below 17
    assert len(rows) - 1 == 6 * 17
    trials = sorted({int(r[0]) for r in rows[1:]})
    assert trials == list(range(6))
    with open(out / "kde_grid.csv") as fh:
        head = fh.readline().strip()
    assert head == "re,im,density"
    with open(out / "modes_table.csv") as fh:
        table = list(csv.reader(fh))
    k_col = table[0].index("KSnarrow")
    c_col = table[0].index("Cluster")
    for row in table[1:]:
        assert row[k_col] != ""  # robustness always filled after loo
        assert row[c_col] != ""  # clustered or the literal NaN
    assert "loo: 6 trials" in capsys.readouterr().out


def test_loo_goes_on_past_failed_trials(tmp_path, capsys):
    """Deleting pair column 0 of this dataset makes the trial rank
    deficient: loo records it, reports the count and finishes; with no
    trial left it exits 3."""
    path = tmp_path / "critical.dmds"
    write_snapshots(path, rank_critical_snapshots())
    out = tmp_path / "loo"
    cfg = write_cfg(tmp_path, "loo.cfg", input=path, out=out, rank=3, tlsq="off",
                    loo_trials=11)
    assert main(["loo", "--config", cfg]) == 0
    with open(out / "pooled_eigenvalues.csv") as fh:
        omitted = {int(r[1]) for r in list(csv.reader(fh))[1:]}
    assert 0 not in omitted
    ran = len(omitted)
    assert f"loo: {ran} trials, {11 - ran} failed, " in capsys.readouterr().out
    first = dir_digest(out)
    assert main(["loo", "--config", cfg]) == 0
    assert dir_digest(out) == first
    # the first seed whose one trial omits pair column 0 of the 11
    seed = next(s for s in itertools.count() if ranking._draw_omitted(11, 1, s) == [0])
    one = write_cfg(tmp_path, "one.cfg", input=path, out=tmp_path / "one", rank=3,
                    tlsq="off", loo_trials=1, seed=seed)
    assert main(["loo", "--config", one]) == 3


@pytest.mark.parametrize("key,value", [
    ("loo_trials", 0), ("h_robust", 0), ("h_robust", "nan"), ("h_cluster", -0.1),
    ("h_cluster", "inf"), ("cluster_level", 1), ("persistence_t", 0),
    ("persistence_factor", 1.5),
    # a bandwidth whose square underflows or overflows
    ("h_robust", "1e-300"), ("h_robust", "1e200"), ("h_cluster", "1e200"),
])
def test_loo_exits_2_on_bad_settings_before_reading_data(tmp_path, monkeypatch, capsys,
                                                          key, value):
    """A bad window, robustness or clustering setting ends loo with exit
    2 before the input is read or any trial runs."""
    def never(*args, **kwargs):
        raise AssertionError("called before the settings were checked")

    monkeypatch.setattr(cli.fileio, "open_source", never)
    monkeypatch.setattr(cli, "leave_one_out", never)
    cfg = write_cfg(tmp_path, "loo.cfg", input=tmp_path / "absent.dmds",
                    out=tmp_path / "loo", rank=17, **{key: value})
    assert main(["loo", "--config", cfg]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_loo_exits_3_on_a_kde_raster_beyond_the_cell_bound(tmp_path, capsys):
    """A cluster bandwidth of 1e-6 would raster the unit circle at
    2.5e-7 steps, ~6e13 cells: loo exits 3 and names the box."""
    data = synth_dataset(tmp_path)
    cfg = write_cfg(tmp_path, "loo.cfg", input=data, out=tmp_path / "loo", rank=17,
                    loo_trials=3, h_cluster=1e-6)
    assert main(["loo", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: KDE raster of" in err and "h=1e-06" in err


def test_loo_kde_grid_is_the_pooled_density(tmp_path):
    out = loo_out(tmp_path)
    with open(out / "pooled_eigenvalues.csv") as fh:
        pooled = np.array([complex(float(r[2]), float(r[3]))
                           for r in list(csv.reader(fh))[1:]])
    base_mu = np.array([complex(re, im) for re, im in
                        json.loads((out / "result.json").read_text())["eigenvalues"]])
    re_axis, im_axis, values = kde_grid(
        KdeDensity(points=pooled, weights=np.ones(pooled.size), bandwidth=2.5e-2),
        extra_points=base_mu)
    grid = np.loadtxt(out / "kde_grid.csv", delimiter=",", skiprows=1)
    assert np.array_equal(grid[:, 0], np.repeat(re_axis, im_axis.size))
    assert np.array_equal(grid[:, 1], np.tile(im_axis, re_axis.size))
    assert np.array_equal(grid[:, 2], values.ravel())


def test_loo_kde_grid_csv_is_the_raster_at_17_digits(tmp_path):
    """kde_grid.csv is, byte for byte, each node of kde_grid's raster
    rendered as "%.17g,%.17g,%.17g" in row-major order."""
    out = loo_out(tmp_path)
    with open(out / "pooled_eigenvalues.csv") as fh:
        pooled = np.array([complex(float(r[2]), float(r[3]))
                           for r in list(csv.reader(fh))[1:]])
    base_mu = np.array([complex(re, im) for re, im in
                        json.loads((out / "result.json").read_text())["eigenvalues"]])
    re_axis, im_axis, values = kde_grid(
        KdeDensity(points=pooled, weights=np.ones(pooled.size), bandwidth=2.5e-2),
        extra_points=base_mu)
    lines = ["re,im,density"] + [
        "%.17g,%.17g,%.17g" % (re, im, values[i, j])
        for i, re in enumerate(re_axis) for j, im in enumerate(im_axis)]
    assert (out / "kde_grid.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_loo_determinism_same_dir(tmp_path):
    data = synth_dataset(tmp_path)
    out = tmp_path / "loo"
    cfg = write_cfg(tmp_path, "loo.cfg", input=data, out=out, rank=17,
                    loo_trials=5)
    assert main(["loo", "--config", cfg]) == 0
    first = dir_digest(out)
    assert main(["loo", "--config", cfg]) == 0
    second = dir_digest(out)
    assert first == second
    cfg2 = write_cfg(tmp_path, "loo2.cfg", input=data, out=out, rank=17,
                     loo_trials=5, seed=1)
    assert main(["loo", "--config", cfg2]) == 0
    third = dir_digest(out)
    assert third["pooled_eigenvalues.csv"] != second["pooled_eigenvalues.csv"]


# ------------------------------------------------------------------- rom

def test_rom_outputs(tmp_path, capsys):
    data = synth_dataset(tmp_path, d=60, n=64)
    out = tmp_path / "rom"
    path = tmp_path / "rom.cfg"
    path.write_text(
        f"input = {data}\n"
        f"out = {out}\n"
        "rank = 17\n"
        "rom.all.indices = all\n"
        "rom.top.indices = 2\n"
        "rom.weak.rms_max = 0.45\n"
    )
    assert main(["rom", "--config", str(path)]) == 0
    summary = json.loads((out / "rom_summary.json").read_text())
    assert summary["data_rank"] == 17
    roms = summary["roms"]
    assert set(roms) == {"all", "top", "weak"}
    assert roms["all"]["n_modes"] == 17
    assert roms["all"]["max_rel_error"] < 1e-8
    assert roms["all"]["pct_of_rank"] == pytest.approx(100.0)
    # explicit single index pulled its conjugate partner
    assert roms["top"]["n_modes"] == 2
    assert (out / "rom_all_errors.csv").is_file()
    with open(out / "rom_top_errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "t_hours", "rom_norm", "rel_error"]
    assert len(rows) - 1 == 64
    assert "rom all: 17 modes" in capsys.readouterr().out


def test_rom_robustness_box_runs_loo(tmp_path):
    data = synth_dataset(tmp_path)
    out = tmp_path / "rom"
    path = tmp_path / "rom.cfg"
    path.write_text(
        f"input = {data}\nout = {out}\nrank = 17\nloo_trials = 5\n"
        "rom.rob.robustness_min = 0.0\n"
    )
    assert main(["rom", "--config", str(path)]) == 0
    summary = json.loads((out / "rom_summary.json").read_text())
    assert summary["roms"]["rob"]["n_modes"] == 17


def test_rom_empty_value_is_unset(tmp_path, monkeypatch):
    """An empty rom.<name>.* value leaves the field unset, as for any
    key: an empty robustness bound runs no leave-one-out."""
    def never(*args, **kwargs):
        raise AssertionError("an unset robustness bound ran leave-one-out")

    data = synth_dataset(tmp_path)
    monkeypatch.setattr(cli, "leave_one_out", never)
    out = tmp_path / "rom"
    path = tmp_path / "rom.cfg"
    path.write_text(f"input = {data}\nout = {out}\nrank = 17\n"
                    "rom.a.rms_min =\nrom.a.robustness_min =\n")
    assert main(["rom", "--config", str(path)]) == 0
    assert json.loads((out / "rom_summary.json").read_text())["roms"]["a"]["n_modes"] == 17


def test_rom_requires_selections(tmp_path):
    data = synth_dataset(tmp_path)
    cfg = write_cfg(tmp_path, "rom.cfg", input=data, out=tmp_path / "rom")
    assert main(["rom", "--config", cfg]) == 2


def test_rom_empty_selection_is_config_error(tmp_path, capsys):
    """Every selection resolves before any output: a later empty one
    leaves no output directory and prints no rom line."""
    data = synth_dataset(tmp_path)
    capsys.readouterr()
    out = tmp_path / "rom"
    path = tmp_path / "rom.cfg"
    path.write_text(f"input = {data}\nout = {out}\nrank = 17\n"
                    "rom.all.indices = all\nrom.none.rms_min = 1e12\n")
    assert main(["rom", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error: rom.none: selection matches no modes" in captured.err
    assert "rom " not in captured.out
    assert not out.exists()


# ----------------------------------------------------------------- slice

def rotating_velocity_snapshots(tmp_path):
    """Velocity record dominated by one rotation frequency."""
    rng = make_rng(6)
    nz, ny, nx = 2, 3, 4
    mask = np.ones((nz, ny, nx), dtype=bool)
    mask[0, 1, 2] = False
    a = {c: rng.standard_normal((nz, ny, nx)) for c in "xyz"}
    b = {c: rng.standard_normal((nz, ny, nx)) for c in "xyz"}
    omega = 0.7
    fields = []
    for n in range(16):
        c, s = math.cos(omega * n), math.sin(omega * n)
        fields.append(VelocityField(
            ux=2.0 + c * a["x"] + s * b["x"],
            uy=2.0 + c * a["y"] + s * b["y"],
            uz=2.0 + c * a["z"] + s * b["z"],
        ))
    layout = velocity_layout(nx, ny, nz, mask)
    snap = SnapshotMatrix(np.column_stack([stack_observables(f, layout) for f in fields]),
                          dt=1.0, t0=0.0, layout=layout)
    path = tmp_path / "vel.dmds"
    write_snapshots(path, snap)
    return path, (nz, ny, nx)


def test_slice_surface_amplitude_phase_ellipse(tmp_path):
    data, (nz, ny, nx) = rotating_velocity_snapshots(tmp_path)
    runout = tmp_path / "r"
    cfg = write_cfg(tmp_path, "r.cfg", input=data, out=runout, rank=3,
                    tlsq="off")
    assert main(["run", "--config", cfg]) == 0
    result = json.loads((runout / "result.json").read_text())
    mode = next(k + 1 for k, (re, im) in enumerate(result["eigenvalues"])
                if abs(im) > 1e-9)
    out = tmp_path / "sl"
    cfg2 = write_cfg(tmp_path, "sl.cfg", input=data, out=out, rank=3,
                     tlsq="off", slice_kind="surface", slice_channel="ux",
                     slice_k=0, slice_modes=mode)
    assert main(["slice", "--config", cfg2]) == 0
    for tag in ("amplitude", "phase", "ellipse"):
        assert (out / f"slice_mode{mode}_{tag}.csv").is_file()
    with open(out / f"slice_mode{mode}_amplitude.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "value"]
    assert len(rows) - 1 == ny * nx
    values = {(int(r[0]), int(r[1])): r[2] for r in rows[1:]}
    assert values[(1, 2)] == ""  # the masked cell is exported empty
    filled = [v for v in values.values() if v != ""]
    assert filled and all(float(v) >= 0 for v in filled)
    with open(out / f"slice_mode{mode}_ellipse.csv") as fh:
        erows = list(csv.reader(fh))
    assert erows[0] == ["row", "col", "semi_major", "semi_minor",
                        "orientation_rad", "rotation_sense"]
    senses = {r[5] for r in erows[1:] if r[2] != ""}
    assert senses <= {"ccw", "cw"} and senses
    masked = [r for r in erows[1:] if (int(r[0]), int(r[1])) == (1, 2)]
    assert masked[0][2:] == ["", "", "", ""]


def test_csv_outputs_end_lines_with_lf(tmp_path):
    data, _ = rotating_velocity_snapshots(tmp_path)
    base = dict(input=data, rank=3, tlsq="off", loo_trials=4)
    jobs = {
        "run": {},
        "loo": {},
        "rom": {"rom.all.indices": "all", "rom.rob.robustness_min": 0.0},
        "slice": {"slice_channel": "ux", "slice_modes": "1,2,3"},
    }
    written = []
    for cmd, extra in jobs.items():
        cfg = write_cfg(tmp_path, f"{cmd}.cfg", out=tmp_path / cmd, **base, **extra)
        assert main([cmd, "--config", cfg]) == 0
        written += sorted((tmp_path / cmd).glob("*.csv"))
    assert {p.name for p in written} >= {"modes_table.csv", "kde_grid.csv",
                                         "rom_all_errors.csv",
                                         "slice_mode1_amplitude.csv"}
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


def test_slice_section(tmp_path):
    data, (nz, ny, nx) = rotating_velocity_snapshots(tmp_path)
    out = tmp_path / "sec"
    cfg = write_cfg(tmp_path, "sec.cfg", input=data, out=out, rank=3,
                    tlsq="off", slice_kind="section", slice_channel="uz",
                    slice_path="0,0;2,3", slice_modes=1)
    assert main(["slice", "--config", cfg]) == 0
    with open(out / "slice_mode1_amplitude.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "value"]
    # rows of a section are depth levels
    assert max(int(r[0]) for r in rows[1:]) == nz - 1


def record_mode_reads(monkeypatch):
    """A list that DmdResult.mode appends (k, first row, end row) to."""
    reads = []
    read = DmdResult.mode

    def recorded(self, k, rows):
        reads.append((k, *rows.indices(self.modes.shape[0])[:2]))
        return read(self, k, rows)
    monkeypatch.setattr(DmdResult, "mode", recorded)
    return reads


@pytest.mark.parametrize("setting, rows", [
    # nz, ny, nx = 2, 3, 4 with (0, 1, 2) masked: layers of 11 and 12
    # cells, 23 per channel, channels ux, uy, uz, speed
    ({"slice_channel": "uz", "slice_k": 1}, (57, 69)),
    ({"slice_channel": "ux", "slice_k": 0}, (0, 11)),
    ({"slice_kind": "section", "slice_channel": "uy", "slice_path": "0,0;2,3"}, (23, 46)),
])
def test_slice_reads_only_its_cut(tmp_path, monkeypatch, setting, rows):
    """A surface reads its layer's rows of each mode, and for a conjugate
    pair's ellipse also the ux and uy rows of that layer; a section reads
    its channel's rows."""
    data, _ = rotating_velocity_snapshots(tmp_path)
    reads = record_mode_reads(monkeypatch)
    cfg = write_cfg(tmp_path, input=data, out=tmp_path / "s", rank=3, tlsq="off",
                    slice_modes="1,2,3", **setting)
    assert main(["slice", "--config", cfg]) == 0
    partner = [p is not None for p in exact_dmd(
        open_snapshots(data), cli._resolve_options(load_config(cfg))).partner]
    assert sum(partner) == 2
    ellipse = {0: [(0, 11), (23, 34)], 1: [(11, 23), (34, 46)]}.get(setting.get("slice_k"), [])
    assert reads == [read for m in range(3)
                     for read in [(m, *rows)] + [(m, *r) for r in ellipse if partner[m]]]


def test_slice_draws_each_ellipse_grid_in_one_call(tmp_path, monkeypatch):
    """tidal_ellipse takes a pair's whole ux and uy layers at once: one
    call per ellipse file, on grids of the layer's shape."""
    data, (nz, ny, nx) = rotating_velocity_snapshots(tmp_path)
    calls = []
    draw = cli.tidal_ellipse

    def recorded(u, v):
        calls.append((u.shape, v.shape))
        return draw(u, v)
    monkeypatch.setattr(cli, "tidal_ellipse", recorded)
    cfg = write_cfg(tmp_path, input=data, out=tmp_path / "s", rank=3, tlsq="off",
                    slice_channel="ux", slice_modes="1,2,3")
    assert main(["slice", "--config", cfg]) == 0
    ellipses = sorted((tmp_path / "s").glob("slice_mode*_ellipse.csv"))
    assert len(ellipses) == 2
    assert calls == [((ny, nx), (ny, nx))] * len(ellipses)


@pytest.mark.parametrize("setting", [{}, {"slice_kind": "section", "slice_path": "0,0;0,199999"}],
                         ids=["surface", "section"])
def test_slice_csvs_hold_a_block_of_cells_not_the_cut(tmp_path, monkeypatch, setting):
    """On a 200,000-cell scalar layer, each slice CSV turns at most 1,024
    cells at a time into Python values: halfway through each file, the
    traced Python objects (numpy's buffers left out) stay below 1 MiB,
    where the cut's 200,000 floats in a Python list would take 6.4 MB."""
    path = tmp_path / "wide.dmds"
    t = np.arange(6.0)
    x = np.outer(make_rng(2).standard_normal(200_000), np.cos(0.5 * t)) + np.outer(
        make_rng(3).standard_normal(200_000), np.sin(0.5 * t))
    write_snapshots(path, SnapshotMatrix(x, dt=1.0, t0=0.0, layout=scalar_layout(200_000)))
    held = []
    write = fileio.write_csv

    def sampled(rows):
        for k, row in enumerate(rows):
            if k == 100_000:  # halfway; domain 0 is Python's, numpy's buffers have their own
                python = tracemalloc.take_snapshot().filter_traces([tracemalloc.DomainFilter(True, 0)])
                held.append(sum(trace.size for trace in python.traces))
            yield row
    monkeypatch.setattr(fileio, "write_csv",
                        lambda path, header, fmt, rows: write(path, header, fmt, sampled(rows)))
    cfg = write_cfg(tmp_path, input=path, out=tmp_path / "s", rank=2, tlsq="off",
                    slice_modes=2, **setting)
    tracemalloc.start()
    try:
        assert main(["slice", "--config", cfg]) == 0
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert max(held) < 2**20, held


@pytest.mark.parametrize("boxes", [{}, {"rom.rob.robustness_min": 0.0}])
def test_rom_reads_no_mode(tmp_path, monkeypatch, boxes):
    """rom's selections and curves come from the amplitudes and the R
    factor: on a velocity record, whose mode table could read each mode's
    vertical rows, no mode is read."""
    data, _ = rotating_velocity_snapshots(tmp_path)
    reads = record_mode_reads(monkeypatch)
    cfg = write_cfg(tmp_path, input=data, out=tmp_path / "rom", rank=3, tlsq="off",
                    loo_trials=4, **{"rom.all.indices": "all"}, **boxes)
    assert main(["rom", "--config", cfg]) == 0
    assert reads == []


@pytest.mark.parametrize("command,key,value,message", [
    ("rom", "rom.a.rms_min", "abc", "bad value for rom.a.rms_min: could not convert"),
    ("rom", "rom.a.indices", "1,x", "bad value for rom.a.indices: invalid literal"),
    ("rom", "rom.a.persistent_only", "maybe",
     "bad value for rom.a.persistent_only: expected on/off"),
    ("rom", "rom.a.rms_min", "nan", "rom.a.rms_min must be a number, got nan"),
    ("rom", "rom.a.robustness_max", "nan", "rom.a.robustness_max must be a number, got nan"),
    ("rom", "rom.b.rms_min", "1e9", "rom.b: either indices or box bounds, got indices, rms_min"),
    ("rom", "rom.b.robustness_min", "1e9", "rom.b: either indices or box bounds"),
    ("rom", "rom.b.persistent_only", "on", "rom.b: either indices or box bounds"),
    ("slice", "slice_kind", "bogus", "slice_kind must be surface or section, got bogus"),
    ("slice", "slice_modes", "a", "bad value for slice_modes"),
    ("slice", "slice_path", "1;2", "slice_path must be"),
    ("slice", "slice_kind", "section", "slice_path must be set for a section"),
])
def test_rom_and_slice_exit_2_on_bad_settings_before_reading_data(
        tmp_path, monkeypatch, capsys, command, key, value, message):
    """A malformed ROM selection or slice request ends rom or slice with
    exit 2 before the input is read.  A ROM block that sets indices takes
    no box bound."""
    def never(*args, **kwargs):
        raise AssertionError("called before the settings were checked")

    monkeypatch.setattr(cli.fileio, "open_source", never)
    extra = {"slice_path": {"slice_kind": "section"}, "rom.b.rms_min": {"rom.b.indices": "1,2"},
             "rom.b.robustness_min": {"rom.b.indices": "1"},
             "rom.b.persistent_only": {"rom.b.indices": "1"}}.get(key, {})
    cfg = write_cfg(tmp_path, f"{command}.cfg", input=tmp_path / "absent.dmds",
                    out=tmp_path / command, rank=17, **extra, **{key: value})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err  # a value that does not parse is reported with its line
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / command).exists()


def test_slice_bad_requests(tmp_path):
    data, _ = rotating_velocity_snapshots(tmp_path)
    base = dict(input=data, out=tmp_path / "s", rank=3, tlsq="off")
    cfg = write_cfg(tmp_path, "s1.cfg", slice_kind="diagonal", **base)
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s2.cfg", slice_kind="section",
                    slice_path="0;1", **base)
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s3.cfg", slice_modes=99, **base)
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s4.cfg", slice_channel="vorticity", **base)
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s5.cfg", slice_k=5, **base)  # nz = 2
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s6.cfg", slice_kind="section",
                    slice_path="0,0;3,1", **base)  # ny = 3
    assert main(["slice", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "s7.cfg", slice_modes="all", **base)
    assert main(["slice", "--config", cfg]) == 2
    # the geometry is checked against the layout before any output
    assert not (tmp_path / "s").exists()


def test_slice_repeated_modes_are_written_once(tmp_path, capsys):
    data, _ = rotating_velocity_snapshots(tmp_path)
    out = tmp_path / "s"
    cfg = write_cfg(tmp_path, "s.cfg", input=data, out=out, rank=3, tlsq="off",
                    slice_modes="1,1,2")
    assert main(["slice", "--config", cfg]) == 0
    assert f"slices of modes [1, 2] -> {out}" in capsys.readouterr().out
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert len(files) == len(set(files))
    assert {f"slice_mode{m}_{tag}.csv" for m in (1, 2)
            for tag in ("amplitude", "phase")} <= set(files)


@pytest.mark.parametrize("setting, message", [
    ({"slice_channel": "uq"}, "layout has no channel named 'uq'; available: speed, ux, uy, uz"),
    ({"slice_k": 2}, "layer k=2 outside 0..1"),
    ({"slice_kind": "section", "slice_path": "0,0;3,1"}, "polyline vertex (3, 1) outside grid"),
])
def test_slice_checks_its_geometry_before_the_decomposition(tmp_path, monkeypatch, capsys,
                                                            setting, message):
    """A channel the layout lacks, a layer below the grid and a section
    vertex outside it exit 2 before the decomposition reads the data."""
    data, _ = rotating_velocity_snapshots(tmp_path)  # nz, ny, nx = 2, 3, 4
    calls = []
    monkeypatch.setattr(cli, "exact_dmd", lambda *args: calls.append(args))
    out = tmp_path / "s"
    cfg = write_cfg(tmp_path, input=data, out=out, rank=3, **setting)
    assert main(["slice", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == [] and not out.exists()


# ------------------------------------------------------- output directory

def tree_digest(path):
    """The SHA-256 of every file under path, hidden ones included."""
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["run", "loo"])
def test_run_and_loo_write_the_mode_file_where_it_lands(tmp_path, monkeypatch, command):
    """run and loo write modes.dmdm in the output directory: with no
    temporary file and no sendfile to be had, they write the same files,
    and modes.dmdm holds the bytes write_mode_matrix writes for the
    modes of the same decomposition."""
    data = synth_dataset(tmp_path, noise=1e-3)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, input=data, out=out, rank=17, loo_trials=5)
    assert main([command, "--config", cfg]) == 0
    before = tree_digest(out)
    result = exact_dmd(open_snapshots(data), cli._resolve_options(load_config(cfg)))
    write_mode_matrix(tmp_path / "want.dmdm", np.asarray(result.modes), result.dt)
    del result

    def refuse(*args, **kwargs):
        raise OSError("no temporary file and no sendfile here")
    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    monkeypatch.setattr(os, "sendfile", refuse, raising=False)
    for p in out.iterdir():
        p.unlink()
    out.rmdir()
    assert main([command, "--config", cfg]) == 0
    assert tree_digest(out) == before
    assert (out / "modes.dmdm").read_bytes() == (tmp_path / "want.dmdm").read_bytes()


@pytest.mark.parametrize("command, extra", [
    ("rom", {"rom.all.indices": "all", "rom.robust.robustness_min": 1000}),
    ("slice", {"slice_modes": "1,2"}),
])
def test_rom_and_slice_write_no_mode_file(tmp_path, command, extra):
    """rom and slice leave the mode file's destination unset: their modes
    go to an unlinked temporary, and no mode file lands in their output."""
    data = synth_dataset(tmp_path)
    out = tmp_path / command
    cfg = write_cfg(tmp_path, input=data, out=out, rank=17, loo_trials=3, **extra)
    assert main([command, "--config", cfg]) == 0
    assert [p.name for p in out.iterdir() if "dmdm" in p.name] == []


@pytest.mark.parametrize("command, extra, code, error", [
    ("run", {"rank": 60}, 2, "config error:"),  # the TLSQ rank, before pass 2
    ("loo", {"rank": 17, "loo_trials": 3, "h_cluster": 1e-7}, 3,
     "numerical failure:"),  # the KDE raster, after pass 2
])
def test_a_failed_run_or_loo_leaves_no_trace(tmp_path, monkeypatch, capsys, command, extra,
                                            code, error):
    """A run that fails before pass 2 and a loo that fails after it leave
    no directory at a fresh path, its missing parents included, and leave
    the files of an existing directory as they were, with no partial mode
    file."""
    data = synth_dataset(tmp_path)
    bad = write_cfg(tmp_path, "bad.cfg", input=data, **extra)
    seen = []
    kde_grid = cli.kde_grid

    def spy(*args, **kwargs):  # what the output directory holds when loo fails
        seen.append(sorted(p.name for p in out.iterdir()) if out.exists() else None)
        return kde_grid(*args, **kwargs)
    monkeypatch.setattr(cli, "kde_grid", spy)
    out = tmp_path / "a" / "b"
    assert main([command, "--config", bad, "--out", str(out)]) == code
    assert not (tmp_path / "a").exists()
    out = tmp_path / "out"
    good = write_cfg(tmp_path, "good.cfg", input=data, rank=17, loo_trials=3)
    assert main(["loo", "--config", good, "--out", str(out)]) == 0
    before = tree_digest(out)
    seen.clear()
    capsys.readouterr()
    assert main([command, "--config", bad, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(error)
    assert tree_digest(out) == before and ".modes.dmdm.partial" not in before
    if command == "loo":
        assert seen == [sorted([*before, ".modes.dmdm.partial"])]


def test_a_failed_loo_keeps_what_another_run_put_in_its_parent(tmp_path, monkeypatch):
    """A loo that fails after making sweep/a removes sweep/a but not sweep,
    which meanwhile gained a sibling run's finished file, nor that file."""
    data = synth_dataset(tmp_path)
    bad = write_cfg(tmp_path, "bad.cfg", input=data, rank=17, loo_trials=3, h_cluster=1e-7)
    sibling = tmp_path / "sweep" / "b" / "manifest.json"
    kde_grid = cli.kde_grid

    def sibling_finishes(*args, **kwargs):
        sibling.parent.mkdir()
        sibling.write_text("{}\n")
        return kde_grid(*args, **kwargs)
    monkeypatch.setattr(cli, "kde_grid", sibling_finishes)
    assert main(["loo", "--config", bad, "--out", str(tmp_path / "sweep" / "a")]) == 3
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == ["b"]
    assert sibling.read_text() == "{}\n"


@pytest.mark.parametrize("command", ["run", "loo"])
def test_a_run_or_loo_stopped_by_sigterm_leaves_no_trace(tmp_path, monkeypatch, command):
    """A SIGTERM once the partial mode file exists ends run and loo with
    SystemExit(143): no directory is left at a fresh path, an existing
    directory keeps its files as they were, and the handler in place
    before main is back."""
    data = synth_dataset(tmp_path)
    cfg = write_cfg(tmp_path, input=data, rank=17, loo_trials=3)
    out = tmp_path / "out"
    assert main(["loo", "--config", cfg, "--out", str(out)]) == 0
    before = tree_digest(out)
    exact_dmd = cli.exact_dmd

    def terminated(snap, opts, dest):
        result = exact_dmd(snap, opts, dest)
        assert dest.name == ".modes.dmdm.partial" and dest.exists()
        os.kill(os.getpid(), signal.SIGTERM)
        return result
    monkeypatch.setattr(cli, "exact_dmd", terminated)
    outer = signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a SIGTERM main misses is lost
    try:
        for target in (tmp_path / "a" / "b", out):
            with pytest.raises(SystemExit) as stop:
                main([command, "--config", cfg, "--out", str(target)])
            assert stop.value.code == 143
            assert signal.getsignal(signal.SIGTERM) == signal.SIG_IGN
        assert not (tmp_path / "a").exists()
        assert tree_digest(out) == before
    finally:
        signal.signal(signal.SIGTERM, outer)


# ------------------------------------------------------------ exit codes

def test_exit_code_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run"]) == 2  # no input configured


def test_exit_code_io_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, input=tmp_path / "missing.dmds",
                    out=tmp_path / "o")
    assert main(["run", "--config", cfg]) == 4
    corrupt = tmp_path / "corrupt.dmds"
    corrupt.write_bytes(b"NOPE" + bytes(36))
    cfg2 = write_cfg(tmp_path, "c2.cfg", input=corrupt, out=tmp_path / "o")
    assert main(["run", "--config", cfg2]) == 4
    nan_cell = tmp_path / "nan.csv"
    nan_cell.write_text("t=0,t=1,t=2\n1,nan,3\n4,5,6\n")
    cfg3 = write_cfg(tmp_path, "c3.cfg", input=nan_cell, out=tmp_path / "o")
    capsys.readouterr()
    assert main(["run", "--config", cfg3]) == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    assert not (tmp_path / "o").exists()


def dmds_header(d, n, dt=1.0, t0=0.0):
    return struct.pack("<4sIQQdd", b"DMDS", 1, d, n, dt, t0)


@pytest.mark.parametrize("name,content,sidecar,message", [
    ("short.dmds", dmds_header(2, 3)[:20], None, "truncated header"),
    ("no-rows.dmds", dmds_header(0, 3), None,
     "need D >= 1 rows and N >= 2 snapshots, header gives 0x3"),
    ("one-snapshot.dmds", dmds_header(2, 1) + bytes(16), None,
     "need D >= 1 rows and N >= 2 snapshots, header gives 2x1"),
    ("nan-dt.dmds", dmds_header(1, 2, dt=math.nan) + bytes(16), None,
     "dt nan and t0 0.0 must be finite, dt positive"),
    ("inf-t0.dmds", dmds_header(1, 2, t0=math.inf) + bytes(16), None,
     "dt 1.0 and t0 inf must be finite, dt positive"),
    ("sidecar.dmds", dmds_header(1, 2) + bytes(16), "{", "bad grid layout: JSONDecodeError"),
    ("empty.csv", b"", None, "empty file"),
    ("bad-time.csv", b"t=0,t=x\n1,2\n", None, "cannot parse time from 't=x'"),
    ("one-column.csv", b"t=0\n1\n2\n", None, "need at least two snapshot columns"),
    ("header-only.csv", b"t=0,t=1,t=2\n", None, "no data rows below the header"),
    ("blank-rows.csv", b"t=0,t=1\n\n# note\n\n", None, "no data rows below the header"),
])
def test_a_malformed_input_file_exits_4(tmp_path, capsys, name, content, sidecar, message):
    """Each check of a snapshot file's header, time axis, sidecar and CSV
    layout ends run with exit 4, naming the file, before it writes."""
    path = tmp_path / name
    path.write_bytes(content)
    if sidecar is not None:
        (tmp_path / (name + ".grid.json")).write_text(sidecar)
        path = tmp_path / (name + ".grid.json")
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, input=tmp_path / name, out=out)
    assert main(["run", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {path}: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("loo", {}),
    ("rom", {"rom.rob.robustness_min": 0.0}),
])
def test_leave_one_out_on_two_snapshots_is_a_data_error(tmp_path, capsys, command, extra):
    """A D x 2 record has a one-column pair, so no column can be deleted:
    the input is at fault, and the command exits 4 before writing."""
    path = tmp_path / "two.dmds"
    write_snapshots(path, SnapshotMatrix(make_rng(0).standard_normal((5, 2)), dt=1.0,
                                         t0=0.0, layout=scalar_layout(5)))
    out = tmp_path / command
    cfg = write_cfg(tmp_path, input=path, out=out, rank=1, **extra)
    assert main([command, "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err == f"i/o error: {path}: leave-one-out needs N >= 3 snapshots, the input has N = 2\n"
    assert not out.exists()


def test_exit_code_numerical_error(tmp_path):
    path = tmp_path / "flat.csv"
    cols = ",".join(f"t={float(k)}" for k in range(8))
    row = ",".join(["1.0"] * 8)
    path.write_text(cols + "\n" + row + "\n" + row + "\n" + row + "\n")
    cfg = write_cfg(tmp_path, input=path, out=tmp_path / "o")
    code = main(["run", "--config", cfg, "--rank", "2", "--tlsq", "off"])
    assert code == 3


def test_lapack_failure_is_a_numerical_failure(tmp_path, capsys):
    """Noise of 1e308 on a 50 x 20 record leaves finite data whose QR
    factor overflows, so an SVD does not converge: numpy's LinAlgError, a
    ValueError, exits 3 as a numerical failure and writes nothing."""
    data = synth_dataset(tmp_path, d=50, n=20, noise=1e308)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, input=data, out=out, rank=5)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_exit_code_arithmetic_error(tmp_path, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")
    monkeypatch.setattr(cli, "exact_dmd", overflow)
    data = synth_dataset(tmp_path)
    cfg = write_cfg(tmp_path, input=data, out=tmp_path / "o", rank=17)
    assert main(["run", "--config", cfg]) == 3


def test_exit_code_infeasible_rank(tmp_path):
    data = synth_dataset(tmp_path)
    cfg = write_cfg(tmp_path, input=data, out=tmp_path / "o")
    assert main(["run", "--config", cfg, "--rank", "99"]) == 2


@pytest.mark.parametrize("tlsq", ["on", "off"])
@pytest.mark.parametrize("rank", [2, 3])
def test_a_rank_above_d_is_named_against_the_regression_matrix(tmp_path, capsys, tlsq, rank):
    """On a D = 1, N = 10 record the rank is checked against the 1 x 9
    regression matrix, before the TLSQ projection, under its key's name."""
    path = tmp_path / "one-row.dmds"
    write_snapshots(path, SnapshotMatrix(1.5 + np.sin(0.3 * np.arange(10.0))[None, :], dt=1.0,
                                         t0=0.0, layout=scalar_layout(1)))
    cfg = write_cfg(tmp_path, input=path, out=tmp_path / "o", tlsq=tlsq, rank=rank)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"config error: rank {rank} infeasible for a 1x9 "
                                       "regression matrix; the largest feasible rank is 1\n")
    assert not (tmp_path / "o").exists()
