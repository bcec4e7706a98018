"""Benchmark of koopmode's command-line workloads.

Usage (from the root of a koopmode checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of perfbench/workloads.json, or `all` to run every
workload in turn.  Set-up generates the workload's tidal-oracle dataset
from the seed.  Then, for about S seconds, operations run back to back
(a closed loop with one client).  An operation runs the workload's CLI
commands through `koopmode.cli.main`, each command in a fresh process
(perfbench/op.py), with BLAS pinned to the thread count in
workloads.json.  Every operation is checked: every exit code is 0, every
output file has the SHA-256 it had in the run's first operation, and the
accuracy figure (mu_err or rom_rel_err) is within its tolerance.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced operations; traced ones run with
perfbench/tracer.py wrapped around koopmode's public functions, and the
run reports the per-layer metrics of BENCHMARK.json, the tracing overhead
and the operation time no span covers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print every
figure by name with its unit and sample count.  A full record (provenance,
every operation, spans) goes to .perfbench/results/ in the checkout.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIB = float(1 << 20)
# A process still running after this long is killed and its operation fails.
PROCESS_TIMEOUT_S = 120.0
# Three operations at least: later ones are checked against the first's
# outputs, a traced run needs untraced and traced ones, and a median of
# three is the fewest that drops one outlier.
MIN_OPS = 3


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def coast_mask(nx: int, ny: int, nz: int, base: float, wave: float, shelf: float):
    """Ocean cells west of a wavy coastline that moves offshore with depth."""
    import numpy as np
    j = (np.arange(ny)[:, None] + 0.5) / ny
    i = (np.arange(nx)[None, :] + 0.5) / nx
    return np.stack([i < base + wave * np.sin(2 * np.pi * j) - shelf * k / nz
                     for k in range(nz)])


@dataclasses.dataclass
class Workload:
    name: str
    grid: tuple[int, int, int]
    accuracy: str
    tolerance: float
    commands: list[dict]


class Setup:
    """The inputs of one run: dataset, truth, config files, output dirs."""

    def __init__(self, wl: Workload, spec: dict, seed: int, work: Path):
        from koopmode import generate, tidal_spec, velocity_layout, write_snapshots
        ds = spec["dataset"]
        nx, ny, nz = wl.grid
        layout = velocity_layout(nx, ny, nz, coast_mask(nx, ny, nz, **ds["mask"]))
        oracle = dataclasses.replace(
            tidal_spec(d=layout.dim, n=ds["n"], dt=ds["dt_hours"],
                       noise_sigma=ds["noise"], seed=seed),
            layout=layout)
        snap, self.truth = generate(oracle)
        data = work / "input.dmds"
        write_snapshots(data, snap)
        grid_json = data.with_name(data.name + ".grid.json")
        self.inputs = [
            {"file": data.name, "shape": [snap.d, snap.n], "sha256": sha256(data)},
            {"file": grid_json.name, "shape": [nz, ny, nx], "sha256": sha256(grid_json)},
        ]
        self.commands = []
        for k, command in enumerate(wl.commands):
            tag = f"{k}-{command['cmd']}"
            cfg, out = work / f"{tag}.cfg", work / "out" / tag
            lines = [f"input = {data}", f"out = {out}", f"seed = {seed}"]
            lines += [f"{key} = {value}" for key, value in command["config"].items()]
            cfg.write_text("\n".join(lines) + "\n")
            self.inputs.append({"file": cfg.name, "shape": None, "sha256": sha256(cfg)})
            self.commands.append((command["cmd"], cfg, out))


def child_env(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> int:
    """Run one process to its end and return its exit code."""
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, cwd=stderr_path.parent)
    try:
        return proc.wait(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def output_files(commands) -> dict[str, Path]:
    files = {}
    for _, _, out in commands:
        if out.is_dir():
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    files[f"{out.name}/{path.relative_to(out)}"] = path
    return files


def accuracy(kind: str, setup: Setup) -> float:
    """mu_err: max matched |mu - mu_true| over the true eigenvalues, from
    result.json; rom_rel_err: max_rel_error of the `all` model."""
    out = setup.commands[0][2]
    if kind == "mu_err":
        import numpy as np
        from koopmode import compare_spectra
        result = json.loads((out / "result.json").read_text())
        mu = np.array([complex(re, im) for re, im in result["eigenvalues"]])
        return compare_spectra(mu, setup.truth.mu).max_error
    summary = json.loads((out / "rom_summary.json").read_text())
    return float(summary["roms"]["all"]["max_rel_error"])


def run_op(op_id: str, setup: Setup, env: dict, traced: bool, work: Path) -> dict:
    """One operation: the workload's commands, each in a fresh process."""
    for _, _, out in setup.commands:
        shutil.rmtree(out, ignore_errors=True)
    runs = []
    start = time.perf_counter()
    for k, (cmd, cfg, _) in enumerate(setup.commands):
        stamp, spans = work / f"stamp-{k}", work / f"spans-{k}.json"
        stamp.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "op.py"), str(stamp),
                str(spans) if traced else "-", op_id, "--", cmd, "--config", str(cfg)]
        spawned = time.time()
        runs.append((k, cmd, stamp, spans, spawned, spawn(argv, env, work / f"stderr-{k}")))
    wall = time.perf_counter() - start
    procs = []
    for k, cmd, stamp, spans, spawned, code in runs:
        st = json.loads(stamp.read_text()) if stamp.exists() else None
        procs.append({
            "cmd": cmd, "exit": code,
            "rss_mib": st and st["peak_rss_kib"] / 1024.0,
            "setup_s": st and st["import_done"] - spawned,
            "spans": json.loads(spans.read_text()) if traced and spans.exists() else None,
            "stderr": (work / f"stderr-{k}").read_text()[-2000:] if code else "",
        })
    rss = [p["rss_mib"] for p in procs if p["rss_mib"] is not None]
    return {"id": op_id, "traced": traced, "wall_s": wall,
            "rss_mib": max(rss) if rss else None, "procs": procs}


def check_op(op: dict, setup: Setup, wl: Workload,
             reference: dict | None) -> dict[str, str]:
    """Fill the operation's correctness fields; return its output hashes."""
    problems = [f"{p['cmd']} exited {p['exit']}: {p['stderr'].strip()[-300:]}"
                for p in op["procs"] if p["exit"] != 0]
    files = output_files(setup.commands)
    hashes = {name: sha256(path) for name, path in files.items()}
    if reference is not None and hashes != reference:
        differ = sorted(n for n in set(hashes) | set(reference)
                        if hashes.get(n) != reference.get(n))
        problems.append(f"outputs differ from the first operation: {differ}")
    op["acc"] = None
    if not problems:
        try:
            op["acc"] = accuracy(wl.accuracy, setup)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"cannot read {wl.accuracy}: {exc!r}")
        else:
            if not op["acc"] <= wl.tolerance:
                problems.append(f"{wl.accuracy} {op['acc']:.3e} beyond tolerance {wl.tolerance:.1e}")
    op["problems"] = problems
    op["out_mb"] = sum(p.stat().st_size for p in files.values()) / MIB
    op["out_files"] = len(files)
    return hashes


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def end_to_end(ops: list[dict]) -> dict[str, tuple[float, int]]:
    setups = [p["setup_s"] for op in ops for p in op["procs"]]
    return {
        "op_s": (median(op["wall_s"] for op in ops), len(ops)),
        "peak_rss_mb": (median(op["rss_mib"] for op in ops), len(ops)),
        "setup_s": (median(setups), sum(s is not None for s in setups)),
    }


def per_layer(ops: list[dict], names: list[str]) -> dict[str, tuple[float, int]]:
    from tracer import layer_metrics
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    layers = [layer_metrics([p["spans"] for p in op["procs"] if p["spans"]])
              for op in traced]
    for op, lm in zip(traced, layers):
        lm["cli.out_mb"], lm["cli.out_files"] = op["out_mb"], op["out_files"]
        lm["trace.uncovered_s"] = op["wall_s"] - lm.get("cli.main.s", 0.0)
        lm["trace.op_s"] = op["wall_s"]
    traced_s = median(op["wall_s"] for op in traced)
    out = {name: (median(lm.get(name, 0.0) for lm in layers), len(layers))
           for name in names if name != "trace.overhead_s"}
    if "trace.overhead_s" in names:
        out["trace.overhead_s"] = (traced_s - median(op["wall_s"] for op in plain),
                                   min(len(traced), len(plain)))
    return out


def provenance(seed: int, threads: int, setup: Setup) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "koopmode").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": threads,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "inputs": setup.inputs,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(wl: Workload, spec: dict, bench: dict, seed: int,
                 seconds: float, trace: bool) -> dict:
    work = WORK / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        setup = Setup(wl, spec, seed, work)
        setup_wall = time.perf_counter() - t0
        threads = min(spec["blas_threads"], len(os.sched_getaffinity(0)))
        env = child_env(threads)
        ops, reference = [], None
        start = time.perf_counter()
        while True:
            # Untraced and traced operations alternate as U T T U U T T ...
            traced = trace and len(ops) % 4 in (1, 2)
            op = run_op(f"{wl.name}-{seed}-{len(ops)}", setup, env, traced, work)
            hashes = check_op(op, setup, wl, reference)
            reference = hashes if reference is None else reference
            ops.append(op)
            elapsed = time.perf_counter() - start
            if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
                break
        failed = sum(bool(op["problems"]) for op in ops)
        if trace:
            metrics = per_layer(ops, [m["name"] for m in bench["per_layer"]])
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            metrics = end_to_end(ops)
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        extra = {
            "fail_ratio": (failed / len(ops), len(ops), "1"),
            wl.accuracy: (median(op["acc"] for op in ops),
                          sum(op["acc"] is not None for op in ops), "1"),
        }
        record = {
            "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": len(ops), "failed": failed,
            "setup_wall_s": setup_wall, "tolerance": wl.tolerance,
            "provenance": provenance(seed, threads, setup),
            "metrics": {k: {"value": v, "unit": units[k], "n": n}
                        for k, (v, n) in metrics.items()},
            "extra": {k: {"value": v, "unit": u, "n": n} for k, (v, n, u) in extra.items()},
            "ops": ops,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def report(record: dict, computed: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  record {record['path'].relative_to(ROOT)}")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"  FAILED {op['id']}: {problem}")
    rows = list(record["metrics"].items()) + list(record["extra"].items())
    for name, m in rows:
        note = "  (computed)" if name in computed else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{note}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "koopmode" / "__init__.py").is_file():
        print(f"perfbench: no koopmode sources under {SRC}; run from a koopmode checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        w = spec["workloads"][name]
        wl = Workload(name, tuple(w["grid"]), w["accuracy"], w["tolerance"], w["commands"])
        record = run_workload(wl, spec, bench, args.seed, args.seconds, bool(args.trace))
        report(record, spec["computed_metrics"])
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
