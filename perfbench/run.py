"""sgdmlab benchmark launcher.

Run from the root of a checkout (the directory holding ``src/sgdmlab``):

    python3 perfbench/run.py --workload descent --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each run starts fresh Python processes with OpenBLAS/OpenMP pinned to one
thread: a few that only time set-up (import sgdmlab, build the workload's
problems) and one that runs the workload's passes for ``--seconds``. It
prints one line per metric with its unit, a provenance record, and as the
last line a JSON object ``{correct, attempted, failed, metrics}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, with the units declared in ``BENCHMARK.json``. Every run
also appends its full record (per-pass times, failures, verdict digests,
provenance) to ``perfbench/out/results.jsonl``.
``--record-references`` stores the verdict values of a passing run at the
default seed as the references later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("descent", "coverage", "ode", "logreg")
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
REL_TOL = 1e-6
SETUP_PROBES = 6  # extra fresh processes that only time set-up
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_child(args: list[str], env: dict, timeout: float, result: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          env=env, timeout=timeout, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def read_git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git (the checkout may
    not be a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    info = {"cpu_model": "unknown", "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "caches": {},
            "python": platform.python_version(), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return info


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 references: Path | None, units: dict[str, str]) -> dict:
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **BLAS_ENV)
    result = work / "result.json"
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work),
              "--result", str(result)]
    try:
        setups = [run_child(common + ["--setup-only"], env, 120, result)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        extra = ["--references", str(references)] if references else []
        data = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                         env, seconds + 150, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(data["setup_s"])
    data["setup_samples"] = setups
    walls = data["untraced_walls"]
    wall = statistics.median(walls)
    if trace:
        values = data["layers"]
    else:
        values = {"wall_s": wall, "steps_per_s": data["steps_per_pass"] / wall,
                  "setup_s": statistics.median(setups), "peak_rss_mb": data["peak_rss_mb"]}
    data["metrics"] = {k: (v, units[k]) for k, v in values.items()}
    data["error_rate"] = len(data["failures"]) / data["attempted"]
    return data


def report(workload: str, seed: int, trace: int, data: dict) -> None:
    walls = data["untraced_walls"]
    print(f"workload {workload}  seed {seed}  trace {trace}: {data['passes']} passes, "
          f"{data['attempted']} units, {len(data['failures'])} failed")
    for name, (value, unit) in data["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44} {data['error_rate']:>16.6g} fraction")
    print(f"  (wall_s is the median of {len(walls)} untraced passes, "
          f"min {min(walls):.4g} s, max {max(walls):.4g} s; setup_s the median of "
          f"{len(data['setup_samples'])} fresh processes)")
    for failure in data["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sgdmlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="store this run's verdict values (default seed only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "sgdmlab" / "__init__.py").is_file():
        print(f"no sgdmlab sources under {root / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    if args.record_references and args.seed != DEFAULT_SEED:
        print(f"references are recorded at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    refs = None if args.record_references else REFERENCES
    prov = {**machine(), "git_commit": read_git_commit(root), "blas_threads": BLAS_ENV,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         args.trace, refs, units)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    log = HERE / "out" / "results.jsonl"
    with open(log, "a") as fh:
        for name, data in results.items():
            prov.update(numpy=data["numpy"], blas=data["blas"],
                        passes=data["passes"], units=data["attempted"])
            fh.write(json.dumps({"workload": name, "provenance": prov, **{
                k: v for k, v in data.items() if k not in ("numpy", "blas")}}) + "\n")
            report(name, args.seed, args.trace, data)
    print("provenance: " + json.dumps(prov))

    if args.record_references:
        failed = [f for d in results.values() for f in d["failures"]]
        if failed:
            print("not recording references: " + "; ".join(failed[:5]), file=sys.stderr)
            return 1
        stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {"units": {}}
        stored.update(seed=DEFAULT_SEED, rel_tol=REL_TOL)
        for data in results.values():
            stored["units"].update(data["checks"])
        REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    attempted = sum(d["attempted"] for d in results.values())
    failed = sum(len(d["failures"]) for d in results.values())
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": u}
                   for n, d in results.items() for k, (v, u) in d["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
