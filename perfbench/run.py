"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload snapshot-hepph --seed 1 --seconds 30 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
makes a separate traced run and prints the per-layer metrics (the
tracing overhead among them). Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Provenance, every computed
figure and (traced runs) the spans are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    import numpy as np

    from repro.sgns.kernels import resolve_backend

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    git_sha, dirty = None, None
    if shutil.which("git") and (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench"],
                cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            git_sha, dirty = None, None
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "kernel_backend": resolve_backend("auto").name,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 profile: str = "full") -> dict:
    """Run one workload; returns the printed result plus its details.

    ``profile`` picks the sizes: ``full`` is what the benchmark measures,
    ``tiny`` is for the tests.
    """
    from perfbench import serve, trainer

    params = spec.WORKLOADS[name][profile]
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if name == "serve-knn":
            outcome = serve.run(params, seed, seconds, trace, work_dir)
        else:
            outcome = trainer.run(name, params, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = outcome["metrics"]
    missing = [metric.name for metric in declared if metric.name not in metrics]
    if missing:
        raise RuntimeError(f"{name} did not measure {missing}")
    failures = outcome["failures"]
    return {
        "result": {
            "correct": not failures,
            "attempted": int(outcome["attempted"]),
            "failed": len(failures),
            "metrics": {
                metric.name: {"value": float(metrics[metric.name]), "unit": metric.unit}
                for metric in declared
            },
        },
        "all_metrics": metrics,
        "failures": failures,
        "details": outcome["details"],
        "tracer": outcome["tracer"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the library from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2

    source = provenance()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = outcome["result"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(source, sort_keys=True))
    print("details " + json.dumps(outcome["details"], sort_keys=True))
    for name, value in sorted(outcome["all_metrics"].items()):
        print(f"  {name} = {value:.6g} {spec.UNITS.get(name, '')}")
    for failure in outcome["failures"][:20]:
        print(f"FAILED: {failure}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "provenance": source, "details": outcome["details"],
        "metrics": outcome["all_metrics"], "failures": outcome["failures"],
        "result": result,
    }, indent=1, sort_keys=True, default=float), encoding="utf-8")
    if outcome["tracer"] is not None:
        outcome["tracer"].dump(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
