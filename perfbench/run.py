"""Run one hgtensor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload retrieval --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: hgtensor is imported from ./src and from
nowhere else.  The seed fixes the inputs.  Every answer is checked against
an oracle that does not import hgtensor.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and reports per-layer metrics from the spans, which it also writes to
perfbench/out/.  Times are reported at a reference machine speed measured
alongside the requests (hgbench/calibrate.py); the detail line also gives
them as measured.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and a JSON "detail" line.  Exit code 0 on a completed run,
2 when hgtensor cannot be loaded or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hgbench import harness  # noqa: E402
from hgbench.workloads import WORKLOADS, make_inputs  # noqa: E402


def commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the package's source files, naming the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((src / "hgtensor").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "nproc": os.cpu_count(),
        "commit": commit(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hgtensor" / "__init__.py").is_file():
        print(f"error: no hgtensor package under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    try:
        run = harness.run(src, workload, inputs, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load hgtensor: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, detail = harness.per_layer(run)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        run.tracer.write(spans)
        detail["spans_file"] = spans.relative_to(ROOT).as_posix()
    else:
        metrics, detail = harness.end_to_end(run)

    attempted = len(run.outcomes)
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, {run.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for kind, summary in detail.get("kinds", {}).items():
        tail = summary["tail"]
        tail_text = f", p{tail['percentile']:.4g} {tail['ms']:.6g} ms" if tail else ""
        raw = detail["raw"]["kinds"][kind]["p50_ms"]
        print(
            f"  {kind}_p50_ms = {summary['p50_ms']:.6g} ms"
            f" ({summary['samples']} samples{tail_text}; {raw:.6g} ms as measured)"
        )
    if "failed_ratio" in detail:
        print(f"  failed_ratio = {detail['failed_ratio']:.6g} ratio")
    detail["environment"] = environment()
    detail["inputs"] = [inp.name for inp in inputs]
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": run.unexpected == 0,
                "attempted": attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
