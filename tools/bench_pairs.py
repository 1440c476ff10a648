"""Run alternating benchmark pairs of two checkouts and summarise them in one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T --out FILE

PARENT and CHANGE are checkout roots; they may be the same directory.  Each
run is BENCHMARK.json's command (``python3 perfbench/run.py``) with
``--workload W --seed S --seconds T --trace 0``, started in that root.  Odd
pairs run the parent first, even pairs the change first; a second call on
the same FILE, workload and seed numbers its pairs on from the last one.

After each run one record is appended to FILE's "runs": workload, seed,
pair, side, first, perfbench's final JSON line as printed ("final"), the
``source_sha256`` of its detail line and each request kind's ``p50_ms`` from
that line ("kind_p50_ms").  After each pair ``summary["W.sS"]`` is rebuilt
from every run in FILE with that workload and seed.  For each end-to-end
metric in BENCHMARK.json it gives each side's inclusive q1, median and q3,
the median change ratio, the pairs in which the change was better by the
metric's direction (ties count for neither), and the parent's IQR; for each
request kind ("kinds"), each side's median of the per-run p50s and their
change ratio, so a change shows which kinds moved; then the failed shares
seen (failed / attempted) and whether every run was correct.  Other keys of
FILE are kept as they are.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
from pathlib import Path


@functools.cache
def benchmark() -> dict:
    """BENCHMARK.json of the checkout that holds this script."""
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str, dict]:
    """(final, source_sha256, kind_p50_ms): one run of perfbench in the checkout root."""
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(benchmark()["command"] + flags, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail ") :])
    p50s = {kind: latency["p50_ms"] for kind, latency in detail["kinds"].items()}
    return json.loads(lines[-1]), detail["environment"]["source_sha256"], p50s


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], inclusive; one value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarize(runs: list[dict]) -> dict:
    """The summary of one workload and seed's runs; a pair counts once both of its sides have run."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["final"]
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    metrics = {}
    for metric in benchmark()["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        value = {side: {p: f["metrics"][name]["value"] for p, f in finals.items()} for side, finals in sides.items()}
        parent, change = quartiles(list(value["parent"].values())), quartiles(list(value["change"].values()))
        better = sum(sign * (value["change"][p] - value["parent"][p]) > 0 for p in pairs)
        metrics[name] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "median_change_ratio": (change[1] - parent[1]) / parent[1] if parent[1] else None,
            "pairs_change_better": f"{better}/{len(pairs)}",
            "parent_iqr": parent[2] - parent[0],
        }
    p50s = {"parent": {}, "change": {}}
    for run in runs:  # records written before kind_p50_ms was kept have none
        for kind, ms in run.get("kind_p50_ms", {}).items():
            p50s[run["side"]].setdefault(kind, []).append(ms)
    kinds = {}
    for kind in sorted(p50s["parent"].keys() & p50s["change"].keys()):
        parent, change = statistics.median(p50s["parent"][kind]), statistics.median(p50s["change"][kind])
        kinds[kind] = {
            "parent_median_p50_ms": parent,
            "change_median_p50_ms": change,
            "median_change_ratio": (change - parent) / parent if parent else None,
        }
    finals = [run["final"] for run in runs]
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "kinds": kinds,
        "failed_ratio_seen": sorted({f["failed"] / f["attempted"] for f in finals if f["attempted"]}),
        "all_correct": all(f["correct"] for f in finals),
    }


def main(argv=None, runner=run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    book = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    runs, summary = book.setdefault("runs", []), book.setdefault("summary", {})
    mine = [r for r in runs if (r["workload"], r["seed"]) == (args.workload, args.seed)]
    start = max((r["pair"] for r in mine), default=0) + 1
    for pair in range(start, start + args.pairs):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            final, sha, p50s = runner(getattr(args, side), args.workload, args.seed, args.seconds)
            record = {"workload": args.workload, "seed": args.seed, "pair": pair, "side": side}
            record.update(first=side == order[0], final=final, source_sha256=sha, kind_p50_ms=p50s)
            runs.append(record)
            mine.append(record)
            if side == order[1]:  # each side has run at least once
                summary[f"{args.workload}.s{args.seed}"] = summarize(mine)
            args.out.write_text(json.dumps(book, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
