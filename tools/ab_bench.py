"""A/B benchmark driver: alternating parent/change pairs of perfbench runs.

    python3 tools/ab_bench.py --parent ../parent --change . --workload simulate128 \
        --pairs 10 --seconds 20 --seed 1 --out ab.jsonl

``--parent`` and ``--change`` are checkouts, made for example with
``git worktree add``. Pair ``i`` runs both with seed ``seed + i``, the
parent first when ``i`` is even. Each run is
``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0``
from its checkout, and its last output line is read as JSON. Where Python
writes bytecode, each side compiles its own in its first run, in pair 0.

For each end-to-end metric of the parent's ``BENCHMARK.json`` this prints
both medians, the parent's quartile spread, the pairs the change won and
lost, and a verdict: ``regressed`` when the change's median is worse than
the parent's by more than the metric's ``bound`` (a fraction of the
parent's median), else ``unresolved`` when the parent's own quartile
spread is wider than the bound and not every run of the change beats
every run of the parent, else ``ok``. Then
``correct``, ``attempted`` and ``failed`` for each side.
``--out`` appends one JSON line per run.

``--claim METRIC`` then prints whether the change may claim a gain on that
end-to-end metric: it must win at least nine tenths of the pairs, ties
counting for neither, and its median must be better than the parent's by
more than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One ``--trace 0`` run of ``perfbench/run.py`` in ``checkout``; a run
    that exits non-zero or ends without a JSON line counts as one failed
    operation with no metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print(f"  {checkout}: run failed (exit {proc.returncode}): {tail}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def _worse(a, b, better):
    """Whether value ``a`` reads worse than ``b`` for a metric where
    ``better`` is "lower" or "higher"."""
    return a > b if better == "lower" else a < b


def summarize(pairs, end_to_end):
    """Per-metric rows for ``pairs``, a list of ``{"parent": result,
    "change": result}`` dicts holding ``perfbench/run.py`` JSON results, and
    ``end_to_end``, the ``BENCHMARK.json`` list of metric specs. A pair
    counts towards a metric only if both sides report it; a metric no pair
    reports is left out."""
    rows = []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["parent"].get("metrics", {}) and name in p["change"].get("metrics", {})]
        if not both:
            continue
        parent, change = (np.array(side, dtype=np.float64) for side in zip(*both))
        p_med, c_med = float(np.median(parent)), float(np.median(change))
        q1, q3 = np.percentile(parent, [25, 75])
        spread = float(q3 - q1)
        won = sum(_worse(p, c, better) for p, c in both)
        lost = sum(_worse(c, p, better) for p, c in both)
        margin = bound * abs(p_med)
        worse_by = c_med - p_med if better == "lower" else p_med - c_med
        all_better = all(_worse(p, c, better) for p in parent for c in change)
        if worse_by > margin:
            verdict = "regressed"
        elif spread > margin and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"name": name, "unit": spec.get("unit", ""), "n": len(both),
                     "parent_median": p_med, "change_median": c_med,
                     "parent_iqr": spread, "won": won, "lost": lost,
                     "bound": bound, "verdict": verdict,
                     "better_by": -worse_by})
    return rows


def check_claim(row):
    """Whether the summary ``row`` of one metric supports claiming a gain,
    and a line that says so with its numbers: the change must win at least
    9 of every 10 pairs, and its median must be better than the parent's by
    more than the parent's quartile spread."""
    wins_ok = 10 * row["won"] >= 9 * row["n"]
    gap_ok = row["better_by"] > row["parent_iqr"]
    met = wins_ok and gap_ok
    unit = row["unit"]
    return met, (f"claim {row['name']}: {'met' if met else 'NOT met'}: "
                 f"change won {row['won']}/{row['n']} pairs "
                 f"({'' if wins_ok else 'under '}9/10 needed); medians "
                 f"{row['parent_median']:.4g} -> {row['change_median']:.4g} {unit}, "
                 f"better by {row['better_by']:.4g} {unit} against a parent IQR of "
                 f"{row['parent_iqr']:.4g} {unit}"
                 f"{'' if gap_ok else ' (not more than the IQR)'}")


def tally(pairs):
    """Per side: runs whose result was correct, and operations attempted
    and failed, summed over the runs."""
    out = {}
    for side in SIDES:
        results = [p[side] for p in pairs]
        out[side] = {"correct": sum(bool(r.get("correct")) for r in results),
                     "runs": len(results),
                     "attempted": sum(int(r.get("attempted", 0)) for r in results),
                     "failed": sum(int(r.get("failed", 0)) for r in results)}
    return out


def format_report(workload, pairs, end_to_end):
    lines = [f"{workload}: {len(pairs)} pairs",
             "| metric | parent median | change median | parent IQR | change won/lost "
             "| bound | verdict |",
             "|---|---|---|---|---|---|---|"]
    for r in summarize(pairs, end_to_end):
        lines.append(f"| {r['name']} ({r['unit']}) | {r['parent_median']:.4g} "
                     f"| {r['change_median']:.4g} | {r['parent_iqr']:.4g} "
                     f"| {r['won']}/{r['lost']} of {r['n']} | {r['bound']:.0%} "
                     f"| {r['verdict']} |")
    for side, t in tally(pairs).items():
        lines.append(f"{side}: correct {t['correct']}/{t['runs']} runs, "
                     f"attempted {t['attempted']}, failed {t['failed']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--claim", metavar="METRIC",
                    help="end-to-end metric on which the change claims a gain")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim and args.claim not in {spec["name"] for spec in end_to_end}:
        ap.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    checkouts = {"parent": args.parent, "change": args.change}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": args.workload, "pair": i, "side": side,
                                         "seed": seed, "result": pair[side]}) + "\n")
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr, flush=True)
    print(format_report(args.workload, pairs, end_to_end))
    if args.claim:
        rows = {r["name"]: r for r in summarize(pairs, end_to_end)}
        if args.claim not in rows:
            print(f"claim {args.claim}: NOT met: no pair reports it on both sides")
        else:
            print(check_claim(rows[args.claim])[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
