#!/usr/bin/env python3
"""Alternated A/B runs of the end-to-end benchmark: a git rev vs this checkout.

Exports REV with `git archive` into a temporary directory, so each side
builds only its own sources, then runs `perfbench/run.py` on the two
sides for N pairs, alternating which side goes first. The base side runs
in the export; the change side runs in this checkout (its working tree,
built under .bench_build/ as usual). Every run must end with
"correct": true and "failed": 0, and print `digest ... (matches
pinned)` -- or, on a seed with no pinned digest, the same digest on every
run of both sides. Any other outcome exits 1 and names the run.

Every run's `stamp` line (host, compiler, build type, backend) must
equal the first run's in everything but `git_rev`; otherwise two
mismatched builds -- say a stale .bench_build/ of another build type, or
a GDELAY_BACKEND setting that reached one side -- would be compared, and
it exits 1 naming both stamps.

Then it prints, per end-to-end metric of BENCHMARK.json: each side's
median with its quartiles, how many pairs the change won, the ratio of
the change's median to the base's next to the metric's bound, and a
verdict by the repository's acceptance rule:

  gain        at least 10 pairs ran, the change won at least 90% of
              them, and its median is better than the base's by more
              than the base's IQR;
  worse       the change's median is worse than the base's by more than
              the bound;
  unresolved  the base's IQR, relative to its median, is wider than the
              bound, and not every change run beats every base run;
  no worse    otherwise.

After that table it prints the same columns, with no verdict and
labelled "not gated", for three values of each run's `report` line that
BENCHMARK.json does not gate: wall_s and op_ms_p50 (lower is better) and
cpu_util (higher is better) -- the wall time and pool utilisation a
scheduling change aims at.

The last line of its output is the same summary as one JSON object, with
both sides' stamps and, per metric, every run's value in run order
(`runs`) and the verdict, plus the ungated report values under `report`
(each with its runs): the record a perf-history BENCH_<n>.json file
collects.
The header line and the summary name both trees: `base_rev` is REV
resolved, `change_rev` is this checkout's HEAD with `-dirty` appended
when `git status --porcelain` lists anything (the stamps' own `git_rev`
is read when .bench_build/ is configured, so it can lag behind).

  python3 tools/perfbench_ab.py --workload deskew --pairs 10
  python3 tools/perfbench_ab.py --rev HEAD~1 --workload deskew --seed 7
  python3 tools/perfbench_ab.py --rev HEAD --workload mc_campaign \\
      --pairs 1 --seconds 1        # smoke run: a checkout against itself
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Report-line values summarised without a verdict: name, lower is better.
REPORT = (("wall_s", True), ("op_ms_p50", True), ("cpu_util", False))


def export(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)


def run_side(root, args):
    """One perfbench run in `root`; returns (metrics, report, digest, stamp)
    or exits."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    digest = [l for l in lines if l.startswith("digest ")]
    stamp = [l for l in lines if l.startswith("stamp ")]
    report = [l for l in lines if l.startswith("report ")]
    try:
        last = json.loads(lines[-1])
        stamp = json.loads(stamp[0][len("stamp "):]) if len(stamp) == 1 else None
        report = ({k: v["value"] for k, v in
                   json.loads(report[0][len("report "):]).items()}
                  if len(report) == 1 else None)
    except (IndexError, KeyError, ValueError):
        last, stamp, report = {}, None, None
    if (p.returncode != 0 or len(digest) != 1 or stamp is None
            or report is None or any(n not in report for n, _ in REPORT)
            or not last.get("correct") or last.get("failed") != 0):
        sys.exit(f"perfbench_ab: run in {root} failed (exit {p.returncode})\n"
                 f"{p.stdout}{p.stderr[-2000:]}")
    pinned = digest[0].endswith("(matches pinned)")
    if not pinned and "(no pinned digest" not in digest[0]:
        sys.exit(f"perfbench_ab: run in {root}: {digest[0]}")
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    return metrics, report, (digest[0].split()[1], pinned), stamp


def git(*args):
    """Stdout of a git command run in this checkout, stripped."""
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout_rev():
    """This checkout's HEAD, with "-dirty" when the tree has changes."""
    dirty = "-dirty" if git("status", "--porcelain") else ""
    return git("rev-parse", "HEAD") + dirty


def same_build(a, b):
    """Whether two stamps differ in nothing but git_rev."""
    return ({k: v for k, v in a.items() if k != "git_rev"} ==
            {k: v for k, v in b.items() if k != "git_rev"})


def quartiles(xs):
    """(q1, median, q3) of the runs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def spread(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(b, c, lower):
    """Both sides' quartiles, the change's pair wins and its median ratio."""
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    bq, cq = quartiles(b), quartiles(c)
    return bq, cq, wins, cq[1] / bq[1] if bq[1] else float("nan")


def verdict(b, c, wins, bound, lower):
    """The acceptance rule's reading of one metric (see the module doc)."""
    bq, cq = quartiles(b), quartiles(c)
    # Positive when the change's median is better than the base's.
    better = (bq[1] - cq[1]) if lower else (cq[1] - bq[1])
    if len(b) >= 10 and wins >= 0.9 * len(b) and better > bq[2] - bq[0]:
        return "gain"
    if -better > bound * abs(bq[1]):
        return "worse"
    beats_all = max(c) < min(b) if lower else min(c) > max(b)
    if bq[2] - bq[0] > bound * abs(bq[1]) and not beats_all:
        return "unresolved"
    return "no worse"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="base git rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=2008)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    base_rev = git("rev-parse", args.rev)
    change_rev = checkout_rev()
    runs = {"base": [], "change": []}
    reports = {"base": [], "change": []}
    stamps = {}
    digests = set()
    with tempfile.TemporaryDirectory(prefix="perfbench_ab_") as tmp:
        export(args.rev, tmp)
        roots = {"base": tmp, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                metrics, report, digest, stamp = run_side(roots[side], args)
                stamps.setdefault(side, stamp)  # base runs first in pair 1
                if not same_build(stamps["base"], stamp):
                    sys.exit(f"perfbench_ab: {side} run of pair {i + 1} was "
                             f"built or run differently from the first "
                             f"base run:\n  {json.dumps(stamps['base'])}\n  "
                             f"{json.dumps(stamp)}")
                runs[side].append(metrics)
                reports[side].append(report)
                digests.add(digest)
                print(f"pair {i + 1}/{args.pairs} {side:6} " +
                      " ".join(f"{m['name']}={metrics[m['name']]:.4g}"
                               for m in bench["end_to_end"]) +
                      f" digest {digest[0]}", flush=True)
    if all(pinned for _, pinned in digests):
        check = "every digest matches its pin"
    elif len(digests) == 1:
        check = f"digest {next(iter(digests))[0]} on every run (no pin)"
    else:
        sys.exit(f"perfbench_ab: digests differ across runs: {sorted(digests)}")

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds} s, base {args.rev} ({base_rev}) vs this "
          f"checkout ({change_rev}); 0 failed ops, {check}")
    print(f"{'metric':14} {'base median [q1, q3]':>28} "
          f"{'change median [q1, q3]':>28} {'wins':>6} {'ratio':>6} "
          f"{'bound':>5}  verdict")
    summary = {"workload": args.workload, "seed": args.seed,
               "pairs": args.pairs, "seconds": args.seconds,
               "base_rev": base_rev, "change_rev": change_rev,
               "stamps": stamps, "metrics": {}, "report": {}}
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        bq, cq, wins, ratio = compare(b, c, lower)
        v = verdict(b, c, wins, m["bound"], lower)
        print(f"{name:14} {spread(bq):>28} {spread(cq):>28} "
              f"{wins:>3}/{args.pairs:<2} {ratio:6.3f} {m['bound']:>5}  {v}")
        summary["metrics"][name] = {
            "base": dict(zip(("q1", "median", "q3"), bq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "wins": wins, "ratio": ratio, "bound": m["bound"],
            "verdict": v, "runs": {"base": b, "change": c}}
    print("report line, not gated:")
    for name, lower in REPORT:
        b = [r[name] for r in reports["base"]]
        c = [r[name] for r in reports["change"]]
        bq, cq, wins, ratio = compare(b, c, lower)
        print(f"{name:14} {spread(bq):>28} {spread(cq):>28} "
              f"{wins:>3}/{args.pairs:<2} {ratio:6.3f}")
        summary["report"][name] = {
            "base": dict(zip(("q1", "median", "q3"), bq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "wins": wins, "ratio": ratio, "better": "lower" if lower else "higher",
            "runs": {"base": b, "change": c}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
