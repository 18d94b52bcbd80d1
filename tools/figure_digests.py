#!/usr/bin/env python3
"""Pins the stdout of the deterministic figure benches.

Runs each non-timing figure bench of a build tree twice, under
GDELAY_BACKEND=scalar and under GDELAY_BACKEND=avx2, with a fixed
relative --outdir so the "wrote ..." line is stable, and compares the
sha256 of each stdout against the one committed list
(tools/figure_digests.txt, next to this script): every backend must print
the same bytes. On a host without AVX2 the second run falls back to the
scalar backend. Exits 1 and names every bench and backend whose output
differs; --update rewrites the list from the scalar runs instead, then
checks the avx2 runs against it.

  python3 tools/figure_digests.py --build build           # check
  python3 tools/figure_digests.py --build build --update  # re-pin
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_fig02_deskew", "bench_fig07_transfer", "bench_fig09_coarse",
    "bench_fig12_eye48", "bench_fig13_eye64", "bench_fig14_rz64",
    "bench_fig15_range_vs_freq", "bench_fig16_injection",
    "bench_fig17_jitter_vs_noise", "bench_req_compliance",
    "bench_ablation_stages", "bench_ablation_timestep",
    "bench_baseline_clock", "bench_drift_recal", "bench_bathtub",
    "bench_fastbus_ber", "bench_ddj", "bench_diff_imbalance",
    "bench_sj_template",
]
BACKENDS = ("scalar", "avx2")
LIST = pathlib.Path(__file__).with_name("figure_digests.txt")


def digest(binary, workdir, backend):
    env = dict(os.environ, GDELAY_BACKEND=backend)
    out = subprocess.run([str(binary), "--outdir", "out"], cwd=workdir,
                         env=env, check=True, stdout=subprocess.PIPE).stdout
    return hashlib.sha256(out).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build", help="build tree")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the list instead of checking it")
    args = ap.parse_args()

    bench_dir = pathlib.Path(args.build).resolve() / "bench"
    got = {}
    with tempfile.TemporaryDirectory() as work:
        for name in BENCHES:
            for backend in BACKENDS:
                got[name, backend] = digest(bench_dir / name, work, backend)
                print(f"{got[name, backend]}  {name} ({backend})", flush=True)

    if args.update:
        LIST.write_text("".join(f"{got[n, 'scalar']}  {n}\n"
                                for n in BENCHES))
        print(f"updated {LIST} from the scalar runs")
    want = dict(reversed(line.split()) for line in
                LIST.read_text().splitlines() if line.strip())
    bad = [(n, b) for n in BENCHES for b in BACKENDS
           if want.get(n) != got[n, b]]
    for name, backend in bad:
        print(f"DIFFERS: {name} on {backend} "
              f"(pinned {want.get(name, 'nothing')})")
    for backend in BACKENDS:
        ok = sum(1 for n in BENCHES if (n, backend) not in bad)
        print(f"{backend}: {ok}/{len(BENCHES)} figure benches match {LIST}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
