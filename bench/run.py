"""Benchmark of gpdcorr's search engine and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload actions --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload actions --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --check        # every pinned digest, all workloads
    python3 bench/run.py --pin          # rewrite bench/expected.json

The last line of a run's standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it say
how each metric was sampled.  See bench/README.md.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gpdbench import harness  # noqa: E402
from gpdbench.instances import DEFAULT_SEED  # noqa: E402
from gpdbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write the digests of every job to "
                             "bench/expected.json")
    parser.add_argument("--check", action="store_true",
                        help="compare every job's digest with the pinned "
                             "one")
    args = parser.parse_args(argv)
    try:
        if args.pin or args.check:
            return pin_or_check(args.pin)
        if args.workload is None:
            parser.error("--workload is required")
        result, notes = harness.run(ROOT, args.workload, args.seed,
                                    args.seconds, args.trace)
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program: {exc}\n")
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


def pin_or_check(pin):
    got = {w: harness.digests(ROOT, w) for w in sorted(WORKLOADS)}
    if pin:
        with open(harness.EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(got, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"pinned {sum(map(len, got.values()))} digests")
        return 0
    bad = 0
    for workload, digests in got.items():
        want = harness.load_expected(workload)
        for key in sorted(set(digests) | set(want)):
            if digests.get(key) != want.get(key):
                bad += 1
                print(f"{workload} {key}: {digests.get(key)} != "
                      f"{want.get(key)}")
    print(f"checked {sum(map(len, got.values()))} digests, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
