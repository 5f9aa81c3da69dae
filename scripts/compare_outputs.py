"""Compare the per-entry output digests of two benchmark runs.

Usage, from the repository root:

    python3 scripts/compare_outputs.py PARENT.json CHANGE.json

Both files are `.perfbench_out/outputs-<workload>-<seed>.json`, written by
`perfbench/run.py`; digests are keyed by pool index, so runs with different
seeds compare too.  Only the pool indices that both runs completed are
compared.  Prints the matched, mismatched and one-side-only counts and the
first mismatched indices; exits 1 when any digest differs, 0 otherwise.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)["per_entry_sha256"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    parent, change = load(args[0]), load(args[1])
    both = sorted(parent.keys() & change.keys(), key=int)
    mismatched = [index for index in both if parent[index] != change[index]]
    print(f"matched {len(both) - len(mismatched)} mismatched {len(mismatched)} "
          f"only_parent {len(parent.keys() - change.keys())} "
          f"only_change {len(change.keys() - parent.keys())}")
    if mismatched:
        print("first mismatched pool indices: " + " ".join(mismatched[:10]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
