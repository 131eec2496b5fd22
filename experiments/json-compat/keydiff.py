#!/usr/bin/env python3
"""Key-path compatibility check between two `experiments --json` documents.

Every key path of the OLD document (list indices collapsed to `[]`) must
appear in the NEW document with the same JSON type; JSON has one number
type, so integers and floats compare equal, and a path that is `null` on
either side matches any type (an optional counter or an absent
cross-check). Paths only NEW has are listed as additions.

Usage:
  keydiff.py OLD.json NEW.json      # exit 1 on any missing or retyped path
  keydiff.py --run OLD_BIN NEW_BIN  # run both binaries over the recorded
                                    # experiment set at SF 0.01 and diff each
"""

import json
import subprocess
import sys

# The documents downstream tooling reads (CI validators, BENCH_*.json,
# experiments/var-load/summarize.py).
EXPERIMENTS = [
    ["fig3", "--sf", "0.01", "--reps", "1"],
    ["table1", "--sf", "0.01", "--reps", "1"],
    ["table1", "--per-stage", "--sf", "0.01", "--reps", "1"],
    ["serve", "--obs", "--sf", "0.01", "--duration-ms", "300"],
    ["compression", "--throttle", "--sf", "0.01", "--reps", "1"],
    ["load", "--sf", "0.01", "--rate", "10,40", "--duration-ms", "300", "--conns", "4"],
]


def kind(v):
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(v)]


def paths(v, prefix="", out=None):
    """path -> set of JSON types seen there."""
    out = {} if out is None else out
    out.setdefault(prefix or "$", set()).add(kind(v))
    if isinstance(v, dict):
        for k, sub in v.items():
            paths(sub, f"{prefix}.{k}", out)
    elif isinstance(v, list):
        for sub in v:
            paths(sub, f"{prefix}[]", out)
    return out


def diff(old, new):
    """(missing-or-retyped lines, added paths)."""
    po, pn = paths(old), paths(new)
    problems = []
    for p, types in sorted(po.items()):
        if p not in pn:
            problems.append(f"missing  {p}")
            continue
        old_t, new_t = types - {"null"}, pn[p] - {"null"}
        if old_t and new_t and not old_t <= new_t:
            problems.append(f"retyped  {p}: {sorted(types)} -> {sorted(pn[p])}")
    return problems, sorted(set(pn) - set(po))


def report(label, old, new):
    problems, added = diff(old, new)
    print(f"## {label}: {len(problems)} missing/retyped, {len(added)} added")
    for line in problems:
        print(f"  {line}")
    for p in added:
        print(f"  added    {p}")
    return not problems


def run(binary, args):
    out = subprocess.run([binary, *args, "--json"], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main():
    argv = sys.argv[1:]
    if len(argv) == 3 and argv[0] == "--run":
        ok = all([report(" ".join(a), run(argv[1], a), run(argv[2], a)) for a in EXPERIMENTS])
    elif len(argv) == 2:
        with open(argv[0]) as f, open(argv[1]) as g:
            ok = report(f"{argv[0]} -> {argv[1]}", json.load(f), json.load(g))
    else:
        sys.exit(__doc__)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
