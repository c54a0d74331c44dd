#!/usr/bin/env python3
"""Compare freshly written BENCH_*.json files with the committed copies.

Every exact field (words, messages, rounds, counts, pool counters, bitwise
flags) of each named file in the current directory must equal the one in
the committed copy at the repository root (the parent of this script's
directory); only timing fields are skipped: names containing "seconds" or
"speedup", or ending in "_per_s" or "_ms". A field present on one side
only is a difference. Exits 1 on any difference.

Run it in the directory the benches wrote their JSON to:

    cd build/bench && ./bench_batch && ./bench_exchange
    python3 ../../tools/check_bench_golden.py BENCH_batch.json BENCH_exchange.json
"""

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fields(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(fields(value, path + (str(key),)))
    return out


def timing(path):
    name = path[-1]
    return ("seconds" in name or "speedup" in name
            or name.endswith(("_per_s", "_ms")))


def check(name):
    with open(name) as f:
        fresh = fields(json.load(f))
    with open(os.path.join(REPO_ROOT, name)) as f:
        committed = fields(json.load(f))
    exact = sorted(p for p in set(fresh) | set(committed) if not timing(p))
    diffs = [p for p in exact
             if fresh.get(p, "<missing>") != committed.get(p, "<missing>")]
    for p in diffs:
        print(f"{name}: {'.'.join(p)}: committed "
              f"{committed.get(p, '<missing>')} fresh {fresh.get(p, '<missing>')}")
    print(f"{name}: {len(exact) - len(diffs)}/{len(exact)} exact fields match")
    return not diffs


def main(names):
    if not names:
        print(f"usage: {sys.argv[0]} BENCH_name.json...", file=sys.stderr)
        return 2
    ok = True
    for name in names:
        ok = check(name) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
