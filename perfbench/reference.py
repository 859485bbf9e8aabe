"""A fixed pure-Python task that gauges how fast the host runs right now.

    python3 perfbench/reference.py

The benchmark runs it between infkit commands, from the same launcher, and
reports command times as multiples of its time. It does the kind of work
infkit's commands do, with no code of infkit: interpreter start-up and
standard-library imports, then small-object work on frozensets, dicts and
tuples of a powerset algebra, recursive evaluation of random terms, and
canonical JSON output. On a shared host, neighbours that slow the commands
slow it alike, so the ratio moves less than either time. Its work is fixed;
it prints one digest, which the benchmark checks.
"""
import argparse  # noqa: F401  (start-up cost, as in infkit's CLI)
import dataclasses  # noqa: F401
import hashlib
import itertools
import json
import random

ATOMS = 10
TERMS = 2500
DEPTH = 5


def powerset(n):
    elements = [frozenset(i for i in range(n) if m >> i & 1)
                for m in range(1 << n)]
    index = {e: k for k, e in enumerate(elements)}
    top = elements[-1]
    return elements, index, top


def term(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return ("atom", rng.randrange(ATOMS))
    op = rng.choice(("meet", "join", "comp"))
    if op == "comp":
        return (op, term(rng, depth - 1))
    return (op, term(rng, depth - 1), term(rng, depth - 1))


def value(t, top, memo):
    if t in memo:
        return memo[t]
    if t[0] == "atom":
        v = frozenset((t[1],))
    elif t[0] == "comp":
        v = top - value(t[1], top, memo)
    elif t[0] == "meet":
        v = value(t[1], top, memo) & value(t[2], top, memo)
    else:
        v = value(t[1], top, memo) | value(t[2], top, memo)
    memo[t] = v
    return v


def main():
    elements, index, top = powerset(ATOMS)
    leq = {(index[a], index[b]) for a, b in itertools.product(elements[::4],
                                                              elements[::3])
           if a <= b}
    rng = random.Random(0)
    values = []
    for _ in range(TERMS):
        values.append(index[value(term(rng, DEPTH), top, {})])
    out = json.dumps({"leq": sorted(leq), "values": values},
                     sort_keys=True, indent=2)
    print(hashlib.sha256(out.encode()).hexdigest())


if __name__ == "__main__":
    main()
