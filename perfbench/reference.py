"""Fixed reference work that measures the machine's current speed.

    python3 perfbench/reference.py

The benchmark spawns this script next to every timed command and scales
the command's time by how long this took (run.py, `normalise`). It uses the
standard library only and imports nothing from pbrlab, so a change to the
program cannot change it; its mix resembles the CLI's: interpreter start,
imports, exact rational elimination with growing bit-lengths, and a JSON
round trip. Never change it: every recorded time is relative to it.
"""

import argparse
import json
from fractions import Fraction

N = 20  # order of the Hilbert matrix eliminated


def main() -> None:
    argparse.ArgumentParser(description="reference work").parse_args()
    a = [[Fraction(1, i + j + 1) for j in range(N)] + [Fraction(int(i == 0))]
         for i in range(N)]
    for k in range(N):
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        for i in range(N):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    text = json.dumps({"x": [str(row[-1]) for row in a]}, sort_keys=True)
    x = [Fraction(s) for s in json.loads(text)["x"]]
    if sum(x[i] / (i + 1) for i in range(N)) != 1:  # first row of H x = e_0
        raise SystemExit("reference work went wrong")


if __name__ == "__main__":
    main()
