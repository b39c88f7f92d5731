"""Time `group table:` on a shuffled cyclic table file, and read its peak RSS.

    python3 scripts/table_file_probe.py N

Writes the table of Z_N, its elements listed in a random order fixed by
seed 0, as a table file in a temporary directory, one row at a time, so
this process never holds the table. Then runs `python -m nclosed group
table:<file> --format json` as a child and prints one JSON line: the
order, abelian flag and exponent the child reported, its wall time, and
its peak RSS read with os.wait4. This process stays small, so the child's
peak is its own: a child's ru_maxrss starts from its parent's RSS at the
fork. The file is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from operator import itemgetter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def write_shuffled_cyclic(n: int, path: Path) -> None:
    """Element k is the residue res[k]; row x holds res^-1 of res[x] + res[y]."""
    res = list(range(n))
    random.Random(0).shuffle(res)
    index = [0] * n
    for k, r in enumerate(res):
        index[r] = k
    with open(path, "w") as f:
        f.write('{"labels": %s, "table": [\n' % json.dumps([str(r) for r in res]))
        for x in range(n):
            # index[(res[x] + r) % n] for r = res[y]: index rotated by res[x]
            rotated = index[res[x]:] + index[:res[x]]
            row = itemgetter(*res)(rotated) if n > 1 else (0,)
            f.write(json.dumps(list(row)) + (",\n" if x < n - 1 else "\n"))
        f.write("]}\n")


def probe(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, "-m", "nclosed", "group", f"table:{path}", "--format", "json"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)  # reaps the child: Popen must not
        wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if code != 0:
            raise SystemExit(f"group table: exited {code}: {err.read().decode()}")
        payload = json.loads(out.read())
    return {"order": payload["order"], "abelian": payload["abelian"],
            "exponent": payload["exponent"], "file_mb": round(path.stat().st_size / 1e6, 1),
            "wall_s": round(wall, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="order of the cyclic group, 1..5040")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"z{args.n}.json"
        write_shuffled_cyclic(args.n, path)
        result = probe(path)
    print(json.dumps({"n": args.n, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
