#!/usr/bin/env python3
"""Render one figure's blob with tools/experiments.py.

    render_test.py FIGURES EXPERIMENTS NAME [DROP]

Runs `FIGURES NAME` at 50 requests per node and feeds its output to
the renderer, which must exit 0 and print the figure's tables. With
DROP, every metric under the point prefix DROP is first removed from
the blob, and the renderer must instead exit 1 naming DROP.
"""

import json
import os
import subprocess
import sys

figures, experiments, name = sys.argv[1:4]
drop = sys.argv[4] if len(sys.argv) > 4 else None

out = subprocess.run([figures, name], check=True, capture_output=True,
                     text=True,
                     env={**os.environ, "MINOS_BENCH_REQS": "50"}).stdout
if drop:
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("MINOS_METRICS "):
            _, blob, doc = line.split(" ", 2)
            doc = json.loads(doc)
            for kind in doc.values():
                for key in [k for k in kind if k.startswith(drop + ".")]:
                    del kind[key]
            lines[i] = f"MINOS_METRICS {blob} {json.dumps(doc)}\n"
    out = "".join(lines)

res = subprocess.run([sys.executable, experiments], input=out,
                     capture_output=True, text=True)
if drop:
    ok = res.returncode == 1 and drop in res.stderr
else:
    ok = res.returncode == 0 and "\n=== " in res.stdout
if not ok:
    sys.exit(f"exit {res.returncode}\n{res.stdout}{res.stderr}")
print(res.stdout + res.stderr)
