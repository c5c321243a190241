#!/usr/bin/env python3
"""Render one figure's blob with tools/experiments.py.

    render_test.py FIGURES EXPERIMENTS NAME [DROP]

Runs `FIGURES NAME` at 50 requests per node: its MINOS_METRICS line
must hash to PINNED[NAME] (a blob changes only with the simulated
results or keys, and then re-pins here on purpose). The output goes to
the renderer, which must exit 0 and print the figure's tables. With
DROP, every metric under the point prefix DROP is first removed from
the blob, and the renderer must instead exit 1 naming DROP.
"""

import hashlib
import json
import os
import subprocess
import sys

# SHA-256 of each figure's MINOS_METRICS line, newline excluded.
PINNED = {
    "fig04": "3e9b86b6561bac6d6851917c769da4108cd7a49708e0838cc4ccf24c9d0b593c",
    "fig09": "c927fcad6534e0d6d10d42c07990e2e9c194bbb25242106ca467872afc887881",
    "fig10": "00df979e45d99023e6089a2786dab4a2936bc6603b6244650452828e72f2ed4c",
    "fig11": "2a6e63c289a7a615476d40f257ead60a3758ff71721dfc4ed52997841e30f6ba",
    "fig12": "d156b1366204b614903653c75a05f3adca769112026392cbc0e890d053fcc327",
    "fig13": "f9b0cd3cf87a7a5f97ec9e692703c7e67308538a84e529f49596583017641a37",
    "fig14": "813be0a6cfd33836f9c298fbab39cbea148803e962baf08c72223d02ba6bf2be",
    "leader": "ba2ed9649e18018d71bcf8d374ab5645dc4c1d5e5a41773a1f692ea690f78586",
    "ycsb": "8438c18cded529fc9467d865390d1e5d6947cd5fa3d64c957c560eb93ee322fe",
}

figures, experiments, name = sys.argv[1:4]
drop = sys.argv[4] if len(sys.argv) > 4 else None

out = subprocess.run([figures, name], check=True, capture_output=True,
                     text=True,
                     env={**os.environ, "MINOS_BENCH_REQS": "50"}).stdout
blob = "\n".join(line for line in out.splitlines()
                 if line.startswith("MINOS_METRICS "))
digest = hashlib.sha256(blob.encode()).hexdigest()
if digest != PINNED[name]:
    sys.exit(f"{name}: blob sha256 {digest}, pinned {PINNED[name]}")
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
