#!/usr/bin/env python3
"""Render the paper-shaped tables from the figure driver's metrics blobs.

    build/bench/figures fig09 fig10 | python3 tools/experiments.py
    python3 tools/experiments.py fig09.txt fig10.txt

Reads `figures` output from the files named, or from stdin when none
is, and for each `MINOS_METRICS <name> <json>` line prints that
figure's banner, table and headline lines. A blob holds each point's
raw metrics as round-trip (%.17g) numbers, so this arithmetic, done in
the order the tables always used, gives the exact same text. Sweep
values (write mixes, node counts, FIFO sizes, persist latencies, DB
sizes) are read back from the point keys; only labels live here.

A table that needs a point the blob lacks exits 1, naming the point;
so does one that would divide by a metric that reads 0, which the C++
tables printed as nan or inf.
"""

import fileinput
import json
import re
import sys

# Model order and display names (simproto/models.hh).
MODELS = [("Synch", "<Lin,Synch>"), ("Strict", "<Lin,Strict>"),
          ("REnf", "<Lin,REnf>"), ("Event", "<Lin,Event>"),
          ("Scope", "<Lin,Scope>")]

# Fig. 12's configurations, in the order of their fig12.cfg<i> points.
FIG12_CONFIGS = ["MINOS-B", "B+bcast", "B+batch",
                 "Offl+Coh+WRLock (Combined)", "Combined+bcast",
                 "Combined+batch", "MINOS-O (all)"]


class Blob:
    """One figure's metrics: counters, gauges and histogram means."""

    def __init__(self, name, doc):
        self.name = name
        self.values = {**doc["counters"], **doc["gauges"]}
        for key, hist in doc["histograms"].items():
            self.values[key + ".mean"] = hist["mean"]
        self.points = {key.rsplit(".", i)[0] for key in self.values
                       for i in range(1, key.count(".") + 1)}

    def get(self, point, metric):
        """A point's metric. The registry leaves out the latency series
        of an op type a run never issued; their mean reads 0, as in
        stats::LatencySeries."""
        if point not in self.points:
            sys.exit(f"experiments.py: the {self.name} blob has no "
                     f"point {point} (no {point}.* keys)")
        return self.values.get(f"{point}.{metric}", 0)

    def sweep(self, pattern):
        """The distinct values @p pattern's group takes over the keys,
        numbers in numeric order first."""
        found = {m.group(1) for key in self.values
                 if (m := re.match(pattern, key))}
        if not found:
            sys.exit(f"experiments.py: the {self.name} blob has no key "
                     f"matching {pattern}")
        return sorted(found, key=lambda v: (not v.isdigit(),
                                            int(v) if v.isdigit() else 0,
                                            v))


def fmt(v, digits=2):
    """stats::Table::fmt: fixed point with @p digits decimals."""
    return f"{v:.{digits}f}"


def banner(figure, what):
    print(f"\n=== {figure}: {what} ===")
    print("(simulated machine, Tables II/III parameters; "
          "shape-level reproduction)\n")


def table(headers, rows):
    """Print a stats::Table: columns padded to two past the widest."""
    widths = [max(len(row[c]) for row in [headers] + rows)
              for c in range(len(headers))]

    def line(row):
        return "".join(cell if c + 1 == len(row)
                       else cell + " " * (widths[c] - len(cell) + 2)
                       for c, cell in enumerate(row))

    total = sum(w + 2 for w in widths)
    print("\n".join([line(headers), "-" * (total - 2)] +
                    [line(row) for row in rows]) + "\n")


def normalized(blob, columns, point, op, base):
    """Table rows of @p op latency and throughput per model and engine,
    over @p columns, relative to point @p base; point(model, engine,
    column) names each point."""
    rows = []
    for short, name in MODELS:
        for eng in "bo":
            lat = [name, eng.upper() + " lat"]
            tput = ["", eng.upper() + " tput"]
            for col in columns:
                p = point(short, eng, col)
                lat.append(fmt(blob.get(p, op + "_lat_ns.mean") /
                               blob.get(base, op + "_lat_ns.mean")))
                tput.append(fmt(blob.get(p, op + "_tput_ops") /
                                blob.get(base, op + "_tput_ops")))
            rows += [lat, tput]
    return rows


def ops_tput(blob, point):
    """A point's write plus read throughput (ops/s)."""
    return (blob.get(point, "write_tput_ops") +
            blob.get(point, "read_tput_ops"))


def fig04(blob):
    banner("Figure 4", "MINOS-B write latency: communication vs computation")
    rows = []
    for short, name in MODELS:
        comm = blob.get(f"fig04.{short}", "write_comm_ns") / 1e3
        comp = blob.get(f"fig04.{short}", "write_comp_ns") / 1e3
        total = comm + comp
        rows.append([name, fmt(comm), fmt(comp), fmt(total),
                     fmt(100.0 * comm / total, 1)])
    table(["model", "comm (us)", "comp (us)", "total (us)", "comm %"], rows)


def fig09(blob):
    mixes = [int(w) for w in blob.sweep(r"fig09\.\w+\.[bo]\.w(\d+)\.")]

    def point(model, eng, writes):
        return f"fig09.{model}.{eng}.w{writes}"

    base = point("Synch", "b", 50)
    writes = [w for w in mixes if w > 0]
    banner("Figure 9(a)", "normalized write latency / throughput (base: "
           "B <Lin,Synch> 50% writes)")
    table(["model", "engine"] + [f"{w}%" for w in writes],
          normalized(blob, writes, point, "write", base))

    # X% reads is (100-X)% writes.
    reads = sorted(100 - w for w in mixes if w < 100)
    banner("Figure 9(b)", "normalized read latency / throughput (base: "
           "B <Lin,Synch> 50% reads)")
    table(["model", "engine"] + [f"{r}%" for r in reads],
          normalized(blob, reads,
                     lambda m, e, r: point(m, e, 100 - r), "read", base))

    lat_ratio = tput_ratio = 0
    n = 0
    for short, _ in MODELS:
        for w in mixes:
            if w in (0, 100):  # only mixes with both ops present
                continue
            b, o = point(short, "b", w), point(short, "o", w)
            lat_ratio += (blob.get(b, "write_lat_ns.mean") /
                          blob.get(o, "write_lat_ns.mean"))
            b_tput = ops_tput(blob, b)
            tput_ratio += ops_tput(blob, o) / b_tput if b_tput > 0 else 0
            n += 1
    print(f"Average write-latency reduction (B/O): {lat_ratio / n:.2f}x "
          "(paper: ~2.1x)")
    print(f"Average throughput gain (O/B): {tput_ratio / n:.2f}x "
          "(paper: ~2.3x)")


def fig10(blob):
    nodes = [int(n) for n in blob.sweep(r"fig10\.\w+\.[bo]\.n(\d+)\.")]

    def point(model, eng, n):
        return f"fig10.{model}.{eng}.n{n}"

    base = point("Synch", "b", nodes[0])
    for op, title in (("write", "(a) writes"), ("read", "(b) reads")):
        banner("Figure 10", f"{title}, normalized to B <Lin,Synch> @ "
               f"{nodes[0]} nodes")
        table(["model", "engine"] + [str(n) for n in nodes],
              normalized(blob, nodes, point, op, base))

    wlat = rlat = gain = 0
    n = 0
    for short, _ in MODELS:
        for count in nodes:
            b, o = point(short, "b", count), point(short, "o", count)
            wlat += (blob.get(b, "write_lat_ns.mean") /
                     blob.get(o, "write_lat_ns.mean"))
            o_read = blob.get(o, "read_lat_ns.mean")
            rlat += (blob.get(b, "read_lat_ns.mean") / o_read
                     if o_read > 0 else 0)
            gain += ops_tput(blob, o) / ops_tput(blob, b)
            n += 1
    print(f"Average write-latency reduction (B/O): {wlat / n:.2f}x "
          "(paper: ~2.3x)")
    print(f"Average read-latency reduction (B/O): {rlat / n:.2f}x "
          "(paper: ~3.1x)")
    print(f"Average throughput gain (O/B): {gain / n:.2f}x (paper: ~2.4x)")


def fig11(blob):
    apps = ["Social", "Media"]
    base = blob.get("fig11.Synch.b.Social", "e2e_lat_ns.mean")
    banner("Figure 11", "end-to-end Login latency, normalized to B "
           "<Lin,Synch> Social (16 nodes, 500us RTT)")
    rows = []
    reduction = 0
    n = 0
    for short, name in MODELS:
        row = [name]
        for app in apps:
            b = blob.get(f"fig11.{short}.b.{app}", "e2e_lat_ns.mean")
            o = blob.get(f"fig11.{short}.o.{app}", "e2e_lat_ns.mean")
            row += [fmt(b / base), fmt(o / base)]
            reduction += 1.0 - o / b
            n += 1
        rows.append(row)
    table(["model"] + [f"{app} {eng}" for app in apps for eng in "BO"], rows)
    print("Average end-to-end latency reduction: "
          f"{100.0 * reduction / n:.1f}% (paper: ~35%)")


def fig12(blob):
    banner("Figure 12", "MINOS-O optimization ablation, write latency "
           "normalized to MINOS-B (<Lin,Synch>, 100% writes)")
    lats = [blob.get(f"fig12.cfg{i}", "write_lat_ns.mean")
            for i in range(len(FIG12_CONFIGS))]
    table(["configuration", "norm. write latency", "reduction vs B"],
          [[name, fmt(lat / lats[0]),
            fmt(100.0 * (1.0 - lat / lats[0]), 1) + "%"]
           for name, lat in zip(FIG12_CONFIGS, lats)])
    print("Paper shape: Combined ~-43%; Combined+batch slower than "
          "Combined; MINOS-O ~-51%.")


def fig13(blob):
    banner("Figure 13", "MINOS-O write latency vs FIFO size, normalized to "
           "unlimited entries (<Lin,Synch>, 50/50)")
    unlimited = blob.get("fig13.entries_unlimited", "write_lat_ns.mean")
    table(["vFIFO/dFIFO entries", "norm. write latency"],
          [[size.lstrip("_"),
            fmt(blob.get(f"fig13.entries{size}", "write_lat_ns.mean") /
                unlimited)]
           for size in blob.sweep(r"fig13\.entries(\w+?)\.")])
    print("Paper shape: 3-5 entries attain (approximately) the "
          "unlimited-FIFO latency.")


def fig14(blob):
    banner("Figure 14", "MINOS-O speedup over MINOS-B for write transactions "
           "(<Lin,Synch>, 50/50)")
    settings = [("persist latency", f"{ns} ns/KB", f"persist{ns}")
                for ns in blob.sweep(r"fig14\.persist(\d+)\.")]
    settings += [("key distribution", dist, dist)
                 for dist in ("zipfian", "uniform")]
    settings += [("database size", f"{n} records", f"db{n}")
                 for n in blob.sweep(r"fig14\.db(\d+)\.")]
    table(["group", "setting", "speedup (x)"],
          [[group, label,
            fmt(blob.get(f"fig14.{p}.b", "write_lat_ns.mean") /
                blob.get(f"fig14.{p}.o", "write_lat_ns.mean"))]
           for group, label, p in settings])
    print("Paper shape: speedup grows with persist latency (avg ~2.2x); ~2x "
          "for both distributions and all DB sizes.")


def leader(blob):
    nodes = [int(n) for n in blob.sweep(r"leader\.\w+\.n(\d+)\.")]
    banner("Leaderless vs leader-based", "write latency / throughput, "
           "<Lin,Synch>, 50/50, normalized to leader-based @ "
           f"{nodes[0]} nodes")
    base = f"leader.leader.n{nodes[0]}"
    rows = []
    for design, label in (("leader", "leader-based"),
                          ("leaderless", "leaderless (MINOS-B)")):
        lat, tput = [label, "latency"], ["", "throughput"]
        for n in nodes:
            p = f"leader.{design}.n{n}"
            lat.append(fmt(blob.get(p, "write_lat_ns.mean") /
                           blob.get(base, "write_lat_ns.mean")))
            tput.append(fmt(blob.get(p, "write_tput_ops") /
                            blob.get(base, "write_tput_ops")))
        rows += [lat, tput]
    table(["design", "metric"] + [str(n) for n in nodes], rows)
    ratio = (blob.get(f"leader.leaderless.n{nodes[-1]}", "write_tput_ops") /
             blob.get(f"leader.leader.n{nodes[-1]}", "write_tput_ops"))
    print(f"At {nodes[-1]} nodes the leaderless design delivers {ratio:.2f}x "
          "the leader-based write throughput.")


def ycsb(blob):
    banner("YCSB core workloads (extension)",
           "A/B/C/F on MINOS-B vs MINOS-O, <Lin,Synch>, 5 nodes")
    rows = []
    for wl in blob.sweep(r"ycsb\.(\w)\.[bo]\."):
        b_tput = blob.get(f"ycsb.{wl}.b", "total_tput_ops")
        o_tput = blob.get(f"ycsb.{wl}.o", "total_tput_ops")
        for eng in "bo":
            p = f"ycsb.{wl}.{eng}"
            write_lat = blob.get(p, "write_lat_ns.mean")
            rows.append([wl, eng.upper(),
                         fmt(write_lat / 1e3) if write_lat > 0 else "-",
                         fmt(blob.get(p, "read_lat_ns.mean") / 1e3),
                         fmt(blob.get(p, "total_tput_ops") / 1e6),
                         fmt(o_tput / b_tput) if eng == "o" else ""])
    table(["workload", "engine", "write lat (us)", "read lat (us)",
           "tput (Mops/s)", "O/B tput"], rows)


RENDERERS = {f.__name__: f for f in
             (fig04, fig09, fig10, fig11, fig12, fig13, fig14, leader, ycsb)}


def main():
    blobs = 0
    for line in fileinput.input():
        if not line.startswith("MINOS_METRICS "):
            continue
        _, name, doc = line.split(" ", 2)
        if name not in RENDERERS:
            sys.exit(f"experiments.py: no table for blob '{name}'")
        try:
            RENDERERS[name](Blob(name, json.loads(doc)))
        except ZeroDivisionError:
            sys.exit(f"experiments.py: a {name} table divides by a metric "
                     "that reads 0 (too few requests per node?)")
        blobs += 1
    if blobs == 0:
        sys.exit("experiments.py: no MINOS_METRICS line in the input")


if __name__ == "__main__":
    main()
