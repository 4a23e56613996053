"""Correctness checks, run after the timed loop.

Three kinds, each independent of the code path that produced the answer:

* a digest per workload and seed of every query's stdout and exit code,
  compared with the digests recorded in `digests.json` (written by
  `record_digests.py`) when the seed is one of them;
* `verify` suites must exit 0 and print `OK`;
* `inverse` windows: on path presentations the printed window X must satisfy
  X . C = 1, where C counts paths inside the window (windows of the path
  families and whole --file quivers are convex, so C is invertible and its
  inverse is the window of c^-1); on garland families every entry must equal
  the Mobius function of the poset.
"""

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def output_digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).digest()


def stream_digest(query_digests):
    h = hashlib.sha256()
    for d in query_digests:
        h.update(d)
    return h.hexdigest()


def recorded_digest(workload, seed, path=DIGESTS):
    """The recorded digest for this workload and seed, or None."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def parse_tsv(text):
    """(labels, {row label: [ints]}) of a square TSV matrix printout."""
    lines = text.rstrip("\n").split("\n")
    labels = lines[0].split("\t")[1:]
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        rows[cells[0]] = [int(x) for x in cells[1:]]
    return labels, rows


def flag(argv, name):
    for arg in argv:
        if arg.startswith(f"--{name}="):
            return arg.split("=", 1)[1]
    return None


def path_counts(n, arrows):
    """C[i][j] = number of paths j -> i in a quiver on 0..n-1 whose arrows all
    go up (u < v), so ascending order is topological."""
    out = [[] for _ in range(n)]
    for u, v in arrows:
        out[u].append(v)
    c = [[0] * n for _ in range(n)]
    for j in range(n):
        c[j][j] = 1
        for u in range(j, n):
            if c[u][j]:
                for v in out[u]:
                    c[v][j] += c[u][j]
    return c


def window_quiver(pres, labels):
    """Vertices 0..n-1 standing for `labels` (in display order, which is
    topological on the path families) and the arrows between them."""
    verts = [pres.parse_token(x) for x in labels]
    index = {v: k for k, v in enumerate(verts)}
    arrows = []
    for v in verts:
        for w, mult in pres.out_arcs(v):
            if w in index:
                arrows.extend([(index[v], index[w])] * mult)
    return len(verts), arrows


def inverse_is_exact(x_rows, labels, c):
    """X . C == 1 with X the printed inverse window."""
    n = len(labels)
    for j, label in enumerate(labels):
        row = [0] * n
        for p, xp in enumerate(x_rows[label]):
            if xp:
                row = [r + xp * cp for r, cp in zip(row, c[p])]
        if row != [1 if i == j else 0 for i in range(n)]:
            return False
    return True


def check_query(pkg, query, out):
    """True when `out` passes the query's independent check."""
    kind = query.check[0]
    if kind == "ok":
        return out.startswith("OK")
    labels, rows = parse_tsv(out)
    if kind == "path-inverse":
        if query.check[1] is not None:
            n, arrows = query.check[1]
        else:
            pres = pkg.presentations.parse_family_flag(flag(query.argv, "family"))
            n, arrows = window_quiver(pres, labels)
        return n == len(labels) and inverse_is_exact(rows, labels, path_counts(n, arrows))
    if kind == "mobius":
        pres = pkg.presentations.parse_family_flag(flag(query.argv, "family"))
        verts = [pres.parse_token(x) for x in labels]
        return all(
            rows[row][k] == pkg.resolutions.mobius(pres, p, j)
            for row, j in zip(labels, verts)
            for k, p in enumerate(verts)
        )
    raise ValueError(f"unknown check {kind!r}")
