"""Quiver and poset presentations of pointed coalgebras.

A presentation stands in for the coalgebra: a path presentation is a locally
finite acyclic quiver, an incidence presentation an intervally finite poset.
Built-in families answer neighbourhood and order queries in closed form;
arbitrary user input is finite only, so interval-finiteness never has to be
guessed.  The two linear chains are one class, with or without a start, and
so are the garlands, a row of blocks glued once (garland-seq) or repeated
both ways (garland:L).  A garland vertex lies on one integer level, its
block found by bisecting the junction levels, and u < v exactly when u's
level is below v's; its arcs, intervals, cut regions and ranges are runs of
levels.  So every level-preserving bijection is an automorphism: swapping
top and bottom on every level, and on garland:L shifting all blocks by one.
A class names the automorphisms it knows through `orbit(v)`, a
representative of v's orbit with a move onto v; a garland's representatives
are top vertices, in block 0 on garland:L.

Conventions fixed here and relied on everywhere else:
  * each presentation carries a total display order on its vertices
    (`sort_key`); all matrix printouts follow it,
  * quiver arcs are the arrows, poset arcs are the covering pairs lo -> hi,
  * the opposite presentation reverses arcs/order but keeps the display order.

Memos keyed on a presentation live on it (`Presentation.memo`) and die with
it.  The opposite is a value: two opposites of one base are equal, and an
opposite keeps its memos on the base under the prefix "op", so every copy
shares them and none is cached on the base.

A presentation read from a file keeps its reachability closure as one int
bitmask per vertex, built without recursion in topological order (Kahn);
order, intervals, covers and support certificates read it.  Path counts are
facts of each class: 0 or 1 wherever at most one path joins two vertices; a
finite quiver keeps the column of each target it is asked about, the sum
of its in-neighbours' kept columns or else one pass over its ancestors in
reverse Kahn order, and builds no other.  A Cartan row (column) is the
counts over the ancestors (descendants), `paths_into` (`paths_from`).  So
are the bulk counts that a matrix window reads one line of,
`counts_into(v, frms)` and `counts_from(u, tos)`: the base class loops
`path_count`, the linear chains and d-infinity compare in place, a finite
quiver reads its kept columns (of v, or entry u of each column of tos) with
no Python call per cell, and the opposite view swaps the two.  An inverse
Cartan row j of a path presentation lives on j and the tails of its arrows;
a finite poset's lives on [c, j] for the nearest c < j comparable with
every element below j, when there is one: below c each open interval is a
cone.
"""

import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, repeat

from .errors import EmptyWindow, PresentationError, UnknownVertex


class Window:
    """An ordered finite list of distinct vertices, sorted by the display order."""

    def __init__(self, pres, vertices):
        seen = set()
        verts = []
        for v in vertices:
            if not pres.has_vertex(v):
                raise UnknownVertex(f"unknown vertex {v!r}")
            if v in seen:
                continue
            seen.add(v)
            verts.append(v)
        if not verts:
            raise EmptyWindow("empty window")
        self.presentation = pres
        self.vertices = sorted(verts, key=pres.sort_key)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in set(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and self.presentation == other.presentation
            and self.vertices == other.vertices
        )

    def __repr__(self):
        return "Window[%s]" % ",".join(self.presentation.display(v) for v in self.vertices)


def _int_or_str(tok):
    """The int that `tok` spells, blanks aside, when that is its only
    spelling, else `tok`: "01", "+1" and "1_0" stay names, so two declared
    vertices never merge into one."""
    try:
        n = int(tok)
    except ValueError:
        return tok
    return n if str(n) == tok.strip() else tok


class Presentation:
    """Common interface; concrete classes fill in the queries."""

    kind = None          # "quiver" | "poset"
    family = None        # short name for built-in families, else None
    is_finite = False
    # (all rows finite, all columns finite) for the Cartan matrix; None = unknown
    cartan_finiteness = (None, None)
    # a linear quiver on consecutive integers, where interval modules and
    # their meshes have closed forms
    linear = False

    # -- vertex bookkeeping ------------------------------------------------

    def has_vertex(self, v):
        raise NotImplementedError

    def sort_key(self, v):
        return v

    def display(self, v):
        return str(v)

    def parse_token(self, tok):
        """Turn a textual vertex token into a vertex id (or raise UnknownVertex)."""
        v = _int_or_str(tok)
        if not self.has_vertex(v):
            raise UnknownVertex(f"unknown vertex {tok}")
        return v

    def vertices(self):
        """All vertices; only valid for finite presentations."""
        raise NotImplementedError

    # -- arcs ----------------------------------------------------------------

    def out_arcs(self, v):
        """List of (target, multiplicity): arrows out of v / covers above v."""
        raise NotImplementedError

    def in_arcs(self, v):
        raise NotImplementedError

    # -- reachability / order -------------------------------------------------

    def could_reach(self, u, v):
        """True when a directed path u -> v may exist.  Must be exact for
        infinite families (it prunes path enumeration); finite presentations
        may answer via reachability.  A poset's covers reach up its order."""
        return self.leq(u, v)

    def path_count(self, u, v):
        """Number of directed paths u -> v, the trivial path included.  This
        default is exact wherever at most one path joins two vertices: every
        poset (`could_reach` is `leq`) and the tree families a-infinity,
        z-a-infinity and d-infinity."""
        return 1 if u == v or self.could_reach(u, v) else 0

    def counts_into(self, v, frms):
        """[path_count(u, v) for u in frms] in one read; a class with a
        faster rule overrides it."""
        return [self.path_count(u, v) for u in frms]

    def counts_from(self, u, tos):
        """[path_count(u, v) for v in tos] in one read."""
        return [self.path_count(u, v) for v in tos]

    def ancestors(self, v):
        """frozenset {u : path u -> v exists}, or None when infinite/uncertified."""
        return None

    def descendants(self, v):
        return None

    def paths_into(self, v):
        """Row v of the Cartan matrix: {u: path_count(u, v)} over
        ancestors(v), or None when that is."""
        anc = self.ancestors(v)
        return None if anc is None else dict(zip(anc, self.counts_into(v, anc)))

    def paths_from(self, u):
        """Column u of the Cartan matrix: {v: path_count(u, v)} over
        descendants(u), or None when that is."""
        desc = self.descendants(u)
        return None if desc is None else dict(zip(desc, self.counts_from(u, desc)))

    # Posets additionally provide the order itself.

    def leq(self, u, v):
        raise NotImplementedError("not an incidence presentation")

    def interval(self, u, v):
        """Sorted list of the closed interval [u, v]; empty when u <= v fails."""
        raise NotImplementedError("not an incidence presentation")

    def linear_extension(self, elements):
        """`elements` listed so that u comes before v whenever u < v."""
        raise NotImplementedError("not an incidence presentation")

    def local_downset(self, v):
        """Support certificate for row v of the inverse Cartan matrix:
        a finite superset of {p : entry (v, p) can be nonzero}.  This default
        is v with the tails of its arrows, exact for a path presentation,
        which is hereditary; posets override it."""
        return frozenset([v, *(u for u, _ in self.in_arcs(v))])

    def local_upset(self, v):
        return frozenset([v, *(w for w, _ in self.out_arcs(v))])

    def orbit(self, v):
        """(r, move): the representative r of v's orbit under the known
        automorphisms of the presentation, and one of them, `move`, with
        move(r) == v; move is None when r is v.  This default knows none."""
        return v, None

    # -- misc ----------------------------------------------------------------

    def memo(self, name):
        """The dict of memos called `name` kept on this presentation, made on
        first use."""
        try:
            return self._memos[name]
        except AttributeError:
            self._memos = {}
        except KeyError:
            pass
        return self._memos.setdefault(name, {})

    def opposite(self):
        """A fresh opposite view; it equals, and shares memos with, every other."""
        return OppositePresentation(self)

    def window(self, spec):
        """Build a Window from "a..b", an iterable of vertices, or a comma list."""
        if isinstance(spec, Window):
            return spec
        if isinstance(spec, str):
            return Window(self, self._parse_window_spec(spec))
        return Window(self, list(spec))

    def _parse_window_spec(self, spec):
        spec = spec.strip()
        m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)", spec)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            return self._range_vertices(lo, hi)
        return [self.parse_token(tok.strip()) for tok in spec.split(",") if tok.strip()]

    def _range_vertices(self, lo, hi):
        """The integer vertices lo..hi; a finite presentation lists them
        from its vertices, so a wide range costs nothing."""
        pool = self.vertices() if self.is_finite else range(lo, hi + 1)
        out = [v for v in pool if isinstance(v, int) and lo <= v <= hi and self.has_vertex(v)]
        if not out:
            raise EmptyWindow(f"range {lo}..{hi} contains no vertices")
        return out


class OppositePresentation(Presentation):
    """Arc- and order-reversed view of `base`, with its vertices, display
    order and vertex tokens.  Two opposites of one base are equal and share
    the memos kept on the base under the prefix "op"."""

    def __init__(self, base):
        self.base = base
        self.family = f"op:{base.family}" if base.family else None
        self.is_finite = base.is_finite
        self.kind = base.kind
        self.cartan_finiteness = base.cartan_finiteness[::-1]

    def __eq__(self, other):
        return type(self) is type(other) and self.base == other.base

    def __hash__(self):
        return hash((type(self), self.base))

    def memo(self, name):
        return self.base.memo(("op", name))

    def has_vertex(self, v):
        return self.base.has_vertex(v)

    def sort_key(self, v):
        return self.base.sort_key(v)

    def display(self, v):
        return self.base.display(v)

    def parse_token(self, tok):
        return self.base.parse_token(tok)

    def vertices(self):
        return self.base.vertices()

    def orbit(self, v):
        # an automorphism of the base is one of its opposite
        return self.base.orbit(v)

    def _range_vertices(self, lo, hi):
        return self.base._range_vertices(lo, hi)

    def out_arcs(self, v):
        return self.base.in_arcs(v)

    def in_arcs(self, v):
        return self.base.out_arcs(v)

    def could_reach(self, u, v):
        return self.base.could_reach(v, u)

    def path_count(self, u, v):
        return self.base.path_count(v, u)

    def counts_into(self, v, frms):
        return self.base.counts_from(v, frms)

    def counts_from(self, u, tos):
        return self.base.counts_into(u, tos)

    def ancestors(self, v):
        return self.base.descendants(v)

    def descendants(self, v):
        return self.base.ancestors(v)

    def leq(self, u, v):
        return self.base.leq(v, u)

    def interval(self, u, v):
        return self.base.interval(v, u)

    def linear_extension(self, elements):
        return self.base.linear_extension(elements)[::-1]

    def local_downset(self, v):
        return self.base.local_upset(v)

    def local_upset(self, v):
        return self.base.local_downset(v)

    def opposite(self):
        return self.base


class _FinitePresentation(Presentation):
    """Vertex registry, arcs and reachability closure of a finite presentation.

    Vertices are numbered in display order: first `vertices`, then the ends
    of `relations` as they come.  Vertex i owns bit i (`_bit`); `_up[v]` is
    the mask of v and everything it reaches, `_down[v]` of v and everything
    reaching it.  Kahn's algorithm orders the vertices once, and each mask is
    the union of its neighbours' masks taken in that order.
    """

    is_finite = True
    cartan_finiteness = (True, True)
    cycle_message = "cycle detected at {} -> {}"

    def __init__(self, vertices, relations):
        self._order = {}
        self._verts = []
        for v in chain(vertices, chain.from_iterable(relations)):
            if v not in self._order:
                self._order[v] = len(self._verts)
                self._verts.append(v)
        self._succ = {v: [] for v in self._verts}
        for s, t in relations:
            self._succ[s].append(t)
        indeg = Counter(chain.from_iterable(self._succ.values()))
        topo = [v for v in self._verts if not indeg[v]]
        for v in topo:
            for w in self._succ[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    topo.append(w)
        if len(topo) < len(self._verts):
            arc = _arc_on_cycle(self._succ, indeg)
            raise PresentationError(self.cycle_message.format(*map(self.display, arc)))
        self._topo = topo
        self._topo_index = {v: i for i, v in enumerate(topo)}
        self._bit = {v: 1 << i for i, v in enumerate(self._verts)}
        self._up, self._down = dict(self._bit), dict(self._bit)
        for v in reversed(topo):
            for w in self._succ[v]:
                self._up[v] |= self._up[w]
        for v in topo:
            for w in self._succ[v]:
                self._down[w] |= self._down[v]

    def _store_arcs(self, arcs):
        """Keep (neighbour, multiplicity) lists in display order for `arcs`,
        a list of (src, dst) pairs with repeats: the counted arcs are sorted
        once per direction by the neighbour's place and dealt out in turn."""
        counts = Counter(arcs)
        self._out, self._in = {}, {}
        for lists, end in ((self._out, 0), (self._in, 1)):
            for arc in sorted(counts, key=lambda a: self._order[a[1 - end]]):
                lists.setdefault(arc[end], []).append((arc[1 - end], counts[arc]))

    def _members(self, mask):
        """The vertices whose bits are set in mask, in display order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self._verts[low.bit_length() - 1])
            mask ^= low
        return out

    def has_vertex(self, v):
        return v in self._order

    def sort_key(self, v):
        return self._order[v]

    def vertices(self):
        return list(self._verts)

    def out_arcs(self, v):
        return list(self._out.get(v, ()))

    def in_arcs(self, v):
        return list(self._in.get(v, ()))

    def linear_extension(self, elements):
        """By position in the Kahn order, which extends reachability."""
        return sorted(elements, key=self._topo_index.__getitem__)

    def ancestors(self, v):
        return frozenset(self._members(self._down.get(v, 0)))

    def descendants(self, v):
        return frozenset(self._members(self._up.get(v, 0)))


def _arc_on_cycle(succ, indeg):
    """An arc (v, w) on a cycle, from the in-degrees that Kahn's algorithm
    left: each vertex it could not order has a predecessor it could not
    order, so walking back from one closes a cycle."""
    pred = {w: v for v, ws in succ.items() if indeg[v] for w in ws}
    w, seen = next(iter(pred)), set()
    while w not in seen:
        seen.add(w)
        w = pred[w]
    return pred[w], w


class FiniteQuiver(_FinitePresentation):
    """Finite acyclic quiver; parallel arrows allowed (multiplicity >= 1)."""

    kind = "quiver"

    def __init__(self, vertices, arrows):
        # vertices: iterable in display order; arrows: list of (src, dst) with repeats.
        self.arrow_list = [(s, t) for s, t in arrows]
        super().__init__(vertices, self.arrow_list)
        self._store_arcs(self.arrow_list)

    def could_reach(self, u, v):
        """A path u -> v exists; an unknown vertex reaches only itself."""
        return u == v or bool(self._up.get(u, 0) & self._bit.get(v, 0))

    def path_count(self, u, v):
        return self._column(v).get(u, 0)

    def counts_into(self, v, frms):
        return list(map(self._column(v).get, frms, repeat(0)))

    def counts_from(self, u, tos):
        # the kept columns of tos, once they all are, without a call per cell
        columns = self.memo("columns")
        try:
            cols = list(map(columns.__getitem__, tos))
        except KeyError:
            cols = list(map(self._column, tos))
        return list(map(dict.get, cols, repeat(u), repeat(0)))

    def _column(self, v):
        """The kept column of v: {w: number of paths w -> v} over v's
        ancestors w.  When every in-neighbour x of v has its column kept, it
        is their sum, each times the arrows x -> v; otherwise each ancestor's
        count is the sum over its arrows, one pass over the ancestors alone
        in reverse Kahn order.  So only the columns asked for are built."""
        columns = self.memo("columns")
        col = columns.get(v)
        if col is None:
            col, ins = {v: 1}, self._in.get(v, ())
            if all(x in columns for x, _ in ins):
                for x, m in ins:
                    for w, n in columns[x].items():
                        col[w] = col.get(w, 0) + m * n
            else:
                for w in sorted(self._members(self._down[v] ^ self._bit[v]),
                                key=self._topo_index.__getitem__, reverse=True):
                    col[w] = sum(m * col.get(x, 0) for x, m in self._out[w])
            columns[v] = col
        return col


class FinitePoset(_FinitePresentation):
    """Finite poset given by relations; the order is their transitive closure.

    Redundant input relations are tolerated: covers are recomputed canonically
    from the closure, so the Hasse quiver does not depend on input phrasing.
    """

    kind = "poset"
    cycle_message = "cover {} {} violates strict order (cycle)"

    def __init__(self, elements, relations):
        super().__init__(elements, list(relations))
        covers = []
        for v, ws in self._succ.items():
            # x > v covers v unless it lies above some relation target w > v
            above = self._up[v] ^ self._bit[v]
            for w in ws:
                above &= ~(self._up[w] ^ self._bit[w])
            covers.extend((v, x) for x in self._members(above))
        self._store_arcs(covers)

    def leq(self, u, v):
        return bool(self._up[u] & self._bit.get(v, 0))

    def interval(self, u, v):
        if not self.leq(u, v):
            return []
        return self._members(self._up[u] & self._down[v])

    def local_downset(self, v):
        """[c, v] for the nearest cut point c < v, one comparable with every
        element below v, else the whole down-set.  For p < c the open
        interval (p, v) is a cone on c, so Mobius and every Ext vanish."""
        return self._cut(v, self._down, self._up)

    def local_upset(self, v):
        return self._cut(v, self._up, self._down)

    def _cut(self, v, toward, away):
        local, key = self.memo("local"), (v, toward is self._down)
        if key not in local:
            region = toward[v]
            cuts = [
                c for c in self._members(region ^ self._bit[v])
                if (toward[c] | away[c]) & region == region
            ]
            if cuts:
                # the cut points form a chain; the nearest has the largest `toward` set
                region &= away[max(cuts, key=lambda c: toward[c].bit_count())]
            local[key] = frozenset(self._members(region))
        return local[key]


class AInfinityQuiver(Presentation):
    """The linear quiver start -> start+1 -> start+2 -> ...: one-way
    infinite from `start` = 0, two-way infinite when `start` is None."""

    kind = "quiver"
    family = "a-infinity"
    cartan_finiteness = (True, False)
    linear = True
    start = 0

    def has_vertex(self, v):
        # exact ints only: True == 1 would name a vertex displayed as True
        return type(v) is int and (self.start is None or v >= self.start)

    def out_arcs(self, v):
        return [(v + 1, 1)]

    def in_arcs(self, v):
        return [(v - 1, 1)] if self.start is None or v > self.start else []

    def could_reach(self, u, v):
        return u <= v

    # could_reach's rule, inline: a call per cell makes the cartan and
    # coxeter windows of the path families 5-30 % slower
    def counts_into(self, v, frms):
        return [1 if u <= v else 0 for u in frms]

    def counts_from(self, u, tos):
        return [1 if u <= v else 0 for v in tos]

    def ancestors(self, v):
        return None if self.start is None else frozenset(range(self.start, v + 1))


class ZAInfinityQuiver(AInfinityQuiver):
    """The two-way infinite linear quiver ... -> -1 -> 0 -> 1 -> ..."""

    family = "z-a-infinity"
    cartan_finiteness = (False, False)
    start = None


class DInfinityQuiver(Presentation):
    """The infinite quiver with a fork: 1 -> -1, 1 -> 0, 1 -> 2 -> 3 -> ...

    Display order is (-1, 0, 1, 2, ...).
    """

    kind = "quiver"
    family = "d-infinity"
    cartan_finiteness = (True, False)

    def has_vertex(self, v):
        return type(v) is int and v >= -1

    def out_arcs(self, v):
        if v == 1:
            return [(-1, 1), (0, 1), (2, 1)]
        if v in (-1, 0):
            return []
        return [(v + 1, 1)]

    def in_arcs(self, v):
        if v in (-1, 0, 2):
            return [(1, 1)]
        if v == 1:
            return []
        return [(v - 1, 1)]

    def could_reach(self, u, v):
        return u == v or (u == 1 if v in (-1, 0) else 1 <= u <= v)

    # could_reach's rule, inline as on the linear chains
    def counts_into(self, v, frms):
        return [1 if u == v or (u == 1 if v in (-1, 0) else 1 <= u <= v) else 0 for u in frms]

    def counts_from(self, u, tos):
        return [1 if u == v or (u == 1 if v in (-1, 0) else 1 <= u <= v) else 0 for v in tos]

    def ancestors(self, v):
        if v in (-1, 0):
            return frozenset({v, 1})
        return frozenset(range(1, v + 1))

    def descendants(self, v):
        if v in (-1, 0):
            return frozenset({v})
        return None


class _Kept(dict):
    """The values of `f`, each computed on its first lookup and kept."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


_GARLAND_TOKEN = re.compile(r"j(-?\d+)|g(-?\d+)\.(\d+)([tb])")


class GarlandFamily(Presentation):
    """Garland blocks glued in a row at junction vertices, of the lengths
    `lengths` once (garland-seq) or repeated both ways when `periodic`
    (garland:L repeats L).

    Block m lies between junctions m and m+1: two parallel chains of
    lengths[m mod k] vertices, fully crossed level to level.  Vertex ids:
    ("j", m) for junctions, ("g", m, i, s) for interior level i (1-based) of
    block m, s = 0 top and s = 1 bottom.  Junction 0 lies on level 0 and each
    block's levels follow its lower junction's; a level's block is found by
    bisecting the junction levels.  Top and bottom of a level are the only
    incomparable pairs, so each junction cuts every long interval.  A glued
    row ends at its first and last junction and displays its blocks from 1.
    """

    kind = "poset"

    def __init__(self, lengths, periodic=False):
        self.lengths, self.periodic = tuple(lengths), periodic
        self.is_finite = not periodic
        self.cartan_finiteness = (not periodic,) * 2
        name = "garland" if periodic else "garland-seq"
        self.family = f"{name}:{','.join(map(str, self.lengths))}"
        self._shown = 0 if periodic else 1      # the number block 0 displays
        k = self._k = len(self.lengths)
        # the levels of junctions 0..k-1, and how many levels one period has
        junctions = [0, *accumulate(x + 1 for x in self.lengths[:-1])]
        span = self._span = sum(self.lengths) + k

        def level(v):
            q, r = divmod(v[1], k)
            return q * span + junctions[r] + (0 if v[0] == "j" else v[2])

        def at(n):
            # in display order: junction m when n is level 0 of block m, else
            # top and bottom of level i of block m
            if not (periodic or 0 <= n <= span):
                return ()
            q, rem = divmod(n, span)
            r = bisect_right(junctions, rem) - 1
            m, i = q * k + r, rem - junctions[r]
            return (("j", m),) if i == 0 else (("g", m, i, 0), ("g", m, i, 1))

        # the level of each vertex and the vertices on each level, kept as
        # they are asked for, since every order fact reads them; neither
        # function refers to self, so a query frees its presentation at once
        self._level = _Kept(level).__getitem__
        self._at = _Kept(at).__getitem__

    def has_vertex(self, v):
        # a well-formed id with exact ints (True == 1 and 1.0 == 1 would name
        # vertices _at never lists), listed on the level it names
        return (isinstance(v, tuple) and len(v) in (2, 4)
                and v[0] == ("j" if len(v) == 2 else "g")
                and all(type(x) is int for x in v[1:]) and v in self._at(self._level(v)))

    def _levels(self, lo, hi):
        """The vertices on levels lo..hi, in display order."""
        return [v for n in range(lo, hi + 1) for v in self._at(n)]

    def sort_key(self, v):
        return (self._level(v), 0 if v[0] == "j" else 1 + v[3])

    def display(self, v):
        if v[0] == "j":
            return f"j{v[1]}"
        _, m, i, s = v
        return f"g{m + self._shown}.{i}{'t' if s == 0 else 'b'}"

    def parse_token(self, tok):
        """The vertex that `tok` is the display of, verbatim."""
        m = _GARLAND_TOKEN.fullmatch(tok)
        if m:
            j, b, i, s = m.groups()
            v = ("j", int(j)) if j else ("g", int(b) - self._shown, int(i), "tb".index(s))
            if self.has_vertex(v) and self.display(v) == tok:
                return v
        raise UnknownVertex(f"unknown vertex {tok}")

    def vertices(self):
        return super().vertices() if self.periodic else self._levels(0, self._span)

    def out_arcs(self, v):
        return [(w, 1) for w in self._at(self._level(v) + 1)]

    def in_arcs(self, v):
        return [(w, 1) for w in self._at(self._level(v) - 1)]

    def leq(self, u, v):
        return u == v or self._level(u) < self._level(v)

    def counts_into(self, v, frms):
        lv = self._level(v)
        return [1 if u == v or self._level(u) < lv else 0 for u in frms]

    def counts_from(self, u, tos):
        lu = self._level(u)
        return [1 if u == v or lu < self._level(v) else 0 for v in tos]

    def ancestors(self, v):
        # on a glued row the levels below v's, down to its first junction
        return None if self.periodic else frozenset([*self._levels(0, self._level(v) - 1), v])

    def descendants(self, v):
        n = self._level(v)
        return None if self.periodic else frozenset([v, *self._levels(n + 1, self._span)])

    def interval(self, u, v):
        if u == v:
            return [u]
        lu, lv = self._level(u), self._level(v)
        return [u, *self._levels(lu + 1, lv - 1), v] if lu < lv else []

    def linear_extension(self, elements):
        # display order lists levels in order, and the order compares levels
        return sorted(elements, key=self.sort_key)

    def local_downset(self, v):
        # up from the nearest junction strictly below v
        lo = self._level(("j", v[1] - (v[0] == "j")))
        return frozenset([*self._levels(lo, self._level(v) - 1), v])

    def local_upset(self, v):
        # up to the nearest junction strictly above v
        return frozenset([v, *self._levels(self._level(v) + 1, self._level(("j", v[1] + 1)))])

    def orbit(self, v):
        """v's junction, or the top vertex of v's level, shifted by whole
        periods into blocks 0..k-1, and the move that shifts every block back
        by those periods and, when v is a bottom vertex, swaps top and bottom
        on every level.  A glued row is one period: only the swap moves it."""
        shift = v[1] - v[1] % self._k if self.periodic else 0
        flip = 0 if v[0] == "j" else v[3]
        if not shift and not flip:
            return v, None

        def move(p):
            if p[0] == "j":
                return ("j", p[1] + shift)
            return ("g", p[1] + shift, p[2], p[3] ^ flip)

        return (("j", v[1] - shift) if v[0] == "j" else ("g", v[1] - shift, v[2], 0)), move

    def _range_vertices(self, lo, hi):
        # an integer range means junctions lo..hi and every block between;
        # a glued row's windows name their vertices
        if hi < lo or not self.periodic:
            raise EmptyWindow(f"range {lo}..{hi} contains no vertices")
        return self._levels(self._level(("j", lo)), self._level(("j", hi)))


_FAMILIES = {
    "a-infinity": lambda arg: AInfinityQuiver(),
    "z-a-infinity": lambda arg: ZAInfinityQuiver(),
    "d-infinity": lambda arg: DInfinityQuiver(),
}


def make_family(name, arg=None):
    """Instantiate a built-in family from its name and optional parameter."""
    if name in _FAMILIES:
        return _FAMILIES[name](arg)
    if name == "garland":
        if arg is None:
            raise PresentationError("family garland needs a length")
        length = int(arg)
        if length < 1:
            raise PresentationError("garland length must be >= 1")
        return GarlandFamily([length], periodic=True)
    if name == "garland-seq":
        if not arg:
            raise PresentationError("family garland-seq needs a length list")
        if isinstance(arg, str):
            lengths = [int(x) for x in arg.split(",") if x.strip()]
        else:
            lengths = [int(x) for x in arg]
        if not lengths or any(x < 1 for x in lengths):
            raise PresentationError("garland-seq lengths must be positive")
        return GarlandFamily(lengths)
    raise PresentationError(f"unknown family {name!r}")


def parse_family_flag(text):
    """Parse CLI-style family strings like "a-infinity", "garland:2",
    "garland-seq:1,2"."""
    name, _, arg = text.partition(":")
    return make_family(name.strip(), arg.strip() or None)


def parse_presentation(text):
    """Parse the presentation file format (one directive per line, # comments)."""
    kind = None
    family = None
    family_arg = None
    vertices = []
    arrows = []
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive = parts[0].lower()
        try:
            if directive == "kind":
                if len(parts) != 2 or parts[1] not in ("quiver", "poset"):
                    raise PresentationError("expected 'kind quiver' or 'kind poset'")
                kind = parts[1]
            elif directive == "vertex":
                if len(parts) != 2:
                    raise PresentationError("expected 'vertex <id>'")
                vertices.append(_int_or_str(parts[1]))
            elif directive == "arrow":
                if len(parts) != 3:
                    raise PresentationError("expected 'arrow <src> <dst>'")
                arrows.append((_int_or_str(parts[1]), _int_or_str(parts[2])))
            elif directive == "cover":
                if len(parts) != 3:
                    raise PresentationError("expected 'cover <lo> <hi>'")
                covers.append((_int_or_str(parts[1]), _int_or_str(parts[2])))
            elif directive == "family":
                if len(parts) < 2:
                    raise PresentationError("expected 'family <name> [param]'")
                family = parts[1]
                family_arg = " ".join(parts[2:]) if len(parts) > 2 else None
            else:
                raise PresentationError(f"unknown directive {directive!r}")
        except PresentationError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
    if family is not None:
        # built-in families ignore vertex/arrow/cover lines
        if family == "garland-seq" and family_arg:
            family_arg = family_arg.replace(" ", "")
        return make_family(family, family_arg)
    if kind is None:
        raise PresentationError("missing 'kind' (or 'family') directive")
    if kind == "quiver":
        if covers:
            raise PresentationError("'cover' lines are not allowed in a quiver")
        return FiniteQuiver(vertices, arrows)
    if arrows:
        raise PresentationError("'arrow' lines are not allowed in a poset")
    return FinitePoset(vertices, covers)


def check_local_boundedness(pres, win):
    """Vertex-by-vertex finiteness of in/out arcs on a window.

    Built-in families are certified by construction; the witness table is
    still filled in so callers can inspect degrees.
    """
    witnesses = {}
    for v in win:
        ins = pres.in_arcs(v)
        outs = pres.out_arcs(v)
        witnesses[v] = (sum(m for _, m in ins), sum(m for _, m in outs))
    return {
        "certified": pres.family is not None or pres.is_finite,
        "witnesses": witnesses,
    }
