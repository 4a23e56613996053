"""Injective copresentations, the transpose, translates, meshes and knitting.

Everything here works for hereditary path presentations.  The pipeline for a
translate is the classical one: take a minimal injective copresentation
0 -> M -> E0 -> E1, flip it through the duality into the opposite-side
injectives (symbolically: reverse paths), and take the kernel there.  The
copresentation is two steps of the socle -> envelope -> cokernel engine of
module `comodules`, with its path-basis injectives, that also resolves simples
of incidence presentations.  Windows enter only when injectives are
materialised; kernels and cokernels are computed on the support of M enlarged
by a margin, and any activity on the window boundary raises
WindowInsufficient instead of silently truncating.

The formula dim tau N = Phi(dim N) needs Hom(C, DN) = 0, which
`certify_no_inj_hom` decides exactly at the socle: path coalgebras are
hereditary, so the image of a nonzero map from an injective into a finite M
is a finite injective, and it contains some E(k) with k a socle vertex of M.
Hom(C, M) = 0 thus holds exactly when no such E(k) embeds in M; each
candidate E(k) is materialised whole, on ancestors(k), never on a window.

Knitting builds a translation-quiver fragment mesh by mesh.  The translate's
dimension vector is obtained from mesh additivity (sum of the middle minus the
end) and is cross-checked against the Coxeter transformation at every step, so
an unsound seed section fails loudly rather than producing a wrong picture.
The check stays independent: Phi is applied to the end's own dimension vector,
never assembled from the Phi values of earlier meshes.  Nodes are indexed by
id, and a node enters a ready queue, ordered by creation, once its last
out-neighbour is meshed; the next mesh ends at the oldest ready node, so the
cost of a knitting is linear in its output.  A failed mesh at a seed injective
E(j) with a quiver arc leaving the seed section is reported as the edge of the
section rather than as a disagreement.
"""

from bisect import insort
from dataclasses import dataclass, field

from . import linalg
from .cartan import cartan_pair, path_count
from .comodules import (
    Comodule,
    FormalInjective,
    InjectiveMorphism,
    MaterializedInjective,
    arrows_from,
    cokernel,
    enumerate_paths,
    envelope,
    hom_basis,
    interval_comodule,
    materialized_kernel,
    zero_comodule,
)
from .coxeter import CoxeterOperator
from .errors import (
    HomCNotZero,
    HypothesisViolated,
    InfiniteDimensional,
    KnittingStuck,
    NotInKnittedRegion,
    PresentationError,
    WindowInsufficient,
)
from .lazymatrix import DimensionVector, LazyVector

def grow_window(pres, verts, steps):
    cur = set(verts)
    for _ in range(steps):
        nxt = set(cur)
        for v in cur:
            for w, _ in pres.out_arcs(v):
                nxt.add(w)
            for w, _ in pres.in_arcs(v):
                nxt.add(w)
        cur = nxt
    return sorted(cur, key=pres.sort_key)


@dataclass
class InjCopresentation:
    e0: FormalInjective
    e1: FormalInjective
    map: InjectiveMorphism        # symbolic E0 -> E1
    exact_at_e1: bool             # cokernel of E0 -> E1 vanished on the window


def min_inj_copresentation(module, margin=3):
    """Minimal injective copresentation 0 -> M -> E0 -> E1 of a finite
    comodule over a hereditary path presentation.

    E0 is the injective envelope of soc M, E1 the envelope of soc(E0/M); the
    connecting map is returned symbolically in the path basis.  Raises
    WindowInsufficient when a socle or cokernel touches the window boundary.
    """
    pres = module.pres
    if pres.kind != "quiver":
        raise PresentationError("copresentations need a path presentation")
    window = grow_window(pres, module.support, margin)
    wset = set(window)
    e0_formal, e0_mat, iota = envelope(module, window)
    quotient, projs = cokernel(e0_mat.comodule, iota, window)

    # socle of the cokernel; only trust vertices whose out-arrows stay inside
    socle = quotient.socle()
    for v in socle[0].support:
        if any(w not in wset for w, _ in pres.out_arcs(v)):
            raise WindowInsufficient(
                f"cokernel socle at boundary vertex {pres.display(v)}"
            )

    e1_formal, e1_mat, embed2 = envelope(quotient, window, socle)
    # concrete composite g = (Q -> E1) o (E0 -> Q)
    gmats = {}
    for v in window:
        gmats[v] = linalg.mat_mul(embed2[v], projs[v]) if len(projs[v]) else (
            linalg.zeros(len(embed2[v]), e0_mat.comodule.dim(v))
        )
    # exactness beyond E1 (hereditary: the cokernel of M -> E0 is injective,
    # so the envelope embedding must already be onto) checked numerically
    exact = True
    for v in window:
        if e1_mat.comodule.dim(v) and linalg.rank(embed2[v]) != e1_mat.comodule.dim(v):
            exact = False
    # extract the symbolic path coefficients of g
    blocks = {}
    for ti, a in enumerate(e1_formal.summands):
        if a not in e1_mat.offset:
            raise WindowInsufficient(f"socle vertex {pres.display(a)} outside window")
        row = e1_mat.offset[a][(ti, ())]
        for si, j in enumerate(e0_formal.summands):
            blk = {}
            for pi in enumerate_paths(pres, a, j):
                col = e0_mat.offset.get(a, {}).get((si, pi))
                if col is None:
                    continue
                coeff = gmats[a][row][col]
                if coeff != 0:
                    blk[pi] = coeff
            if blk:
                blocks[(ti, si)] = blk
    gmor = InjectiveMorphism(e0_formal, e1_formal, blocks)
    check = gmor.materialize(e0_mat, e1_mat)
    for v in window:
        if not linalg.mat_eq(check[v], gmats[v]):
            raise AssertionError("symbolic copresentation map disagrees with matrices")
    return InjCopresentation(e0_formal, e1_formal, gmor, exact)


def certify_no_inj_hom(module):
    """True when no injective maps nonzero into the finite comodule `module`
    over a path presentation (exact; see the module docstring).  Only the
    E(k), k in its socle, that fit inside it are tested: finite, with support
    ancestors(k) in supp M and dimensions at most those of M."""
    pres = module.pres
    socdim, _ = module.socle()
    for k in socdim.support:
        sup = pres.ancestors(k)
        if sup is None or not all(
            v in module.dims and path_count(pres, v, k) <= module.dim(v) for v in sup
        ):
            continue
        inj = MaterializedInjective(FormalInjective(pres, [(k, 1)]), sup)
        if hom_basis(inj.comodule, module):
            return False
    return True


_MARGINS = (3, 5, 9)


def transpose_tr(module, margin=None):
    """The transpose of a finite comodule: the kernel of the flipped minimal
    copresentation, over the opposite presentation.

    Returns (dimension vector as a LazyVector over the opposite presentation,
    kernel comodule).  The kernel is the definition and needs no hypotheses;
    the vector is dim of flipped E1 minus dim of flipped E0 when no injective
    maps into the module (else that would be wrong) and the kernel's dims
    otherwise.
    """
    _, lazy, kernel = _transpose(module, margin, certify_no_inj_hom(module))
    return lazy, kernel


def _transpose(module, margin, certified):
    """(copresentation, lazy dims, kernel) at the first margin that suffices."""
    last = None
    for m in (margin,) if margin is not None else _MARGINS:
        try:
            return _transpose_attempt(module, m, certified)
        except WindowInsufficient as exc:
            last = exc
    raise last


def _transpose_attempt(module, margin, certified):
    pres = module.pres
    copres = min_inj_copresentation(module, margin)
    op = pres.opposite()
    if copres.e1.is_zero():
        return copres, LazyVector(lambda v: 0, support=frozenset()), zero_comodule(op)
    nabla_g = copres.map.nabla()          # over op: nabla E1 -> nabla E0
    anchors = set(module.support)
    anchors.update(copres.e0.summands)
    anchors.update(copres.e1.summands)
    window = grow_window(op, sorted(anchors, key=op.sort_key), margin)
    src = MaterializedInjective(nabla_g.source, window)
    dst = MaterializedInjective(nabla_g.target, window)
    kernel = materialized_kernel(src.comodule, nabla_g.materialize(src, dst), window)
    wset = set(window)
    for v in kernel.support:
        if any(w not in wset for w, _ in [*op.out_arcs(v), *op.in_arcs(v)]):
            raise WindowInsufficient(
                f"transpose kernel reaches window boundary at {op.display(v)}"
            )
    if not certified:
        return copres, LazyVector(kernel.dim, support=frozenset(kernel.dims)), kernel

    def tr_dim(v):
        high = sum(path_count(pres, a, v) for a in copres.e1.summands)
        low = sum(path_count(pres, j, v) for j in copres.e0.summands)
        return high - low

    lazy = LazyVector(tr_dim)
    for v in kernel.support:
        if lazy.entry(v) != kernel.dim(v):
            raise AssertionError("transpose dimension bookkeeping mismatch")
    return copres, lazy, kernel


def tau(module, direction="tau-minus", margin=None):
    """Auslander-Reiten translate at comodule level (hereditary presentations).

    "tau-minus" of an injective and "tau" of a projective are zero; otherwise
    the result is an honest comodule over the same presentation.
    """
    d = direction.lower().replace("_", "-")
    if d == "tau-minus":
        _, kernel = transpose_tr(module, margin=margin)
        return kernel.dual()
    if d == "tau":
        dual = module.dual()
        _, kernel = transpose_tr(dual, margin=margin)
        return kernel
    raise ValueError("direction must be 'tau' or 'tau-minus'")


@dataclass
class MeshSequence:
    left: Comodule
    middle: list
    right: Comodule

    def additivity_holds(self):
        total = self.left.dim_vector() + self.right.dim_vector()
        mid = DimensionVector()
        for m in self.middle:
            mid = mid + m.dim_vector()
        return total == mid


def _interval_span(dim):
    """(lo, hi) when the dimension vector is 1 on the consecutive integers
    lo..hi and 0 elsewhere, else None."""
    supp = dim.support
    if not supp or any(not isinstance(v, int) for v in supp):
        return None
    supp = sorted(supp)
    lo, hi = supp[0], supp[-1]
    if supp != list(range(lo, hi + 1)) or any(dim[v] != 1 for v in supp):
        return None
    return lo, hi


def interval_bounds(module):
    """(lo, hi) when the comodule is a thin interval on consecutive integers
    with nonzero consecutive maps, else None."""
    bounds = _interval_span(module.dim_vector())
    if bounds is None:
        return None
    lo, hi = bounds
    for v in range(lo, hi):
        arrows = [a for a in arrows_from(module.pres, v) if a[1] == v + 1]
        if len(arrows) != 1 or module.arrow_map(arrows[0])[0][0] == 0:
            return None
    return lo, hi


def almost_split_mesh(module, direction="ending-at"):
    """The almost split sequence ending at (or starting from) an interval
    module over a linear family, with degenerate summands dropped."""
    pres = module.pres
    if not pres.linear:
        raise NotInKnittedRegion(
            "closed-form meshes exist for interval modules over linear "
            "families; knit the component instead"
        )
    bounds = interval_bounds(module)
    if bounds is None:
        raise NotInKnittedRegion("not an interval module")
    lo, hi = bounds
    d = direction.lower().replace("_", "-")

    def iv(a, b):
        if a > b or not pres.has_vertex(a):
            return None
        return interval_comodule(pres, a, b)

    if d == "ending-at":
        left = iv(lo + 1, hi + 1)
        mids = [iv(lo, hi + 1), iv(lo + 1, hi)]
        right = module
        if left is None:
            raise HypothesisViolated("interval is projective; no mesh ends at it")
    elif d == "starting-from":
        if not pres.has_vertex(lo - 1):
            raise HypothesisViolated("interval is injective; no mesh starts from it")
        left = module
        mids = [iv(lo - 1, hi), iv(lo, hi - 1)]
        right = iv(lo - 1, hi - 1)
    else:
        raise ValueError("direction must be 'ending-at' or 'starting-from'")
    mesh = MeshSequence(left, [m for m in mids if m is not None], right)
    assert mesh.additivity_holds()
    return mesh


# ---------------------------------------------------------------------------
# knitting


@dataclass
class KnitNode:
    node_id: str
    dim: DimensionVector
    label: str = None


@dataclass
class KnitFragment:
    presentation: object
    nodes: list = field(default_factory=list)
    arrows: list = field(default_factory=list)      # (src_id, dst_id, mult)
    tau_links: list = field(default_factory=list)   # (end_id, translate_id)
    meshes: list = field(default_factory=list)      # (end_id, [middle ids], translate_id)
    by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def add_node(self, dim, label):
        node = KnitNode(f"n{len(self.nodes)}", dim, label)
        self.nodes.append(node)
        self.by_id[node.node_id] = node
        return node.node_id

    def node(self, node_id):
        return self.by_id[node_id]

    def to_text(self):
        pres = self.presentation
        lines = []
        for n in self.nodes:
            lines.append(f"node {n.node_id} dim={n.dim.sparse_str(pres)}")
        for s, t, mult in self.arrows:
            for _ in range(mult):
                lines.append(f"arrow {s} {t}")
        for s, t in self.tau_links:
            lines.append(f"tau {s} {t}")
        return "\n".join(lines) + "\n"

    def to_dot(self):
        pres = self.presentation
        lines = ["digraph ar_fragment {", "  rankdir=RL;"]
        for n in self.nodes:
            dim = n.dim.sparse_str(pres)
            label = f"{n.label}\\n{dim}" if n.label else dim
            lines.append(f'  {n.node_id} [label="{label}"];')
        for s, t, mult in self.arrows:
            for _ in range(mult):
                lines.append(f"  {s} -> {t};")
        for s, t in self.tau_links:
            lines.append(f"  {s} -> {t} [style=dashed, dir=none];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def injective_section_seed(pres, window):
    """Seed nodes E(j) for j in the window, with the arrows induced by the
    quiver: an arrow k -> j induces an irreducible map E(j) -> E(k)."""
    nodes = []
    for j in window:
        sup = pres.ancestors(j)
        if sup is None:
            raise KnittingStuck(
                f"injective at {pres.display(j)} is infinite-dimensional; "
                "seed the knitting explicitly"
            )
        dim = DimensionVector({v: path_count(pres, v, j) for v in sup})
        nodes.append((f"E({pres.display(j)})", dim))
    arrows = []
    wset = {j: idx for idx, j in enumerate(window)}
    for j in window:
        for k, mult in pres.in_arcs(j):
            if k in wset:
                arrows.append((wset[j], wset[k], mult))
    return nodes, arrows


def interval_column_seed(pres, lo, hi_list):
    """Seed a linear-family knitting with the column of intervals
    [lo, m] for m in hi_list (consecutive, increasing)."""
    nodes = []
    for m in hi_list:
        dim = DimensionVector({v: 1 for v in range(lo, m + 1)})
        nodes.append((f"I[{lo},{m}]", dim))
    arrows = []
    for idx in range(len(hi_list) - 1):
        if hi_list[idx + 1] == hi_list[idx] + 1:
            arrows.append((idx + 1, idx, 1))
    return nodes, arrows


def _section_edge(pres, window):
    """{index in window: a quiver arc between that vertex and one outside}"""
    inside = set(window)
    edge = {}
    for idx, j in enumerate(window):
        arcs = [(j, w) for w, _ in pres.out_arcs(j)] + [(w, j) for w, _ in pres.in_arcs(j)]
        leaving = [arc for arc in arcs if not inside.issuperset(arc)]
        if leaving:
            edge[idx] = leaving[0]
    return edge


def knit_component(pres, seed, steps):
    """Knit `steps` meshes starting from a seed section.

    seed: either ("injectives", window) or ("explicit", nodes, arrows) with
    nodes a list of (label, DimensionVector) and arrows index pairs into it.
    A node is ready once every out-neighbour inside the fragment has been
    meshed, and the oldest ready node is meshed next; its translate gets the
    additivity value (middle minus end), which must agree with the Coxeter
    transformation coordinatewise or the knitting aborts.
    """
    if pres.kind != "quiver":
        raise PresentationError("knitting needs a path presentation")
    coxeter_op = CoxeterOperator(cartan_pair(pres))
    frag = KnitFragment(pres)
    in_of = {}
    pending = {}        # node id -> out-arrows to nodes not yet meshed
    order = {}          # node id -> creation index
    ready = []          # sorted (creation index, node id) of ready nodes

    def add_node(dim, label):
        nid = frag.add_node(dim, label)
        in_of[nid] = []
        pending[nid] = 0
        order[nid] = len(order)
        return nid

    def add_arrow(src, dst, mult=1):
        # dst is never meshed here: seed arrows come first, and a translate
        # points at the middle of a mesh whose end is not yet meshed
        frag.arrows.append((src, dst, mult))
        in_of[dst].append((src, mult))
        pending[src] += 1

    kind = seed[0]
    edge = {}           # seed index -> an arc leaving the seed section
    if kind == "injectives":
        nodes, arrows = injective_section_seed(pres, seed[1])
        edge = _section_edge(pres, seed[1])
    elif kind == "explicit":
        nodes, arrows = seed[1], seed[2]
    else:
        raise ValueError("seed must be ('injectives', window) or ('explicit', nodes, arrows)")
    ids = [add_node(dim, label) for label, dim in nodes]
    for s, t, mult in arrows:
        add_arrow(ids[s], ids[t], mult)
    for nid in ids:
        if not pending[nid]:
            insort(ready, (order[nid], nid))

    def stuck(nid, message):
        # seed nodes come first, so a seed index is a creation index
        if order[nid] in edge:
            a, b = edge[order[nid]]
            message = (
                f"mesh at {nid}: knitting reached the edge of its seed section "
                f"at {frag.node(nid).label}, whose arc {pres.display(a)} -> "
                f"{pres.display(b)} leaves it; widen --section"
            )
        return KnittingStuck(message)

    for _ in range(steps):
        if not ready:
            raise KnittingStuck("no node has all out-neighbours meshed")
        end = frag.node(ready.pop(0)[1])
        acc = {v: -c for v, c in end.dim.items()}
        mids = []
        for src, mult in in_of[end.node_id]:
            for v, c in frag.node(src).dim.items():
                acc[v] = acc.get(v, 0) + mult * c
            mids.extend([src] * mult)
        tdim = DimensionVector(acc)       # middle minus end
        if tdim.is_zero() or any(c < 0 for _, c in tdim.items()):
            raise stuck(
                end.node_id, f"mesh at {end.node_id} has no valid translate (projective end?)"
            )
        phi = coxeter_op.apply(end.dim, "forward")
        for v in grow_window(pres, tdim.support | end.dim.support, 1):
            if phi.entry(v) != tdim[v]:
                raise stuck(
                    end.node_id,
                    f"mesh at {end.node_id}: additivity and Coxeter disagree "
                    f"at {pres.display(v)} ({tdim[v]} vs {phi.entry(v)})",
                )
        span = _interval_span(tdim) if pres.linear else None
        tid = add_node(tdim, f"I[{span[0]},{span[1]}]" if span else None)
        for src, mult in in_of[end.node_id]:
            add_arrow(tid, src, mult)
        frag.tau_links.append((end.node_id, tid))
        frag.meshes.append((end.node_id, mids, tid))
        for src, _ in in_of[end.node_id]:
            pending[src] -= 1
            if not pending[src]:
                insort(ready, (order[src], src))
    return frag


# ---------------------------------------------------------------------------
# the translate / Coxeter comparison and the Nakayama dimension


def verify_translate_formula(module, coxeter_op=None):
    """Compare dim of the translate (comodule route) with the Coxeter image of
    dim N (matrix route), computed by independent code paths.

    Hypotheses are certified, never assumed: the dual module must admit no
    maps from injectives and its copresentation must stop after one step.
    Both sides are compared on their supports grown by two arrows.
    """
    pres = module.pres
    if pres.kind != "quiver":
        raise HypothesisViolated("comodule-level translate needs a path presentation")
    if coxeter_op is None:
        coxeter_op = CoxeterOperator(cartan_pair(pres))
    dual = module.dual()
    if not certify_no_inj_hom(dual):
        raise HomCNotZero("dual module receives an injective map")
    copres, _, translate = _transpose(dual, None, True)
    if copres.e1.is_zero():
        raise HypothesisViolated("module is projective; translate vanishes")
    if not copres.exact_at_e1:
        raise HypothesisViolated("injective dimension of the dual exceeds one")
    lhs = translate.dim_vector()
    rhs = coxeter_op.apply(module.dim_vector(), "forward")
    coords = set(lhs.support) | set(module.dim_vector().support)
    coords = grow_window(pres, sorted(coords, key=pres.sort_key), 2)
    holds = all(rhs.entry(v) == lhs[v] for v in coords)
    rhs_dim = DimensionVector({v: rhs.entry(v) for v in coords})
    return {"holds": holds, "lhs": lhs, "rhs": rhs_dim}


def nakayama_dim(formal):
    """Dimension vector of the Nakayama image of a formal injective: the sum
    of the opposite-side injective dimension vectors of its summands."""
    pres = formal.pres
    total = DimensionVector()
    for a in formal.summands:
        desc = pres.descendants(a)
        if desc is None:
            raise InfiniteDimensional(
                f"opposite injective at {pres.display(a)} is infinite-dimensional"
            )
        total = total + DimensionVector({v: path_count(pres, a, v) for v in desc})
    return total
