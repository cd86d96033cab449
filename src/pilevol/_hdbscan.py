"""Hierarchical density-based clustering over mutual reachability distances.

The chain is the standard one: per-point core distances (distance to the
k-th nearest other point), mutual reachability distance
max(core(a), core(b), d(a, b)), an exact minimum spanning tree of the
mutual-reachability graph, a single-linkage merge hierarchy, a condensed
tree with a minimum cluster size, and excess-of-mass cluster selection.
Points under no selected cluster are noise.

The MST comes from a Boruvka variant that works from cached k-nearest
neighbor lists with per-point exactness bounds, expanding the search only
for points whose bound says a better foreign edge could exist outside the
cache.  Equal-weight ties are broken toward lower point indices so results
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateCloud, EmptyCloud, check_number

KNN_CACHE_SIZE = 16
NOISE = -1


@dataclass(frozen=True)
class HdbscanParams:
    min_cluster_size: int = 50
    min_samples: int = 10

    def __post_init__(self):
        check_number("min_cluster_size", self.min_cluster_size, 2, integer=True,
                     lo_open=False)
        check_number("min_samples", self.min_samples, 1, integer=True, lo_open=False)


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point labels: cluster id >= 0 or NOISE (-1); ids are contiguous."""

    labels: np.ndarray = field(repr=False)
    cluster_count: int = 0

    def cluster_sizes(self) -> np.ndarray:
        if self.cluster_count == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels[self.labels >= 0],
                           minlength=self.cluster_count)


def core_distances(xyz: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to the min_samples-th nearest *other* point.

    Clouds with fewer than min_samples other points use the farthest
    available neighbor; a single point has core distance 0.
    """
    n = len(xyz)
    if n == 1:
        return np.zeros(1)
    k_other = min(min_samples, n - 1)
    dist, _ = _strip_self(*cKDTree(xyz).query(xyz, k=k_other + 1))
    return np.ascontiguousarray(dist[:, k_other - 1])


def _strip_self(dist: np.ndarray, idx: np.ndarray,
                rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Remove each row's own point from a kNN query result.

    ``rows`` names the queried points when the query was made on a subset.
    """
    m, k = idx.shape
    if rows is None:
        rows = np.arange(m)
    self_mask = idx == rows[:, None]
    # coincident duplicates can push the self entry out of the list; then
    # drop the last entry instead so row widths stay equal
    drop = np.where(self_mask.any(axis=1), self_mask.argmax(axis=1), k - 1)
    keep = np.ones((m, k), dtype=bool)
    keep[np.arange(m), drop] = False
    return dist[keep].reshape(m, k - 1), idx[keep].reshape(m, k - 1)


# ---------------------------------------------------------------------------
# Minimum spanning tree of the mutual reachability graph
# ---------------------------------------------------------------------------

def _components(parent: np.ndarray) -> np.ndarray:
    """Resolve a union-find parent array to root labels by pointer jumping."""
    roots = parent.copy()
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x with path halving."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# neighbor counts of the capped doubling re-queries, in the order tried
DOUBLING_LEVELS = (2 * KNN_CACHE_SIZE, 4 * KNN_CACHE_SIZE, 8 * KNN_CACHE_SIZE)


def mutual_reachability_mst(xyz: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Exact MST as an (n-1, 3) array of (i, j, weight) rows, from a
    Boruvka pass driven by cached kNN candidate lists.

    Per round, every point proposes its cheapest foreign (other-component)
    neighbor from the cache.  A proposal set is trusted once every member's
    examined ring certifies it: any uncached point lies beyond the ring, so
    its edges weigh at least max(core, ring).  Points still uncertified
    re-query with a doubling neighbor count (cheap when foreign points are
    near), and components that would need huge neighborhoods -- separated
    islands, where the cache is blind -- get an exact complement-tree pass.
    """
    n = len(xyz)
    if n < 2:
        return np.zeros((0, 3))
    tree = cKDTree(xyz)
    dist, idx = _strip_self(*tree.query(xyz, k=min(KNN_CACHE_SIZE + 1, n)))
    mr = np.maximum(np.maximum(dist, core[:, None]), core[idx])

    # order each candidate row by (mutual reachability, neighbor index):
    # a stable sort by index, then a stable sort by weight
    by_idx = np.argsort(idx, axis=1, kind="stable")
    mr_sorted = np.take_along_axis(mr, by_idx, axis=1)
    idx_sorted = np.take_along_axis(idx, by_idx, axis=1)
    by_mr = np.argsort(mr_sorted, axis=1, kind="stable")
    mr_sorted = np.take_along_axis(mr_sorted, by_mr, axis=1)
    idx_sorted = np.take_along_axis(idx_sorted, by_mr, axis=1)
    del by_idx, by_mr, mr

    cache_ring = dist[:, -1]

    parent = list(range(n))
    edges: list[tuple[int, int, float]] = []
    while True:
        comp = _components(np.array(parent))
        uniq, comp_ids = np.unique(comp, return_inverse=True)
        if len(uniq) == 1:
            break
        foreign = comp_ids[idx_sorted] != comp_ids[:, None]
        has_cand = foreign.any(axis=1)
        first = foreign.argmax(axis=1)
        cand_w = np.where(has_cand, mr_sorted[np.arange(n), first], np.inf)
        cand_j = np.where(has_cand, idx_sorted[np.arange(n), first], -1)

        comp_min = np.full(len(uniq), np.inf)
        np.minimum.at(comp_min, comp_ids, cand_w)

        # every uncached point sits beyond the examined ring, so its edges
        # weigh at least max(core, ring); a point is settled once that bound
        # reaches its component minimum.  Unsettled points re-query with a
        # capped doubling neighbor count (cheap when foreign points are
        # near); components still unsettled at the cap are separated
        # islands and get an exact complement-tree pass
        open_mask = np.maximum(core, cache_ring) < comp_min[comp_ids]
        if open_mask.any():
            leftover = _resolve_doubling(xyz, core, tree, comp_ids,
                                         np.flatnonzero(open_mask),
                                         cand_w, cand_j, comp_min)
            for c in np.unique(comp_ids[leftover]):
                _resolve_complement(xyz, core, tree, comp_ids, int(c),
                                    cand_w, cand_j, comp_min)

        # pick each component's minimum proposal deterministically
        valid = np.isfinite(cand_w)
        vi = np.flatnonzero(valid)
        lo = np.minimum(vi, cand_j[vi])
        hi = np.maximum(vi, cand_j[vi])
        sel = np.lexsort((hi, lo, cand_w[vi], comp_ids[vi]))
        comps_sorted = comp_ids[vi][sel]
        firsts = np.unique(comps_sorted, return_index=True)[1]
        chosen = vi[sel[firsts]]

        merge_order = np.lexsort((
            np.maximum(chosen, cand_j[chosen]),
            np.minimum(chosen, cand_j[chosen]),
            cand_w[chosen],
        ))
        picks = chosen[merge_order]
        merged_any = False
        for p, q, w in zip(picks.tolist(), cand_j[picks].tolist(),
                           cand_w[picks].tolist()):
            rp, rq = _find(parent, p), _find(parent, q)
            if rp == rq:
                continue
            parent[max(rp, rq)] = min(rp, rq)
            edges.append((p, q, w))
            merged_any = True
        if not merged_any:
            raise DegenerateCloud(
                "Boruvka made no progress; the mutual-reachability graph is "
                "inconsistent (non-finite core distances?)")

    out = np.array(edges, dtype=np.float64).reshape(-1, 3)
    return out


def _resolve_complement(xyz, core, tree, comp_ids, c,
                        cand_w, cand_j, comp_min) -> None:
    """Exact outgoing minimum for one blocked component.

    A KD-tree over the component's complement gives every member its exact
    Euclidean nearest foreign point in one query: a real candidate edge and
    the lower bound max(core, nearest-foreign-distance).  Only members whose
    bound undercuts the component minimum need the per-point refinement;
    for a separated island that prunes the entire interior at once.
    """
    members = np.flatnonzero(comp_ids == c)
    others = np.flatnonzero(comp_ids != c)
    sub_tree = cKDTree(xyz[others])
    d, local = sub_tree.query(xyz[members], k=1)
    g = others[local]
    w = np.maximum(np.maximum(d, core[members]), core[g])
    take = (w < cand_w[members]) | ((w == cand_w[members]) & (g < cand_j[members]))
    cand_w[members[take]] = w[take]
    cand_j[members[take]] = g[take]
    comp_min[c] = min(comp_min[c], float(w.min()))

    lower = np.maximum(core[members], d)
    refine = np.flatnonzero(lower < comp_min[c])
    for li in refine[np.argsort(lower[refine], kind="stable")]:
        if lower[li] >= comp_min[c]:
            continue
        _refine_point(xyz, core, tree, comp_ids, int(members[li]),
                      cand_w, cand_j, comp_min)


def _refine_point(xyz, core, tree, comp_ids, a, cand_w, cand_j, comp_min) -> None:
    """Exact cheapest outgoing edge for one point by expanding kNN rings.

    The scan stops once the ring radius reaches the best weight seen, since
    any farther foreign point has mutual reachability at least its distance.
    """
    n = len(xyz)
    c = comp_ids[a]
    k = 16
    while True:
        k_eff = min(k + 1, n)
        d, ii = tree.query(xyz[a], k=k_eff)
        keep = ii != a
        d, ii = d[keep], ii[keep]
        mask = comp_ids[ii] != c
        if mask.any():
            w = np.maximum(np.maximum(d[mask], core[a]), core[ii[mask]])
            jj = ii[mask]
            best = w.min()
            jbest = int(jj[w == best].min())
            if (best < cand_w[a]) or (best == cand_w[a] and jbest < cand_j[a]):
                cand_w[a] = best
                cand_j[a] = jbest
                if best < comp_min[c]:
                    comp_min[c] = best
        ring = d[-1] if len(d) else np.inf
        if k_eff >= n or ring >= min(cand_w[a], comp_min[c]):
            return
        k *= 2


def _resolve_doubling(xyz, core, tree, comp_ids, open_pts,
                      cand_w, cand_j, comp_min) -> np.ndarray:
    """Batched k-doubling re-queries for points with uncertain candidates.

    A point settles once its examined ring reaches its component minimum,
    which happens at small k when foreign points are close (adjacent
    components).  Points that would need huge neighborhoods (separated
    islands) are returned after the last level for the complement-tree
    resolver.  All open points step through the levels together, so each
    level sees the component minima the earlier levels left.
    """
    n = len(xyz)
    for k2 in DOUBLING_LEVELS:
        if not open_pts.size:
            break
        k_eff = min(k2 + 1, n)
        d_o, i_o = tree.query(xyz[open_pts], k=k_eff)
        d_o, i_o = _strip_self(d_o, i_o, open_pts)
        mr_o = np.maximum(np.maximum(d_o, core[open_pts, None]), core[i_o])
        for_o = comp_ids[i_o] != comp_ids[open_pts, None]
        mr_masked = np.where(for_o, mr_o, np.inf)
        wmin = mr_masked.min(axis=1)
        tie = mr_masked == wmin[:, None]
        jbest = np.where(tie, i_o, n + 1).min(axis=1)
        better = wmin < cand_w[open_pts]
        upd = open_pts[better]
        cand_w[upd] = wmin[better]
        cand_j[upd] = jbest[better]
        np.minimum.at(comp_min, comp_ids[upd], wmin[better])
        if k_eff >= n:
            return open_pts[:0]     # every point examined; candidates exact
        still = np.maximum(core[open_pts], d_o[:, -1]) < comp_min[comp_ids[open_pts]]
        open_pts = open_pts[still]
    return open_pts


# ---------------------------------------------------------------------------
# Single-linkage hierarchy and condensed tree
# ---------------------------------------------------------------------------

def single_linkage(mst_edges: np.ndarray, n: int):
    """Merge hierarchy from MST edges sorted by (weight, i, j).

    Returns (left, right, height, size) arrays for the n-1 internal nodes;
    node ids n..2n-2 in merge order, leaves are point ids 0..n-1.
    """
    order = np.lexsort((mst_edges[:, 1], mst_edges[:, 0], mst_edges[:, 2]))
    edges = mst_edges[order]
    total = 2 * n - 1
    # a node is its own root until a merge hangs it under the new node
    uf_parent = list(range(total))
    node_size = [1] * total
    left: list[int] = []
    right: list[int] = []
    nxt = n
    for a, b in edges[:, :2].astype(np.int64).tolist():
        ra, rb = _find(uf_parent, a), _find(uf_parent, b)
        uf_parent[ra] = uf_parent[rb] = nxt
        left.append(ra)
        right.append(rb)
        node_size[nxt] = node_size[ra] + node_size[rb]
        nxt += 1
    return (np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
            np.ascontiguousarray(edges[:, 2]), np.array(node_size, dtype=np.int64))


def condense_tree(left, right, height, node_size, n: int, min_cluster_size: int):
    """Collapse the merge hierarchy into clusters of >= min_cluster_size.

    Returns (parents, children, lambdas, sizes) arrays.  Children < n are
    points leaving their parent cluster at the given lambda = 1/distance;
    children >= n are new condensed clusters born at a genuine split.
    Cluster ids start at n (the root).
    """
    root = 2 * n - 2
    left, right, height, node_size = (
        a.tolist() for a in (left, right, height, node_size))
    parents: list[int] = []
    children: list[int] = []
    lambdas: list[float] = []
    sizes: list[int] = []

    def leaves_under(node: int) -> list[int]:
        out = []
        stack = [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.append(left[v - n])
                stack.append(right[v - n])
        return out

    def emit_points(cluster: int, node: int, lam: float):
        for p in leaves_under(node):
            parents.append(cluster)
            children.append(p)
            lambdas.append(lam)
            sizes.append(1)

    next_cluster = n + 1
    stack = [(root, n)]
    while stack:
        node, cluster = stack.pop()
        lo, hi = left[node - n], right[node - n]
        d = height[node - n]
        lam = 1.0 / d if d > 0 else np.inf
        lo_big = node_size[lo] >= min_cluster_size
        hi_big = node_size[hi] >= min_cluster_size
        if lo_big and hi_big:
            for child in (lo, hi):
                parents.append(cluster)
                children.append(next_cluster)
                lambdas.append(lam)
                sizes.append(node_size[child])
                stack.append((child, next_cluster))
                next_cluster += 1
        elif lo_big or hi_big:
            big, small = (lo, hi) if lo_big else (hi, lo)
            emit_points(cluster, small, lam)
            if big < n:
                emit_points(cluster, big, lam)
            else:
                stack.append((big, cluster))
        else:
            emit_points(cluster, lo, lam)
            emit_points(cluster, hi, lam)

    return (np.asarray(parents, dtype=np.int64),
            np.asarray(children, dtype=np.int64),
            np.asarray(lambdas, dtype=np.float64),
            np.asarray(sizes, dtype=np.int64))


def cluster_stability(parents, children, lambdas, sizes, n: int) -> dict[int, float]:
    """Excess-of-mass stability: sum over rows of (lambda - birth) * size.

    Cluster ids are contiguous from the root n.  np.bincount adds the
    contributions in row order, so each sum is the sequential one.
    """
    is_cluster = children >= n
    birth = np.zeros(1 + int(is_cluster.sum()))      # the root is born at 0
    birth[children[is_cluster] - n] = lambdas[is_cluster]
    with np.errstate(invalid="ignore"):              # inf - inf at d == 0
        contrib = (lambdas - birth[parents - n]) * sizes
    contrib[np.isnan(contrib)] = 0.0
    stability = np.bincount(parents - n, weights=contrib, minlength=len(birth))
    return dict(enumerate(stability.tolist(), start=n))


def select_eom(parents, children, n: int,
               stability: dict[int, float]) -> set[int]:
    """Excess-of-mass selection; the root is eligible, so a lone dense blob
    comes back as one cluster rather than all noise."""
    is_cluster = children >= n
    children_of: dict[int, list[int]] = {}
    for par, ch in zip(parents[is_cluster].tolist(), children[is_cluster].tolist()):
        children_of.setdefault(par, []).append(ch)
    stab = dict(stability)
    selected: dict[int, bool] = {}
    for c in sorted(stab, reverse=True):
        kids = children_of.get(c, [])
        subtree = sum(stab[k] for k in kids)
        if kids and subtree > stab[c]:
            selected[c] = False
            stab[c] = subtree
        else:
            selected[c] = True
            walk = list(kids)
            while walk:
                k = walk.pop()
                selected[k] = False
                walk.extend(children_of.get(k, []))
    return {c for c, sel in selected.items() if sel}


def label_points(parents, children, n: int, selected: set[int]) -> ClusterLabels:
    """Assign each point to its nearest selected ancestor cluster, or noise.

    External ids are contiguous and ordered by each cluster's first member
    point index, making labels covariant under input permutation.
    """
    is_point = children < n
    home = np.full(n, -1, dtype=np.int64)
    home[children[is_point]] = parents[is_point]
    # condense_tree numbers every cluster above its parent, so one upward
    # pass resolves each cluster to its nearest selected ancestor (or -1)
    parent_of = np.full(int(parents.max(initial=n - 1)) + 1 - n, -1, dtype=np.int64)
    parent_of[children[~is_point] - n] = parents[~is_point]
    resolved: list[int] = []
    for c, par in enumerate(parent_of.tolist(), start=n):
        resolved.append(c if c in selected else resolved[par - n] if par >= 0 else -1)
    raw = np.full(n, -1, dtype=np.int64)
    has_home = home >= 0
    raw[has_home] = np.asarray(resolved, dtype=np.int64)[home[has_home] - n]
    clustered = raw >= 0
    ids, first_member, id_ix = np.unique(raw[clustered], return_index=True,
                                         return_inverse=True)
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[clustered] = np.argsort(np.argsort(first_member))[id_ix]
    return ClusterLabels(labels=labels, cluster_count=len(ids))


def run_hdbscan(xyz: np.ndarray, params: HdbscanParams) -> ClusterLabels:
    """Full chain on an (N, 3) coordinate array."""
    n = len(xyz)
    if n == 0:
        raise EmptyCloud("hdbscan requires at least one point")
    if n < params.min_cluster_size:
        return ClusterLabels(labels=np.full(n, NOISE, dtype=np.int64),
                             cluster_count=0)
    core = core_distances(xyz, params.min_samples)
    mst = mutual_reachability_mst(xyz, core)
    left, right, height, node_size = single_linkage(mst, n)
    parents, children, lambdas, sizes = condense_tree(
        left, right, height, node_size, n, params.min_cluster_size
    )
    stability = cluster_stability(parents, children, lambdas, sizes, n)
    selected = select_eom(parents, children, n, stability)
    return label_points(parents, children, n, selected)
