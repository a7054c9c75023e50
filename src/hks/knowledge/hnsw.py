"""Approximate nearest-neighbor search over sample hashes.

A layered navigable-small-world graph: every node lives at layer 0, a
geometrically thinning subset at higher layers. Search greedily descends the
layers, then runs a best-first scan with an ef-sized candidate pool at the
bottom. Each insert and each query first computes its squared distances to
every indexed node in one numpy pass; the best-first search then reads that
list, so a search step costs no numpy call. The i-th inserted vector is
node i, and queries return nodes: the federation inserts its samples' hashes
in cache-row order, so a node is a cache row.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

from ..errors import InvalidInputError, ShapeError

Array = np.ndarray
Predicate = Callable[[int], bool]


class HnswIndex:
    """Layered proximity graph with seeded level assignment.

    Degree is capped at m on upper layers and 2m at layer 0. Level draws
    follow the geometric distribution with factor 1/ln(m), consumed in
    insertion order, so a fixed insertion sequence rebuilds identically.
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 200,
        ef_search: int = 64,
        seed: int = 0,
    ):
        if m < 2:
            raise InvalidInputError("m must be >= 2")
        self.dim = dim
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self._level_factor = 1.0 / math.log(m)
        self._rng = np.random.default_rng([seed, 40991])
        self.levels: list[int] = []
        self.neighbors: list[list[list[int]]] = []  # node -> layer -> neighbor nodes
        self.entry_point: int | None = None
        self.top_level: int = -1
        self._vectors = np.empty((256, dim), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.levels)

    def _dist_sq(self, q: Array, nodes: Sequence[int] | slice) -> Array:
        diff = self._vectors[nodes] - q
        return np.einsum("ij,ij->i", diff, diff)

    def _hash_vector(self, h: Array) -> Array:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.dim,):
            raise ShapeError(f"hash vector must have shape ({self.dim},), got {h.shape}")
        if not np.isfinite(h).all():
            raise InvalidInputError("hash vector must be finite")
        return h

    def _draw_level(self) -> int:
        u = self._rng.random()
        while u == 0.0:
            u = self._rng.random()
        return int(-math.log(u) * self._level_factor)

    def _search_layer(
        self, dist: list[float], entries: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        """Best-first search over the query's squared distances to every node
        (`dist[node]`); returns up to ef (distance^2, node) ascending."""
        visited = set(entries)
        candidates = [(dist[n], n) for n in entries]
        heapq.heapify(candidates)
        pool = [(-d, n) for d, n in candidates]
        heapq.heapify(pool)
        while candidates:
            d, node = heapq.heappop(candidates)
            if len(pool) >= ef and d > -pool[0][0]:
                break
            layer_nbrs = self.neighbors[node]
            if layer >= len(layer_nbrs):
                continue
            for nn in layer_nbrs[layer]:
                if nn in visited:
                    continue
                visited.add(nn)
                dn = dist[nn]
                if len(pool) < ef:
                    heapq.heappush(candidates, (dn, nn))
                    heapq.heappush(pool, (-dn, nn))
                elif dn < -pool[0][0]:
                    heapq.heappush(candidates, (dn, nn))
                    heapq.heappushpop(pool, (-dn, nn))
        return sorted((-negd, n) for negd, n in pool)

    def _select_neighbors(self, candidates: list[tuple[float, int]], m: int) -> list[int]:
        """Diversity-aware selection: keep candidates closer to the query than
        to anything already kept, then fill from the rejects.

        Only the nearest 3m candidates enter the heuristic scan (with their
        pairwise distances computed in one shot); the rest can only serve as
        ascending-distance fill.
        """
        if len(candidates) <= m:
            return [n for _, n in candidates]
        scan = min(len(candidates), 3 * m)
        nodes = [n for _, n in candidates[:scan]]
        V = self._vectors[nodes]
        sq = np.einsum("ij,ij->i", V, V)
        between = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (V @ V.T), 0.0)
        selected = [0]
        rejected: list[int] = []
        # closest[i]: candidate i's distance^2 to its nearest kept candidate
        closest = between[:, 0]
        for idx in range(1, scan):
            if len(selected) == m:
                break
            if candidates[idx][0] < closest[idx]:
                selected.append(idx)
                closest = np.minimum(closest, between[:, idx])
            else:
                rejected.append(idx)
        order = selected + rejected + list(range(scan, len(candidates)))
        return [candidates[i][1] for i in order[:m]]

    def insert(self, h: Array) -> None:
        """Index h as node len(self)."""
        h = self._hash_vector(h)
        node = len(self.levels)
        if node == self._vectors.shape[0]:
            grown = np.empty((2 * self._vectors.shape[0], self.dim), dtype=np.float64)
            grown[:node] = self._vectors
            self._vectors = grown
        self._vectors[node] = h
        level = self._draw_level()
        self.levels.append(level)
        self.neighbors.append([[] for _ in range(level + 1)])

        if self.entry_point is None:
            self.entry_point = node
            self.top_level = level
            return

        # the new node is linked at a layer only after that layer's search,
        # so no search reaches it
        dist_sq = self._dist_sq(h, slice(0, node)).tolist()
        entries = [self.entry_point]
        for layer in range(self.top_level, level, -1):
            found = self._search_layer(dist_sq, entries, layer, 1)
            entries = [found[0][1]]
        for layer in range(min(level, self.top_level), -1, -1):
            candidates = self._search_layer(dist_sq, entries, layer, self.ef_construction)
            cap = self.m0 if layer == 0 else self.m
            chosen = self._select_neighbors(candidates, self.m)
            for nb in chosen:
                self.neighbors[node][layer].append(nb)
                self.neighbors[nb][layer].append(node)
                if len(self.neighbors[nb][layer]) > cap:
                    # overflow prune keeps the cap nearest links
                    others = self.neighbors[nb][layer]
                    order = np.lexsort((others, self._dist_sq(self._vectors[nb], others)))
                    self.neighbors[nb][layer] = [others[i] for i in order[:cap]]
            entries = [n for _, n in candidates]
        if level > self.top_level:
            self.entry_point = node
            self.top_level = level

    def query(self, h: Array, k: int, predicate: Predicate | None = None) -> list[int]:
        """Up to k nodes passing the filter, by ascending (distance, node);
        the filter is asked about every node of the search pool, in that
        order."""
        h = self._hash_vector(h)
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        if self.entry_point is None:
            return []
        dist_sq = self._dist_sq(h, slice(0, len(self.levels))).tolist()
        entries = [self.entry_point]
        for layer in range(self.top_level, 0, -1):
            found = self._search_layer(dist_sq, entries, layer, 1)
            entries = [found[0][1]]
        pool = self._search_layer(dist_sq, entries, 0, max(self.ef_search, k))
        return [node for _, node in pool if predicate is None or predicate(node)][:k]
