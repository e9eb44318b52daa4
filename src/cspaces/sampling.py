"""Seeded random generation of candidate paths for testing."""

from __future__ import annotations

import random
from fractions import Fraction

from .model import (PAUSE, CanonicalPath, ModelError, ProdSeg, PTuple, Seg,
                    assemble)
from .presentation import (GraphPresentation, ProductN, cuts, point_positions,
                           pos_point)


def _edge_values(pres: GraphPresentation, edge: str, grid: int) -> list:
    vals = set(cuts(pres, edge))
    vals.update(Fraction(i, grid) for i in range(grid + 1))
    return sorted(vals)


def random_graph_path(pres: GraphPresentation, rng: random.Random,
                      max_atoms: int = 3, grid: int = 8) -> CanonicalPath:
    """A random geometrically-valid canonical path of a graph presentation."""
    edges = list(pres.edges)
    e0 = rng.choice(edges)
    vals0 = _edge_values(pres, e0.id, grid)
    start = pos_point(pres, e0.id, rng.choice(vals0))
    atoms = []
    cur = start
    n = rng.randint(0, max_atoms)
    for _ in range(n):
        if rng.random() < 0.2:
            atoms.append(PAUSE)
            continue
        spots = point_positions(pres, cur)
        if not spots:
            break
        edge, t = rng.choice(spots)
        vals = [v for v in _edge_values(pres, edge, grid) if v != t]
        if not vals:
            break
        t2 = rng.choice(vals)
        atoms.append(Seg(edge, t, t2))
        cur = pos_point(pres, edge, t2)
    return assemble(start, atoms, cur)


def _random_point(pres: GraphPresentation, rng: random.Random, grid: int):
    e = rng.choice(list(pres.edges))
    return pos_point(pres, e.id, rng.choice(_edge_values(pres, e.id, grid)))


def random_product_path(norm, rng: random.Random, max_atoms: int = 3,
                        grid: int = 8) -> CanonicalPath:
    """A random canonical path of a binary product of graph presentations."""
    if not isinstance(norm, ProductN):
        raise ModelError("not a product")
    left, right = norm.left, norm.right
    p1 = _random_point(left, rng, grid)
    p2 = _random_point(right, rng, grid)
    start = PTuple((p1, p2))
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        kind = rng.random()
        if kind < 0.15:
            atoms.append(PAUSE)
            continue
        s1 = _step_from(left, p1, rng, grid) if kind < 0.85 else None
        s2 = _step_from(right, p2, rng, grid) if kind > 0.45 else None
        if s1 is None and s2 is None:
            continue
        part1 = s1 if s1 is not None else p1
        part2 = s2 if s2 is not None else p2
        atoms.append(ProdSeg((part1, part2)))
        if s1 is not None:
            p1 = pos_point(left, s1.edge, s1.b)
        if s2 is not None:
            p2 = pos_point(right, s2.edge, s2.b)
    return assemble(start, atoms, PTuple((p1, p2)))


def _step_from(pres, p, rng, grid):
    spots = point_positions(pres, p)
    if not spots:
        return None
    edge, t = rng.choice(spots)
    vals = [v for v in _edge_values(pres, edge, grid) if v != t]
    if not vals:
        return None
    return Seg(edge, t, rng.choice(vals))
