"""Seeded random generation of candidate paths for testing."""

from __future__ import annotations

import random
from fractions import Fraction

from cspaces.model import (PAUSE, CanonicalPath, ModelError, ProdSeg, PTuple,
                           Seg, assemble)
from cspaces.presentation import (GraphPresentation, ProductN, cuts,
                                  point_positions, pos_point)


def _edge_values(pres: GraphPresentation, edge: str, grid: int) -> list:
    vals = set(cuts(pres, edge))
    vals.update(Fraction(i, grid) for i in range(grid + 1))
    return sorted(vals)


def random_graph_path(pres: GraphPresentation, rng: random.Random,
                      max_atoms: int = 3, grid: int = 8) -> CanonicalPath:
    """A random geometrically-valid canonical path of a graph presentation."""
    start = cur = _random_point(pres, rng, grid)
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if rng.random() < 0.2:
            atoms.append(PAUSE)
            continue
        step = _step_from(pres, cur, rng, grid)
        if step is None:
            break
        atoms.append(step[0])
        cur = step[1]
    return assemble(start, atoms, cur)


def _random_point(norm, rng: random.Random, grid: int):
    if isinstance(norm, ProductN):
        return PTuple((_random_point(norm.left, rng, grid),
                       _random_point(norm.right, rng, grid)))
    e = rng.choice(list(norm.edges))
    return pos_point(norm, e.id, rng.choice(_edge_values(norm, e.id, grid)))


def random_product_path(norm, rng: random.Random, max_atoms: int = 3,
                        grid: int = 8) -> CanonicalPath:
    """A random canonical path of a binary product of normal forms."""
    if not isinstance(norm, ProductN):
        raise ModelError("not a product")
    start = cur = _random_point(norm, rng, grid)
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        kind = rng.random()
        if kind < 0.15:
            atoms.append(PAUSE)
            continue
        step = _step_from(norm, cur, rng, grid, kind)
        if step is not None:
            atoms.append(step[0])
            cur = step[1]
    return assemble(start, atoms, cur)


def _step_from(norm, p, rng, grid, kind=None):
    """A random motion from p and the point where it ends, or None: a Seg
    on a graph, a ProdSeg on a product, where `kind` (drawn when None)
    picks which coordinates move."""
    if isinstance(norm, ProductN):
        kind = rng.uniform(0.15, 1) if kind is None else kind
        s1 = (_step_from(norm.left, p.parts[0], rng, grid)
              if kind < 0.85 else None)
        s2 = (_step_from(norm.right, p.parts[1], rng, grid)
              if kind > 0.45 else None)
        if s1 is None and s2 is None:
            return None
        moves = [(q, q) if s is None else s for q, s in zip(p.parts, (s1, s2))]
        return (ProdSeg(tuple(m for m, _ in moves)),
                PTuple(tuple(q for _, q in moves)))
    spots = point_positions(norm, p)
    if not spots:
        return None
    edge, t = rng.choice(spots)
    vals = [v for v in _edge_values(norm, edge, grid) if v != t]
    if not vals:
        return None
    t2 = rng.choice(vals)
    return Seg(edge, t, t2), pos_point(norm, edge, t2)
