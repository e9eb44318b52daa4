"""Seeded random graph presentations that reach every field the library
accepts, for the checks the corpus is too small for.

``random_space(rng)`` draws:
- 1–3 vertices and 1–3 edges between them, loops allowed;
- per edge, a named kind, ``n_stop(1..3)``, or a custom family of 0–2
  fragments (direction -1, 0 or 1, ends on quarters, open ends, forbidden
  starts and ends) and 0–2 rigid traces of 1–2 steps with dwell marks;
- at most one presentation generator, over one or two edges;
- for each of the five point sets (flexible, excluded, absorbing,
  emitting, blocked), one random point with probability 1/4.

Every presentation it returns passes ``presentation.validate``.
"""

import random
from fractions import Fraction as F

from cspaces import kinds as K
from cspaces.kinds import Family, Fragment
from cspaces.model import EdgePoint, RigidTrace, TraceStep, Vertex
from cspaces.presentation import Edge, GraphPresentation, validate

QUARTERS = tuple(F(k, 4) for k in range(5))
NAMED = (K.NATURAL, K.DIRECTED, K.ONE_JUMP, K.DELAYED_MINUS, K.DELAYED_PLUS,
         K.REVERSIBLE_ONE_JUMP, K.SIPHON, K.SIPHON_OSC, K.STILL,
         K.DISCRETE_C)
POINT_SETS = ("flexible", "excluded", "absorbing", "emitting", "blocked")


def _marks(rng, inside) -> frozenset:
    return frozenset(q for q in inside if rng.random() < 0.2)


def _fragment(rng) -> Fragment:
    lo, hi = sorted(rng.sample(QUARTERS, 2))
    inside = [q for q in QUARTERS if lo <= q <= hi]
    return Fragment(rng.choice((-1, 0, 1)), lo, hi,
                    lo_open=rng.random() < 0.25, hi_open=rng.random() < 0.25,
                    start_not=_marks(rng, inside), end_not=_marks(rng, inside))


def _trace(rng) -> RigidTrace:
    """A rigid trace of a family: 1–2 steps between quarters."""
    stops = [rng.choice(QUARTERS)]
    for _ in range(rng.randint(1, 2)):
        stops.append(rng.choice([q for q in QUARTERS if q != stops[-1]]))
    steps = tuple(TraceStep(None, a, b) for a, b in zip(stops, stops[1:]))
    return RigidTrace(steps, frozenset(i for i in range(len(steps) + 1)
                                       if rng.random() < 0.2))


def _kind(rng) -> K.EdgeKind:
    r = rng.random()
    if r < 0.35:
        return rng.choice(NAMED)
    if r < 0.5:
        return K.n_stop(rng.randint(1, 3))
    return K.custom(Family(
        rigid=tuple(_trace(rng) for _ in range(rng.randint(0, 2))),
        fragments=tuple(_fragment(rng) for _ in range(rng.randint(0, 2)))))


def _generator(rng, edges) -> RigidTrace:
    """A trace over one edge, or over two that meet at a vertex."""
    e = rng.choice(edges)
    up = rng.random() < 0.5
    a = rng.choice(QUARTERS[:-1] if up else QUARTERS[1:])
    if rng.random() < 0.5:
        b = rng.choice([q for q in QUARTERS if (q > a) == up and q != a])
        return RigidTrace((TraceStep(e.id, a, b),))
    # run to an end of e, then on along an edge at that vertex
    first = TraceStep(e.id, a, F(1) if up else F(0))
    v = e.dst if up else e.src
    f = rng.choice([g for g in edges if v in (g.src, g.dst)])
    if f.src == v and (f.dst != v or rng.random() < 0.5):
        second = TraceStep(f.id, F(0), rng.choice(QUARTERS[1:]))
    else:
        second = TraceStep(f.id, F(1), rng.choice(QUARTERS[:-1]))
    return RigidTrace((first, second), frozenset(
        i for i in range(3) if rng.random() < 0.2))


def _point(rng, vertices, edges):
    if rng.random() < 0.4:
        return Vertex(rng.choice(vertices))
    return EdgePoint(rng.choice(edges).id, F(rng.randint(1, 7), 8))


def random_space(rng: random.Random) -> GraphPresentation:
    """One seeded random graph presentation (see the module docstring)."""
    while True:
        vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
        edges = [Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices),
                      _kind(rng)) for i in range(rng.randint(1, 3))]
        gens = (_generator(rng, edges),) if rng.random() < 0.5 else ()
        points = {name: frozenset({_point(rng, vertices, edges)})
                  if rng.random() < 0.25 else frozenset()
                  for name in POINT_SETS}
        pres = GraphPresentation(frozenset(vertices), tuple(edges), gens,
                                 **points)
        if not validate(pres):
            return pres
