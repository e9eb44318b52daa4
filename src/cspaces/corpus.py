"""Named builders for the catalogue of concrete spaces and process models."""

from __future__ import annotations

from . import kinds as K
from .model import ModelError, RigidTrace, TraceStep, Vertex, rat
from .presentation import (Edge, GraphPresentation, Product, Quotient, Sum,
                           normalize)


def _graph(vertices, edges, **kw):
    return GraphPresentation(vertices=frozenset(vertices),
                             edges=tuple(edges), **kw)


def _interval(kind) -> GraphPresentation:
    return _graph({"v0", "v1"}, [Edge("e0", "v0", "v1", kind)])


def natural_interval() -> GraphPresentation:
    """Interval where every path is controlled."""
    return _interval(K.NATURAL)


def d_interval() -> GraphPresentation:
    """Interval where exactly the rising paths are controlled."""
    return _interval(K.DIRECTED)


def c_interval() -> GraphPresentation:
    """Interval whose only nonconstant generator is the full rise."""
    return _interval(K.ONE_JUMP)


def delayed_minus() -> GraphPresentation:
    """One-jump interval whose jump must dwell at the start."""
    return _interval(K.DELAYED_MINUS)


def delayed_plus() -> GraphPresentation:
    """One-jump interval whose jump must dwell at the end."""
    return _interval(K.DELAYED_PLUS)


def reversible_one_jump() -> GraphPresentation:
    """Interval generated by the full rise and the full fall."""
    return _interval(K.REVERSIBLE_ONE_JUMP)


def two_jump() -> GraphPresentation:
    """Two one-jump edges chained through a middle vertex."""
    return _graph({"v0", "vm", "v1"},
                  [Edge("e0", "v0", "vm", K.ONE_JUMP),
                   Edge("e1", "vm", "v1", K.ONE_JUMP)])


def c_line_window(lo=0, hi=3) -> GraphPresentation:
    """A finite window of the line whose unit jumps are the generators.

    Integers are flexible anchors; each unit interval is crossed by one
    indivisible rising jump.
    """
    lo, hi = int(lo), int(hi)
    if hi <= lo:
        raise ModelError("c_line_window needs lo < hi")
    return _graph({f"v{lo}", f"v{hi}"},
                  [Edge("e0", f"v{lo}", f"v{hi}", K.n_stop(hi - lo))])


def window_2_3e() -> GraphPresentation:
    """Window [0,3]: rising motion, with [1,2] crossed by a single jump."""
    return _graph({"v0", "v1", "v2", "v3"},
                  [Edge("e0", "v0", "v1", K.DIRECTED),
                   Edge("e1", "v1", "v2", K.ONE_JUMP),
                   Edge("e2", "v2", "v3", K.DIRECTED)])


def d_circle() -> GraphPresentation:
    """Directed circle: a rising loop."""
    return _graph({"b"}, [Edge("e0", "b", "b", K.DIRECTED)])


def c_circle() -> GraphPresentation:
    """Circle generated by the full loop (quotient of the jump interval)."""
    return normalize(Quotient(c_interval(),
                              (frozenset({Vertex("v0"), Vertex("v1")}),)))


def n_stop_circle(n=3) -> GraphPresentation:
    """Circle generated by n equal arcs, flexible at the n stops."""
    n = int(n)
    if n < 1:
        raise ModelError("n_stop_circle needs n >= 1")
    return _graph({"b"}, [Edge("e0", "b", "b", K.n_stop(n))])


def siphon() -> GraphPresentation:
    """Rising freely; from the top only the full fall is possible."""
    return _interval(K.SIPHON)


def siphon_osc() -> GraphPresentation:
    """Siphon variant that can also fall freely, except from the top."""
    return _interval(K.SIPHON_OSC)


def c_square():
    """Product of two one-jump intervals."""
    return Product(c_interval(), c_interval())


def hybrid_square():
    """Product of a one-jump interval with a directed interval."""
    return Product(c_interval(), d_interval())


def crossing_square() -> GraphPresentation:
    """Square generated by its two rigid diagonal paths."""
    edges = [Edge("d0", "c00", "m", K.DISCRETE_C),
             Edge("d1", "m", "c11", K.DISCRETE_C),
             Edge("d2", "c01", "m", K.DISCRETE_C),
             Edge("d3", "m", "c10", K.DISCRETE_C)]
    gens = (RigidTrace((TraceStep("d0", 0, 1), TraceStep("d1", 0, 1))),
            RigidTrace((TraceStep("d2", 0, 1), TraceStep("d3", 0, 1))))
    return _graph({"c00", "c10", "c01", "c11", "m"}, edges, generators=gens)


def c_torus(n=2):
    """n-fold product of the one-jump circle."""
    n = int(n)
    if n < 1:
        raise ModelError("c_torus needs n >= 1")
    space = c_circle()
    for _ in range(n - 1):
        space = Product(space, c_circle())
    return space


def hysteron(t1=1, t0=2, t2=3) -> GraphPresentation:
    """On-off reacting controller with thresholds t1 < t0 < t2.

    Level 0 spans temperatures [t1 - 1, t2] and level 1 spans
    [t1, t2 + 1] (finite windows); the device switches on by a jump at
    t2 and off by a jump at t1.
    """
    t1, t0, t2 = rat(t1), rat(t0), rat(t2)
    if not (t1 < t0 < t2):
        raise ModelError("hysteron needs t1 < t0 < t2")
    edges = [Edge("off0", "off_lo", "off_t1", K.NATURAL),
             Edge("off1", "off_t1", "off_t2", K.NATURAL),
             Edge("on0", "on_t1", "on_t2", K.NATURAL),
             Edge("on1", "on_t2", "on_hi", K.NATURAL),
             Edge("up", "off_t2", "on_t2", K.ONE_JUMP),
             Edge("down", "on_t1", "off_t1", K.ONE_JUMP)]
    return _graph({"off_lo", "off_t1", "off_t2", "on_t1", "on_t2", "on_hi"},
                  edges)


def dual_controller(t1=0, u1=1, u2=3, t2=4) -> GraphPresentation:
    """Heating/cooling controller with tolerances [t1,u1] and [u2,t2]."""
    t1, u1, u2, t2 = rat(t1), rat(u1), rat(u2), rat(t2)
    if not (t1 < u1 < u2 < t2):
        raise ModelError("dual_controller needs t1 < u1 < u2 < t2")
    edges = [Edge("heat0", "heat_lo", "heat_t1", K.NATURAL),
             Edge("heat1", "heat_t1", "heat_u1", K.NATURAL),
             Edge("off0", "off_t1", "off_u1", K.NATURAL),
             Edge("off1", "off_u1", "off_u2", K.NATURAL),
             Edge("off2", "off_u2", "off_t2", K.NATURAL),
             Edge("cool0", "cool_u2", "cool_t2", K.NATURAL),
             Edge("cool1", "cool_t2", "cool_hi", K.NATURAL),
             Edge("heat_on", "off_t1", "heat_t1", K.ONE_JUMP),
             Edge("heat_off", "heat_u1", "off_u1", K.ONE_JUMP),
             Edge("cool_on", "off_t2", "cool_t2", K.ONE_JUMP),
             Edge("cool_off", "cool_u2", "off_u2", K.ONE_JUMP)]
    return _graph({"heat_lo", "heat_t1", "heat_u1",
                   "off_t1", "off_u1", "off_u2", "off_t2",
                   "cool_u2", "cool_t2", "cool_hi"}, edges)


def two_controller(x1=1, x2=3, y1=1, y2=3):
    """Two independent on-off controllers running side by side."""
    x1, x2, y1, y2 = rat(x1), rat(x2), rat(y1), rat(y2)
    if not (x1 < x2 and y1 < y2):
        raise ModelError("two_controller needs x1 < x2 and y1 < y2")
    return Product(hysteron(x1, (x1 + x2) / 2, x2),
                   hysteron(y1, (y1 + y2) / 2, y2))


def dual_carriageway() -> GraphPresentation:
    """Two-lane stretch: forward lane rising, opposite lane falling.

    Quotient of the sum of four intervals, identifying the junction
    points at both ends of the two one-way lanes.
    """
    x1 = _graph({"v0", "v1"}, [Edge("x1", "v0", "v1", K.NATURAL)])
    x2 = _graph({"v1x2", "v2x2"}, [Edge("x2", "v1x2", "v2x2", K.DIRECTED)])
    x3 = _graph({"v1x3", "v2x3"}, [Edge("x3", "v2x3", "v1x3", K.DIRECTED)])
    x4 = _graph({"v2", "v3"}, [Edge("x4", "v2", "v3", K.NATURAL)])
    total = Sum(Sum(x1, x2), Sum(x3, x4))
    classes = (frozenset({Vertex("v1"), Vertex("v1x2"), Vertex("v1x3")}),
               frozenset({Vertex("v2"), Vertex("v2x2"), Vertex("v2x3")}))
    return normalize(Quotient(total, classes))


_BUILDERS = {
    "natural_interval": natural_interval,
    "d_interval": d_interval,
    "c_interval": c_interval,
    "two_jump": two_jump,
    "delayed_minus": delayed_minus,
    "delayed_plus": delayed_plus,
    "reversible_one_jump": reversible_one_jump,
    "c_line_window": c_line_window,
    "window_2_3e": window_2_3e,
    "d_circle": d_circle,
    "c_circle": c_circle,
    "n_stop_circle": n_stop_circle,
    "c_square": c_square,
    "hybrid_square": hybrid_square,
    "crossing_square": crossing_square,
    "c_torus": c_torus,
    "hysteron": hysteron,
    "dual_controller": dual_controller,
    "two_controller": two_controller,
    "siphon": siphon,
    "siphon_osc": siphon_osc,
    "dual_carriageway": dual_carriageway,
}


def names() -> tuple:
    return tuple(sorted(_BUILDERS))


def build(name: str, **params):
    """Build a catalogue model by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ModelError(f"unknown model {name!r}; known: {', '.join(names())}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ModelError(f"bad parameters for {name!r}: {exc}")
