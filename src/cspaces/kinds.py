"""Interval structures carried by an oriented edge.

Each kind expands into a Family: finitely many rigid generator traces
plus flexible fragments (direction + window in which arbitrary monotone
sub-runs are allowed) plus the set of positions whose trivial loops are
controlled.  Built-in kinds:

  natural     every path on the edge
  directed    every increasing path
  one_jump    a single rigid full traversal; endpoints flexible
  n_stop(n)   n rigid unit jumps between the anchors k/n
  delayed_minus / delayed_plus
              rigid full traversal that must dwell at its start / end
  reversible_one_jump
              rigid full traversals both ways
  siphon      increasing fragment plus a rigid full backward run
  siphon_osc  increasing fragment, decreasing fragment that may not
              start at 1, plus the rigid full backward run
  still       trivial loops everywhere, nothing moves
  discrete_c  no controlled path at all, not even trivial loops
  custom      an explicit Family (used by derived constructions)

This module alone gives kinds their meaning.  Constructions rewrite an
edge's Family without looking at its kind, and ``kind_of`` turns the
rewritten family back into a named kind when one generates exactly it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .model import (ONE, ZERO, ModelError, Rat, RigidTrace, TraceStep)

ALL = "all"


@dataclass(frozen=True)
class Fragment:
    """Arbitrary monotone sub-runs of one edge within a window.

    ``start_not`` / ``end_not`` forbid a generator instance from
    starting / ending at the listed positions; they are only meaningful
    at window extremes (where an instance boundary is forced).
    """
    dir: int
    lo: Rat = ZERO
    hi: Rat = ONE
    lo_open: bool = False
    hi_open: bool = False
    start_not: frozenset = frozenset()
    end_not: frozenset = frozenset()

    def admits(self, a: Rat, b: Rat, direction: int) -> bool:
        """Does the window admit a run covering [min,max] in `direction`?"""
        if direction != self.dir:
            return False
        lo, hi = min(a, b), max(a, b)
        if lo < self.lo or (self.lo_open and lo == self.lo):
            return False
        if hi > self.hi or (self.hi_open and hi == self.hi):
            return False
        return True

    def reversed(self) -> "Fragment":
        return Fragment(-self.dir, self.lo, self.hi, self.lo_open, self.hi_open,
                        start_not=self.end_not, end_not=self.start_not)

    def run_end(self, t: Rat) -> bool:
        """Does a run of the window start or end at t?"""
        below = self.lo < t <= self.hi and not (self.hi_open and t == self.hi)
        above = self.lo <= t < self.hi and not (self.lo_open and t == self.lo)
        first, last = (above, below) if self.dir > 0 else (below, above)
        return ((first and t not in self.start_not)
                or (last and t not in self.end_not))


@dataclass(frozen=True)
class Family:
    """Generator family of one edge."""
    rigid: tuple = ()       # of RigidTrace, steps on this edge
    fragments: tuple = ()   # of Fragment
    flexible: Union[str, frozenset] = frozenset()  # ALL or positions in [0,1]

    def position_flexible(self, t: Rat) -> bool:
        if self.flexible == ALL:
            return True
        return t in self.flexible

    def instance_end(self, t: Rat) -> bool:
        """Does a generator instance start or end at t?  The trivial loops
        there are controlled, like those at every generator's end points."""
        return (any(t == tr.steps[0].a or t == tr.steps[-1].b
                    for tr in self.rigid)
                or any(f.run_end(t) for f in self.fragments))


@dataclass(frozen=True)
class EdgeKind:
    name: str
    n: int = 0                 # n_stop arity
    family: Family = None      # custom payload

    def __post_init__(self):
        if self.name not in _KIND_NAMES:
            raise ModelError(f"unknown edge kind {self.name!r}")
        if self.name == "n_stop" and self.n < 1:
            raise ModelError("n_stop needs n >= 1")
        if self.name == "custom" and self.family is None:
            raise ModelError("custom kind needs a family")

    @property
    def named(self) -> bool:
        """False for a custom kind, which carries its own family."""
        return self.family is None


_KIND_NAMES = {
    "natural", "directed", "one_jump", "n_stop", "delayed_minus",
    "delayed_plus", "reversible_one_jump", "siphon", "siphon_osc",
    "still", "discrete_c", "custom",
}

NATURAL = None  # assigned below, after EdgeKind exists


def kind(name: str, n: int = 0, family: Family = None) -> EdgeKind:
    return EdgeKind(name, n, family)


NATURAL = kind("natural")
DIRECTED = kind("directed")
ONE_JUMP = kind("one_jump")
DELAYED_MINUS = kind("delayed_minus")
DELAYED_PLUS = kind("delayed_plus")
REVERSIBLE_ONE_JUMP = kind("reversible_one_jump")
SIPHON = kind("siphon")
SIPHON_OSC = kind("siphon_osc")
STILL = kind("still")
DISCRETE_C = kind("discrete_c")


def n_stop(n: int) -> EdgeKind:
    return kind("n_stop", n=n)


def custom(family: Family) -> EdgeKind:
    return kind("custom", family=family)


def _full(edge: str, direction: int, pauses=frozenset()) -> RigidTrace:
    if direction > 0:
        return RigidTrace((TraceStep(edge, ZERO, ONE),), frozenset(pauses))
    return RigidTrace((TraceStep(edge, ONE, ZERO),), frozenset(pauses))


def kind_generators(k: EdgeKind, edge: str) -> Family:
    """Expand a kind on a named edge into its generator family."""
    name = k.name
    if name == "natural":
        return Family(fragments=(Fragment(1), Fragment(-1)), flexible=ALL)
    if name == "directed":
        return Family(fragments=(Fragment(1),), flexible=ALL)
    if name == "one_jump":
        return Family(rigid=(_full(edge, 1),), flexible=frozenset({ZERO, ONE}))
    if name == "n_stop":
        anchors = [Fraction(i, k.n) for i in range(k.n + 1)]
        rigid = tuple(RigidTrace((TraceStep(edge, anchors[i], anchors[i + 1]),))
                      for i in range(k.n))
        return Family(rigid=rigid, flexible=frozenset(anchors))
    if name == "delayed_minus":
        return Family(rigid=(_full(edge, 1, {0}),), flexible=frozenset({ZERO, ONE}))
    if name == "delayed_plus":
        return Family(rigid=(_full(edge, 1, {1}),), flexible=frozenset({ZERO, ONE}))
    if name == "reversible_one_jump":
        return Family(rigid=(_full(edge, 1), _full(edge, -1)),
                      flexible=frozenset({ZERO, ONE}))
    if name == "siphon":
        return Family(rigid=(_full(edge, -1),), fragments=(Fragment(1),),
                      flexible=ALL)
    if name == "siphon_osc":
        return Family(rigid=(_full(edge, -1),),
                      fragments=(Fragment(1), Fragment(-1, start_not=frozenset({ONE}))),
                      flexible=ALL)
    if name == "still":
        return Family(flexible=ALL)
    if name == "discrete_c":
        return Family()
    if name == "custom":
        return k.family
    raise ModelError(f"unknown kind {name!r}")


def rigid_ends(fam: Family) -> set:
    """Where the family's rigid traces start and end: the trivial loops
    there are controlled, like those of every generator's end points."""
    return {x for tr in fam.rigid for x in (tr.steps[0].a, tr.steps[-1].b)}


def family_reversed(fam: Family) -> Family:
    """The family generating exactly the reversed paths (same coordinates)."""
    return Family(rigid=tuple(t.reversed() for t in fam.rigid),
                  fragments=tuple(f.reversed() for f in fam.fragments),
                  flexible=fam.flexible)


def covers(h: Fragment, f: Fragment) -> bool:
    """Does window h admit every run that window f admits?"""
    return (h.dir == f.dir
            and (h.lo < f.lo or (h.lo == f.lo and (f.lo_open or not h.lo_open)))
            and (h.hi > f.hi or (h.hi == f.hi and (f.hi_open or not h.hi_open)))
            and {x for x in h.start_not if f.lo <= x <= f.hi} <= f.start_not
            and {x for x in h.end_not if f.lo <= x <= f.hi} <= f.end_not)


def _plain(f: Fragment) -> bool:
    return not (f.lo_open or f.hi_open or f.start_not or f.end_not)


def merge_fragments(frags) -> tuple:
    """Fewer fragments generating the same paths.

    Closed windows without boundary constraints that overlap or touch are
    joined, by one sorted sweep per direction (runs across the joint are
    concatenations); then every window that another one covers is
    dropped.  Survivors keep the order of their first input fragment.
    """
    if len({f.dir for f in frags}) == len(frags):
        return tuple(frags)  # nothing to join or drop
    ranked = [(i, f) for i, f in enumerate(frags) if not _plain(f)]
    for d in (1, -1):
        joined = []  # (rank, window)
        plain = sorted((f.lo, f.hi, i, f) for i, f in enumerate(frags)
                       if f.dir == d and _plain(f))
        for lo, hi, i, f in plain:
            if joined and lo <= joined[-1][1].hi:
                rank, w = joined[-1]
                joined[-1] = (min(rank, i),
                              Fragment(d, w.lo, hi) if hi > w.hi else w)
            else:
                joined.append((i, f))
        ranked += joined
    kept = []
    for _, f in sorted(ranked, key=lambda rf: rf[0]):
        if not any(covers(h, f) for h in kept):
            kept = [h for h in kept if not covers(f, h)] + [f]
    return tuple(kept)


def add_windows(fam: Family, steps) -> Family:
    """The family with a closed window for each trace step (a, b) in
    `steps`, in the step's direction: it then also generates every sub-run
    of those steps, and runs across them are concatenations."""
    wins = tuple(Fragment(1, a, b) if a < b else Fragment(-1, b, a)
                 for a, b in steps)
    return Family(fam.rigid, merge_fragments(fam.fragments + wins),
                  fam.flexible)


def _same(a: tuple, b: tuple) -> bool:
    """Equal up to order."""
    return a == b or (len(a) == len(b) and a[0] in b and set(a) == set(b))


def _shape(fam: Family) -> tuple:
    return len(fam.rigid), len(fam.fragments), fam.flexible == ALL


def _named_by_shape() -> dict:
    """Named kinds of fixed arity, keyed by the shape of their families
    (which does not depend on the edge name)."""
    out = {}
    for k in (NATURAL, DIRECTED, ONE_JUMP, DELAYED_MINUS, DELAYED_PLUS,
              REVERSIBLE_ONE_JUMP, SIPHON, SIPHON_OSC, STILL, DISCRETE_C):
        out.setdefault(_shape(kind_generators(k, "e")), []).append(k)
    return out


_NAMED_BY_SHAPE = _named_by_shape()


def kind_of(fam: Family, edge: str) -> EdgeKind:
    """The named kind whose family on `edge` is `fam`, up to the order of
    its rigid traces and fragments; ``custom(fam)`` when there is none."""
    cands = list(_NAMED_BY_SHAPE.get(_shape(fam), ()))
    if len(fam.rigid) > 1:
        cands.append(n_stop(len(fam.rigid)))
    for k in cands:
        g = kind_generators(k, edge)
        if g.flexible == fam.flexible and _same(g.fragments, fam.fragments) \
                and _same(g.rigid, fam.rigid):
            return k
    return custom(fam)
