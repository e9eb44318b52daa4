"""Interval structures carried by an oriented edge.

Each kind expands into a Family: finitely many rigid generator traces
plus fragments (direction + window in which arbitrary monotone sub-runs
are allowed).  The trivial loops where an instance starts or ends are
controlled, and a window of direction 0 holds only trivial loops.
Built-in kinds:

  natural     every path on the edge
  directed    every increasing path
  one_jump    a single rigid full traversal
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

A family belongs to its kind, not to an edge: its rigid traces are
steps (a, b) whose ``edge`` is None, and they lie on whichever edge
carries the kind.  Only a presentation's own generators name edges.

This module alone gives kinds their meaning.  Constructions rewrite each
distinct kind's Family once, blind to its name, and ``kind_of`` turns
the result back into a named kind when one generates exactly it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

from .model import (ONE, ZERO, ModelError, Rat, RigidTrace, TraceStep)


@dataclass(frozen=True)
class Fragment:
    """Arbitrary monotone sub-runs of one edge within a window, in the
    direction ``dir``; with ``dir == 0``, the trivial loops at the
    window's positions and nothing else.

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

    def __post_init__(self):
        if self.dir not in (-1, 0, 1):
            raise ModelError(f"fragment direction {self.dir} is not -1, 0 or 1")
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ModelError(f"fragment window [{self.lo}, {self.hi}] is not "
                             "inside [0,1] with lo <= hi")

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
        """Does a run of the window start or end at t?  A trivial loop of a
        window of direction 0 does, at each of its positions."""
        inside = (self.lo <= t <= self.hi
                  and not (self.lo_open and t == self.lo)
                  and not (self.hi_open and t == self.hi))
        if not self.dir:
            return inside
        up, down = t != self.hi, t != self.lo  # the window goes on past t
        first, last = (up, down) if self.dir > 0 else (down, up)
        return inside and ((first and t not in self.start_not)
                           or (last and t not in self.end_not))


LOOPS = Fragment(0)  # the trivial loops at every position


@dataclass(frozen=True)
class Family:
    """Generator family of a kind, the same on every edge that carries it.
    Its rigid traces name no edge: each step's ``edge`` is None."""
    rigid: tuple = ()       # of RigidTrace
    fragments: tuple = ()   # of Fragment

    def __post_init__(self):
        for i, tr in enumerate(self.rigid):
            for j, s in enumerate(tr.steps):
                if s.edge is not None:
                    raise ModelError(
                        f"rigid[{i}].steps[{j}] names edge {s.edge!r}: a "
                        "family's steps lie on the edge that carries it")

    @cached_property
    def rigid_ends(self) -> frozenset:
        """Where the rigid traces start and end: the trivial loops there
        are controlled, like those of every generator's end points.  Kept
        on the family, outside its fields."""
        return frozenset(x for tr in self.rigid
                         for x in (tr.steps[0].a, tr.steps[-1].b))

    def instance_end(self, t: Rat) -> bool:
        """Does a generator instance start or end at t?  The trivial loop
        there is controlled exactly when one does."""
        return (t in self.rigid_ends
                or any(f.run_end(t) for f in self.fragments))


@dataclass(frozen=True)
class EdgeKind:
    """A kind of edge, by name (and arity, or family for ``custom``).

    Like ``presentation.GraphPresentation``, a kind keeps its hash, and
    ``kind_generators`` its expanded family, on the instance outside the
    dataclass fields: ``==``, ``repr`` and pickles never see them."""
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

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name, self.n, self.family))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


_UP = RigidTrace((TraceStep(None, ZERO, ONE),))  # the full rise
_DOWN = RigidTrace((TraceStep(None, ONE, ZERO),))  # the full fall

# the families of the named kinds of fixed arity
_FAMILIES = {
    "natural": Family(fragments=(Fragment(1), Fragment(-1), LOOPS)),
    "directed": Family(fragments=(Fragment(1), LOOPS)),
    "one_jump": Family(rigid=(_UP,)),
    "delayed_minus": Family(rigid=(RigidTrace(_UP.steps, frozenset({0})),)),
    "delayed_plus": Family(rigid=(RigidTrace(_UP.steps, frozenset({1})),)),
    "reversible_one_jump": Family(rigid=(_UP, _DOWN)),
    "siphon": Family(rigid=(_DOWN,), fragments=(Fragment(1), LOOPS)),
    "siphon_osc": Family(rigid=(_DOWN,), fragments=(
        Fragment(1), Fragment(-1, start_not=frozenset({ONE})), LOOPS)),
    "still": Family(fragments=(LOOPS,)),
    "discrete_c": Family(),
}
_KIND_NAMES = {*_FAMILIES, "n_stop", "custom"}


# one instance, hash and family per named kind of fixed arity
_SHARED = {name: EdgeKind(name) for name in _FAMILIES}


def kind(name: str, n: int = 0, family: Family = None) -> EdgeKind:
    """The kind by name: the shared instance for a named kind of fixed
    arity, a new one for ``n_stop(n)`` and ``custom``."""
    if not n and family is None and name in _SHARED:
        return _SHARED[name]
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


def kind_generators(k: EdgeKind) -> Family:
    """Expand a kind into its generator family, once per instance."""
    fam = getattr(k, "_family", None)
    if fam is None:
        if k.name == "n_stop":
            anchors = [Fraction(i, k.n) for i in range(k.n + 1)]
            fam = Family(rigid=tuple(
                RigidTrace((TraceStep(None, anchors[i], anchors[i + 1]),))
                for i in range(k.n)))
        else:
            fam = k.family if k.name == "custom" else _FAMILIES[k.name]
        object.__setattr__(k, "_family", fam)
    return fam


def family_reversed(fam: Family) -> Family:
    """The family generating exactly the reversed paths (same coordinates)."""
    return Family(rigid=tuple(t.reversed() for t in fam.rigid),
                  fragments=tuple(f.reversed() for f in fam.fragments))


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
    concatenations, loops add up); then every window that another one
    covers is dropped.  Survivors keep the order of their first input fragment.
    """
    if len({f.dir for f in frags}) == len(frags):
        return tuple(frags)  # nothing to join or drop
    ranked = [(i, f) for i, f in enumerate(frags) if not _plain(f)]
    for d in (1, -1, 0):
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
    return Family(fam.rigid, merge_fragments(fam.fragments + wins))


def kept_loops(fam: Family, ends) -> tuple:
    """(fam, the positions among `ends` where no instance of fam starts or
    ends): the trivial loops there stay controlled as flexible points."""
    return fam, frozenset(t for t in ends if not fam.instance_end(t))


def cut_window(f: Fragment, at, absorbing=frozenset(), emitting=frozenset(),
               blocked=frozenset()) -> tuple:
    """The pieces of window f between the positions `at` inside it, each
    keeping the forbidden starts and ends that lie on it.  A piece is
    open at a blocked end, and a run may not start at an absorbing end
    or end at an emitting one."""
    ends = [f.lo, *sorted(x for x in at if f.lo < x < f.hi), f.hi]
    out = []
    for lo, hi in zip(ends, ends[1:]):
        lo_open = lo in blocked or f.lo_open and lo == f.lo
        hi_open = hi in blocked or f.hi_open and hi == f.hi
        if lo == hi and (lo_open or hi_open):
            continue
        first, last = (lo, hi) if f.dir > 0 else (hi, lo)
        out.append(Fragment(
            f.dir, lo, hi, lo_open, hi_open,
            frozenset({x for x in f.start_not if lo <= x <= hi}
                      | {first} & absorbing),
            frozenset({x for x in f.end_not if lo <= x <= hi}
                      | {last} & emitting)))
    return tuple(out)


def breaks_filters(steps, marks) -> bool:
    """Does a motion over the steps (a, b), walked in order, touch a
    blocked position, an absorbing one but at its last position or an
    emitting one but at its first?  ``marks[n]``: the (absorbing,
    emitting, blocked) positions of the edge of step n."""
    last = len(steps) - 1
    for n, ((a, b), (ab, em, bl)) in enumerate(zip(steps, marks)):
        if any(min(a, b) <= v <= max(a, b) and (
                v in bl or v in ab and (n, v) != (last, b)
                or v in em and (n, v) != (0, a)) for v in ab | em | bl):
            return True
    return False


def family_filtered(fam: Family, absorbing, emitting, blocked) -> tuple:
    """(family, kept loops): the instances of fam that start at no
    `absorbing` position, end at no `emitting` one, pass neither and
    touch no `blocked` one; windows are cut there (direction 0 only at
    blocked ones).  Kept loops: the positions, none blocked, where fam
    controls the trivial loop and the new family does not."""
    marks = (absorbing, emitting, blocked)
    rigid = tuple(tr for tr in fam.rigid if not breaks_filters(
        [(s.a, s.b) for s in tr.steps], [marks] * len(tr.steps)))
    lost = Family(tuple(tr for tr in fam.rigid if tr not in rigid)).rigid_ends
    frags = tuple(p for f in fam.fragments for p in (
        cut_window(f, absorbing | emitting | blocked, *marks) if f.dir
        else cut_window(f, blocked, blocked=blocked)))
    return kept_loops(Family(rigid, frags), {
        t for t in lost | absorbing | emitting if fam.instance_end(t)} - blocked)


def _unordered(fam: Family) -> tuple:
    """The family up to the order of its rigid traces and fragments."""
    return (frozenset(fam.rigid), frozenset(fam.fragments),
            len(fam.rigid), len(fam.fragments))


# the named kinds of fixed arity, by their families up to order
_NAMED = {_unordered(fam): kind(name) for name, fam in _FAMILIES.items()}


def kind_of(fam: Family) -> EdgeKind:
    """The named kind whose family is `fam`, up to the order of its rigid
    traces and fragments; ``custom(fam)`` when there is none."""
    key = _unordered(fam)
    k = _NAMED.get(key)
    if k is not None:
        return k
    if len(fam.rigid) > 1 and not fam.fragments:
        k = n_stop(len(fam.rigid))
        if _unordered(kind_generators(k)) == key:
            return k
    return custom(fam)
