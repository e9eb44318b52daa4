"""Exact data model: points, segments, canonical paths, tracks, rigid traces.

Everything is an immutable dataclass over exact rationals.  A canonical
path is the reparametrisation-normal form of a path on a one-complex:
a start point followed by alternating Pause markers and Runs, where a
Run is a chain of monotone single-edge segments.  Pauses carry no
duration; leading and trailing pauses are kept because some structures
(the delayed intervals) distinguish them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(ValueError):
    """Malformed model data or query."""


class UnsupportedConstruction(ModelError):
    """The requested construction falls outside the supported fragment."""


def rat(value) -> Rat:
    """Read a rational from an int, a Fraction or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad rational {value!r}") from exc
    raise ModelError(f"cannot read rational from {value!r}")


def rat_str(q: Rat) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Points

@dataclass(frozen=True)
class Vertex:
    name: str


@dataclass(frozen=True)
class EdgePoint:
    edge: str
    t: Rat

    def __post_init__(self):
        if not (ZERO < self.t < ONE):
            raise ModelError(f"edge point parameter {self.t} must be strictly inside (0,1)")


@dataclass(frozen=True)
class PTuple:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) != 2:
            raise ModelError("product points are pairs; build wider products by nesting")


Point = Union[Vertex, EdgePoint, PTuple]


# ---------------------------------------------------------------------------
# Segments and canonical paths

@dataclass(frozen=True)
class Seg:
    """Monotone motion on one edge from parameter a to parameter b."""
    edge: str
    a: Rat
    b: Rat

    def __post_init__(self):
        if self.a == self.b:
            raise ModelError("segment must move")
        for v in (self.a, self.b):
            if not (ZERO <= v <= ONE):
                raise ModelError(f"segment parameter {v} outside [0,1]")

    @property
    def dir(self) -> int:
        return 1 if self.b > self.a else -1

    @property
    def lo(self) -> Rat:
        return min(self.a, self.b)

    @property
    def hi(self) -> Rat:
        return max(self.a, self.b)

    def reversed(self) -> "Seg":
        return Seg(self.edge, self.b, self.a)


@dataclass(frozen=True)
class ProdSeg:
    """Synchronous motion in a binary product; each part moves or stays.

    Parts are Seg (moving on a factor edge), ProdSeg (nested product) or
    a Point of the factor (stationary).  Motion is affine in a common
    parameter, so the traced curve is determined by the endpoints.
    """
    parts: tuple

    def __post_init__(self):
        if len(self.parts) != 2:
            raise ModelError("product segment must have two parts")
        if not any(isinstance(p, (Seg, ProdSeg)) for p in self.parts):
            raise ModelError("product segment must move in some part")

    def reversed(self) -> "ProdSeg":
        return ProdSeg(tuple(p.reversed() if isinstance(p, (Seg, ProdSeg)) else p
                             for p in self.parts))


SegLike = Union[Seg, ProdSeg]


@dataclass(frozen=True)
class Pause:
    pass


PAUSE = Pause()


@dataclass(frozen=True)
class Run:
    segs: tuple

    def __post_init__(self):
        if not self.segs:
            raise ModelError("run must be nonempty")


@dataclass(frozen=True)
class CanonicalPath:
    start: Point
    items: tuple  # alternating Run / Pause, normalised
    end: Point

    def is_trivial(self) -> bool:
        return not any(isinstance(it, Run) for it in self.items)

    def runs(self):
        return [it for it in self.items if isinstance(it, Run)]


@dataclass(frozen=True)
class Track:
    """Timed breakpoints; motion between breakpoints is affine per part."""
    points: tuple  # of (Rat time, Point)

    def __post_init__(self):
        if not self.points:
            raise ModelError("track needs at least one breakpoint")
        times = [t for t, _ in self.points]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ModelError("track times must strictly increase")


# ---------------------------------------------------------------------------
# Rigid generator traces

@dataclass(frozen=True)
class TraceStep:
    edge: str
    a: Rat
    b: Rat

    @property
    def dir(self) -> int:
        return 1 if self.b > self.a else -1

    def __post_init__(self):
        if self.a == self.b:
            raise ModelError("trace step must move")


@dataclass(frozen=True)
class RigidTrace:
    """A rigid generator: an exact step sequence, traversed whole.

    ``pauses`` holds boundary indices (0 = before the first step,
    len(steps) = after the last) where an instance must dwell.
    """
    steps: tuple  # of TraceStep
    pauses: frozenset = frozenset()

    def __post_init__(self):
        if not self.steps:
            raise ModelError("trace needs at least one step")
        for i in self.pauses:
            if not (0 <= i <= len(self.steps)):
                raise ModelError(f"pause index {i} out of range")

    def reversed(self) -> "RigidTrace":
        n = len(self.steps)
        steps = tuple(TraceStep(s.edge, s.b, s.a) for s in reversed(self.steps))
        return RigidTrace(steps, frozenset(n - i for i in self.pauses))


# ---------------------------------------------------------------------------
# Canonical assembly

def _merge_lambda(d1: Rat, d2: Rat, lam: Optional[Rat]) -> Optional[Rat]:
    cand = Fraction(d2, d1) if d1 else None
    if cand is None or cand <= 0:
        return None
    if lam is not None and cand != lam:
        return None
    return cand


def _try_merge(s1: SegLike, s2: SegLike):
    """Merge two adjacent segment-likes when they continue the same affine motion."""
    if isinstance(s1, Seg) and isinstance(s2, Seg):
        if s1.edge == s2.edge and s1.dir == s2.dir and s1.b == s2.a:
            return Seg(s1.edge, s1.a, s2.b)
        return None
    if isinstance(s1, ProdSeg) and isinstance(s2, ProdSeg):
        merged, deltas1, deltas2 = [], [], []
        for p1, p2 in zip(s1.parts, s2.parts):
            if isinstance(p1, Seg) and isinstance(p2, Seg):
                if not (p1.edge == p2.edge and p1.dir == p2.dir and p1.b == p2.a):
                    return None
                merged.append(Seg(p1.edge, p1.a, p2.b))
                deltas1.append(p1.b - p1.a)
                deltas2.append(p2.b - p2.a)
            elif isinstance(p1, ProdSeg) or isinstance(p2, ProdSeg):
                return None  # nested merging is not attempted
            else:
                if p1 != p2:
                    return None
                merged.append(p1)
        # constant speed ratio across all moving parts keeps the trace affine
        lam = None
        for d1, d2 in zip(deltas1, deltas2):
            lam = _merge_lambda(abs(d1), abs(d2), lam)
            if lam is None:
                return None
        return ProdSeg(tuple(merged))
    return None


def _is_reversal(s1: SegLike, s2: SegLike) -> bool:
    """True when s2 backtracks s1 along the same edge (graph paths only)."""
    if isinstance(s1, Seg) and isinstance(s2, Seg):
        return s1.edge == s2.edge and s1.b == s2.a and s1.dir != s2.dir
    return False


def assemble(start: Point, atoms, end: Point) -> CanonicalPath:
    """Build the canonical path from a start point and a list of atoms.

    Atoms are PAUSE markers, Seg/ProdSeg motions, or whole Runs (which
    get flattened).  Adjacent pauses collapse; adjacent continuing
    segments merge; runs break at pauses and at same-edge reversals.
    """
    flat = []
    for atom in atoms:
        if isinstance(atom, Run):
            flat.extend(atom.segs)
        else:
            flat.append(atom)

    squeezed = []
    for atom in flat:
        if isinstance(atom, Pause):
            if squeezed and isinstance(squeezed[-1], Pause):
                continue
            squeezed.append(PAUSE)
            continue
        if squeezed and not isinstance(squeezed[-1], Pause):
            merged = _try_merge(squeezed[-1], atom)
            if merged is not None:
                squeezed[-1] = merged
                continue
        squeezed.append(atom)

    items = []
    cur = []
    for atom in squeezed:
        if isinstance(atom, Pause):
            if cur:
                items.append(Run(tuple(cur)))
                cur = []
            items.append(PAUSE)
        else:
            if cur and _is_reversal(cur[-1], atom):
                items.append(Run(tuple(cur)))
                cur = []
            cur.append(atom)
    if cur:
        items.append(Run(tuple(cur)))
    return CanonicalPath(start, tuple(items), end)


def reverse_path(p: CanonicalPath) -> CanonicalPath:
    atoms = []
    for item in reversed(p.items):
        if isinstance(item, Pause):
            atoms.append(PAUSE)
        else:
            atoms.extend(seg.reversed() for seg in reversed(item.segs))
    return assemble(p.end, atoms, p.start)


def concat(p: CanonicalPath, q: CanonicalPath) -> CanonicalPath:
    if p.end != q.start:
        raise ModelError("paths are not consecutive")
    return assemble(p.start, list(p.items) + list(q.items), q.end)


@dataclass(frozen=True)
class Position:
    """A position inside a canonical path.

    With seg is None: the boundary before items[item] (item may equal
    len(items), meaning the very end).  Otherwise: the point at
    parameter t inside segment seg of run items[item]; t may equal the
    segment's endpoints to address run-internal segment boundaries.
    """
    item: int
    seg: Optional[int] = None
    t: Optional[Rat] = None
