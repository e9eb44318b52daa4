"""Point and path classification: flexible, splittable, rigid, critical."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice

from .construct import flexible_part
from .membership import check_path_geometry, is_controlled
from .model import (ONE, ZERO, CanonicalPath, ModelError, Position, ProdSeg,
                    PTuple, Run, Seg, UnsupportedConstruction)
from .presentation import (GraphPresentation, ProductN, canonicalize, cuts,
                           family, flexible_point, normalize, split_path,
                           trace_path)
from .presentation import is_flexible_point  # noqa: F401  (public here too)
from .reach import existence


@dataclass(frozen=True)
class PointClassification:
    flexible: bool
    critical: bool
    future_critical: bool
    past_critical: bool
    has_nontrivial_path_through: bool
    has_nontrivial_path_starting: bool
    has_nontrivial_path_ending: bool


# ---------------------------------------------------------------------------
# Points

def _combine(l, r):
    """Componentwise existence of a pair from factor existence data.

    Each argument is (flexible, (through, from, to)); a factor whose
    coordinate does not move must hold a controlled constant path,
    i.e. the coordinate must be a flexible point.
    """
    (fl, (tl, sl, el)) = l
    (fr, (tr, sr, er)) = r
    thru = (tl and tr) or (tl and fr) or (fl and tr)
    frm = (sl and sr) or (sl and fr) or (fl and sr)
    to = (el and er) or (el and fr) or (fl and er)
    return (fl and fr, (thru, frm, to))


def _point_data(norm, x):
    """((flexible, c-existence triple), (flexible, flexible-existence triple))."""
    if isinstance(norm, ProductN):
        if not isinstance(x, PTuple):
            raise ModelError("product points must be pairs")
        (cl, fll) = _point_data(norm.left, x.parts[0])
        (cr, flr) = _point_data(norm.right, x.parts[1])
        return _combine(cl, cr), _combine(fll, flr)
    flex = flexible_point(norm, x)
    return ((flex, existence(norm, x)),
            (flex, existence(norm, x, flexible=True)))


def classify_point(space, x) -> PointClassification:
    norm = normalize(space)
    (flex, (ct, cf, ce)), (_, (ft, ff, fe)) = _point_data(norm, x)
    return PointClassification(
        flexible=flex,
        critical=ct and not ft,
        future_critical=cf and not ff,
        past_critical=ce and not fe,
        has_nontrivial_path_through=ct,
        has_nontrivial_path_starting=cf,
        has_nontrivial_path_ending=ce)


# ---------------------------------------------------------------------------
# Paths

def is_flexible_path(space, path_or_track) -> bool:
    """Is every contiguous portion of the path controlled?  Exactly when
    the flexible part of the space controls it."""
    norm = normalize(space)
    path = canonicalize(path_or_track, norm)
    if not is_controlled(norm, path):
        raise ModelError("path is not controlled")
    return is_controlled(flexible_part(norm), path)


def is_splittable(space, path_or_track, cut: Position) -> bool:
    """Are both portions of the path at the cut controlled?"""
    norm = normalize(space)
    path = canonicalize(path_or_track, norm)
    if not is_controlled(norm, path):
        raise ModelError("path is not controlled")
    left, right = split_path(norm, path, cut)
    return is_controlled(norm, left) and is_controlled(norm, right)


def _crossings(norm, seg) -> set:
    """The traversal fractions strictly inside a segment where it, or a
    coordinate of a product segment, is at a cut value of its edge."""
    if isinstance(seg, Seg):
        cs, a, b = cuts(norm, seg.edge), seg.a, seg.b
        inside = cs[bisect_right(cs, min(a, b)):bisect_left(cs, max(a, b))]
        return {(x - a) / (b - a) for x in inside}
    return set().union(*(_crossings(factor, part) for part, factor
                         in zip(seg.parts, (norm.left, norm.right))
                         if isinstance(part, (Seg, ProdSeg))))


def _candidate_cuts(norm, path: CanonicalPath):
    """Run and segment boundaries, the ``_crossings`` of each segment and
    a point between each two neighbours: between two, no coordinate meets
    a cut value, so both halves parse alike wherever the cut falls."""
    for k in range(1, len(path.items)):
        yield Position(k)
    for k, item in enumerate(path.items):
        if not isinstance(item, Run):
            continue
        for si, seg in enumerate(item.segs):
            graph = isinstance(seg, Seg)
            if si:
                yield Position(k, si, seg.a if graph else ZERO)
            grid = sorted({ZERO, ONE, *_crossings(norm, seg)})
            # in order: each gap's midpoint, then the crossing that ends it
            lams = chain.from_iterable(((a + b) / 2, b)
                                       for a, b in zip(grid, grid[1:]))
            for lam in islice(lams, 2 * len(grid) - 3):
                yield Position(k, si, seg.a + lam * (seg.b - seg.a)
                               if graph else lam)


def is_rigid_path(space, path_or_track) -> bool:
    """No interior cut splits the path into two nonconstant controlled
    parts.  The cuts tried are exact: ``_candidate_cuts`` stands for every
    other one, on graphs and on products alike."""
    norm = normalize(space)
    path = canonicalize(path_or_track, norm)
    if path.is_trivial():
        check_path_geometry(norm, path)  # a broken path is not constant
        raise ModelError("path is constant")
    if not is_controlled(norm, path):
        raise ModelError("path is not controlled")
    for pos in _candidate_cuts(norm, path):
        left, right = split_path(norm, path, pos)
        if left.is_trivial() or right.is_trivial():
            continue
        if is_controlled(norm, left) and is_controlled(norm, right):
            return False
    return True


def is_rigid_space(space) -> bool:
    """Do the generators contribute only rigid paths (plus flexible points)?"""
    norm = normalize(space)
    if not isinstance(norm, GraphPresentation):
        raise UnsupportedConstruction(
            "rigidity of a space needs a graph presentation")
    for e in norm.edges:
        if any(f.dir for f in family(norm, e.id).fragments):
            return False
    for tr in norm.generators:
        if not is_rigid_path(norm, trace_path(norm, tr)):
            return False
    return True
