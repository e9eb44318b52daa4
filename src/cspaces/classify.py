"""Point and path classification: flexible, splittable, rigid, critical."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .construct import flexible_part
from .membership import _ensure_path, is_controlled
from .model import (ZERO, CanonicalPath, ModelError, Position, PTuple, Rat,
                    Run, Seg, UnsupportedConstruction)
from .presentation import (GraphPresentation, ProductN, cuts, family,
                           flexible_point, normalize, split_path, trace_path)
from .presentation import is_flexible_point  # noqa: F401  (public here too)
from .reach import exists_c_from, exists_c_through, exists_c_to


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

@lru_cache(maxsize=None)
def _fl(norm):
    return normalize(flexible_part(norm))


def _graph_exists(pres: GraphPresentation, x):
    return (exists_c_through(pres, x),
            exists_c_from(pres, x),
            exists_c_to(pres, x))


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
    c = _graph_exists(norm, x)
    f = _graph_exists(_fl(norm), x)
    return (flex, c), (flex, f)


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
    path = _ensure_path(norm, path_or_track)
    if not is_controlled(norm, path):
        raise ModelError("path is not controlled")
    return is_controlled(_fl(norm), path)


def is_splittable(space, path_or_track, cut: Position) -> bool:
    """Are both portions of the path at the cut controlled?"""
    norm = normalize(space)
    path = _ensure_path(norm, path_or_track)
    if not is_controlled(norm, path):
        raise ModelError("path is not controlled")
    left, right = split_path(norm, path, cut)
    return is_controlled(norm, left) and is_controlled(norm, right)


def _seg_cut_params(norm, seg: Seg):
    """Candidate split parameters inside one segment (edge coordinates)."""
    lo, hi = seg.lo, seg.hi
    marks = [x for x in cuts(norm, seg.edge) if lo < x < hi]
    grid = sorted({lo, hi, *marks})
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    vals = sorted(set(marks) | set(mids))
    return vals if seg.dir > 0 else list(reversed(vals))


def _candidate_cuts(norm, path: CanonicalPath):
    for k in range(1, len(path.items)):
        yield Position(k)
    for k, item in enumerate(path.items):
        if not isinstance(item, Run):
            continue
        for si, seg in enumerate(item.segs):
            if si:
                yield Position(k, si, seg.a if isinstance(seg, Seg) else ZERO)
            if isinstance(seg, Seg):
                for t in _seg_cut_params(norm, seg):
                    yield Position(k, si, t)
            else:
                yield Position(k, si, Rat(1, 2))


def is_rigid_path(space, path_or_track) -> bool:
    """No interior cut splits the path into two nonconstant controlled parts.

    For product paths the segment-interior cut search is sampled at
    traversal midpoints; cuts at run and segment boundaries are exact.
    """
    norm = normalize(space)
    path = _ensure_path(norm, path_or_track)
    if path.is_trivial():
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
        if family(norm, e.id).fragments:
            return False
    for tr in norm.generators:
        if not is_rigid_path(norm, trace_path(norm, tr)):
            return False
    return True
