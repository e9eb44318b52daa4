"""Expected answers, written as closed-form rules.

Nothing here imports ``cspaces``.  Each rule reads the benchmark's own
plain description of an input (edge indices and ``Fraction`` parameters)
and states the answer the paper's definitions give for that family, so
a wrong engine answer cannot be hidden by shared code.

Path descriptions on a chain of edges ``e0 .. e{n-1}`` (edge ``k`` runs
from vertex ``v{k}`` to ``v{k+1}``) are lists of atoms:

  ("pause",)           a dwell
  ("move", k, a, b)    monotone motion on edge k from parameter a to b

Product path descriptions are lists of ``("pause",)`` and
``("pmove", m0, m1)`` where each ``mi`` is ``None`` (that coordinate
stays) or ``(a, b)`` on the factor's single edge.
"""
from __future__ import annotations

from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)


def _moves(atoms):
    return [a for a in atoms if a[0] == "move"]


def _sweeps(atoms, direction):
    """Maximal runs of motion in ``direction`` per edge, pauses ignored.

    Returns {edge: [(first_atom_index, last_atom_index, from, to), ...]};
    a run continues while each move stays on its edge and starts where
    the last one ended."""
    out = {}
    cur = None
    for i, atom in enumerate(atoms):
        if atom[0] == "pause":
            continue
        _, k, a, b = atom
        same = (b - a) * direction > 0
        if same and cur is not None and cur[0] == k and cur[4] == a:
            cur[2], cur[4] = i, b
            continue
        if cur is not None:
            out.setdefault(cur[0], []).append(tuple(cur[1:]))
            cur = None
        if same:
            cur = [k, i, i, a, b]
    if cur is not None:
        out.setdefault(cur[0], []).append(tuple(cur[1:]))
    return out


# ---------------------------------------------------------------------------
# Graph families

def one_jump_chain_controlled(atoms) -> bool:
    """A run along a chain of one-jump edges is controlled iff it is a whole
    number of full sweeps 0 -> 1 (pauses anywhere)."""
    if any(b <= a for _, _, a, b in _moves(atoms)):
        return False
    return all((lo, hi) == (ZERO, ONE)
               for runs in _sweeps(atoms, 1).values() for _, _, lo, hi in runs)


def one_jump_chain_count(atoms) -> int:
    """Generator instances in a controlled one-jump run: one per sweep."""
    return sum(1 for _, _, a, b in _moves(atoms) if b == ONE)


def one_jump_chain_rigid(atoms) -> bool:
    """A controlled nonconstant one-jump run is rigid iff it is one sweep."""
    return one_jump_chain_count(atoms) == 1


def n_stop_controlled(n: int, start: Fraction, atoms) -> bool:
    """On one ``n_stop(n)`` edge: controlled iff the path is an increasing
    sweep between anchors i/n <= j/n (pauses anywhere)."""
    moves = _moves(atoms)
    if not moves:
        return (start * n).denominator == 1
    if any(b <= a for _, _, a, b in moves):
        return False
    cur = start
    for _, _, a, b in moves:
        if a != cur:
            return False
        cur = b
    return (start * n).denominator == 1 and (cur * n).denominator == 1


def n_stop_count(n: int, start: Fraction, atoms) -> int:
    moves = _moves(atoms)
    return int((moves[-1][3] - start) * n) if moves else 0


def n_stop_rigid(n: int, start: Fraction, atoms) -> bool:
    """A controlled anchor sweep is rigid iff it crosses exactly one step."""
    return n_stop_count(n, start, atoms) == 1


def mixed_chain_controlled(kinds, atoms) -> bool:
    """Chain of ``directed``, ``siphon``, ``delayed_minus`` and
    ``delayed_plus`` edges (``kinds[k]`` names edge k's kind).

    - directed: every move rises;
    - siphon: rises are free; a fall is only the whole fall 1 -> 0;
    - delayed_minus / delayed_plus: motion is whole sweeps 0 -> 1, and the
      atom just before (minus) or just after (plus) a sweep is a pause.
    """
    for _, k, a, b in _moves(atoms):
        kind = kinds[k]
        if kind == "directed" and b < a:
            return False
        if kind in ("delayed_minus", "delayed_plus") and b < a:
            return False
    for k, runs in _sweeps(atoms, -1).items():
        if kinds[k] == "siphon" and any((lo, hi) != (ONE, ZERO)
                                        for _, _, lo, hi in runs):
            return False
    for k, runs in _sweeps(atoms, 1).items():
        kind = kinds[k]
        if kind in ("delayed_minus", "delayed_plus"):
            for first, last, lo, hi in runs:
                if (lo, hi) != (ZERO, ONE):
                    return False
                if kind == "delayed_minus" and not (
                        first > 0 and atoms[first - 1][0] == "pause"):
                    return False
                if kind == "delayed_plus" and not (
                        last + 1 < len(atoms) and atoms[last + 1][0] == "pause"):
                    return False
    return True


# ---------------------------------------------------------------------------
# Product families

def _projection(atoms, index):
    return [a[1 + index] for a in atoms if a[0] == "pmove" and a[1 + index]]


def _contiguous_rise(start, moves) -> bool:
    cur = start
    for a, b in moves:
        if a != cur or b <= a:
            return False
        cur = b
    return True


def _jump_ok(start, moves) -> bool:
    """One-jump interval: constant at an endpoint, or one full sweep."""
    if not moves:
        return start in (ZERO, ONE)
    return start == ZERO and _contiguous_rise(start, moves) and moves[-1][1] == ONE


def _loop_ok(start, moves) -> bool:
    """One-jump circle: constant at the base point, or whole full loops."""
    if not moves:
        return start == ZERO
    cur = start
    for a, b in moves:
        if a != cur or b <= a:
            return False
        cur = ZERO if b == ONE else b
    return start == ZERO and cur == ZERO


# directed interval: any contiguous rise
_FACTOR_RULES = {"jump": _jump_ok, "directed": _contiguous_rise, "loop": _loop_ok}


def product_controlled(factors, start, atoms) -> bool:
    """Product of interval or circle models: controlled iff each projection
    is controlled in its factor (the product law)."""
    return all(_FACTOR_RULES[f](start[i], _projection(atoms, i))
               for i, f in enumerate(factors))


def hat_product_controlled(factors, start, atoms) -> bool:
    """Generated d-space of such a product: controlled iff each coordinate
    is nondecreasing (restriction closure of the product's paths)."""
    for i, f in enumerate(factors):
        cur = start[i]
        for a, b in _projection(atoms, i):
            if f == "loop" and cur == ONE:
                cur = ZERO
            if a != cur or b <= a:
                return False
            cur = b
    return True


# ---------------------------------------------------------------------------
# Reachability and classification

def chain_reachable(x: Fraction, y: Fraction) -> bool:
    """Directed chain, points as global positions k + t: y at or after x."""
    return y >= x


def chain_unavoidable(x: Fraction, y: Fraction, p: Fraction) -> bool:
    """On a chain every route from x to y passes every point between."""
    return x <= p <= y


def chain_pair_count(n: int) -> int:
    """Reachable ordered pairs among the 2n+1 cells (n+1 vertices, n open
    edges) of an n-edge directed chain: every x <= y."""
    return (2 * n + 1) * (2 * n + 2) // 2


def chain_classification(n: int, pos: Fraction) -> dict:
    """Point of a directed chain with n edges: everything is flexible, and no
    point is critical; the ends only lack incoming or outgoing paths."""
    return {"flexible": True, "critical": False, "future_critical": False,
            "past_critical": False, "has_nontrivial_path_through": True,
            "has_nontrivial_path_starting": pos < n,
            "has_nontrivial_path_ending": pos > 0}


def n_stop_reachable(n: int, x: Fraction, y: Fraction) -> bool:
    """Controlled paths on an n_stop edge are unit jumps between anchors."""
    if x == y:
        return True
    return (x * n).denominator == 1 and (y * n).denominator == 1 and x < y


def n_stop_d_reachable(x: Fraction, y: Fraction) -> bool:
    """The generated d-space of an n_stop edge is the directed edge."""
    return y >= x


def n_stop_classification(n: int, t: Fraction) -> dict:
    """Anchors are flexible stops of rigid jumps; other points lie inside one
    jump.  The flexible part has no nontrivial path, so every point on a
    nontrivial path is critical."""
    if (t * n).denominator == 1:
        start, end = t < 1, t > 0
        return {"flexible": True, "critical": True, "future_critical": start,
                "past_critical": end, "has_nontrivial_path_through": True,
                "has_nontrivial_path_starting": start,
                "has_nontrivial_path_ending": end}
    return {"flexible": False, "critical": True, "future_critical": False,
            "past_critical": False, "has_nontrivial_path_through": True,
            "has_nontrivial_path_starting": False,
            "has_nontrivial_path_ending": False}


# c_torus(2): the product of two one-jump circles, whose only controlled
# paths are whole turns from the base point 0 and the constant path there.
# A product path is controlled when each coordinate is, so a point off the
# base point lies on a turn (the other coordinate turning too or parked at
# its base point) but starts and ends none.  The flexible part has no
# nontrivial path, so every point on a nontrivial path is critical.
TORUS_BASE_POINT = {"flexible": True, "critical": True, "future_critical": True,
                    "past_critical": True, "has_nontrivial_path_through": True,
                    "has_nontrivial_path_starting": True,
                    "has_nontrivial_path_ending": True}
TORUS_OTHER_POINT = {"flexible": False, "critical": True, "future_critical": False,
                     "past_critical": False, "has_nontrivial_path_through": True,
                     "has_nontrivial_path_starting": False,
                     "has_nontrivial_path_ending": False}


def torus_classification(t0: Fraction, t1: Fraction) -> dict:
    """Classes of (t0, t1): the base point (0, 0); (0, t), (t, 0) and
    (t, s) off it all classify alike."""
    if t0 == ZERO and t1 == ZERO:
        return dict(TORUS_BASE_POINT)
    return dict(TORUS_OTHER_POINT)


def torus_c_reachable(x, y) -> bool:
    """On the one-jump torus only the base point moves, and only back to
    itself, so distinct points are never c-reachable."""
    return x == y


def torus_d_reachable(x, y) -> bool:
    """The generated d-space winds freely round both circles."""
    return True


# Crossing square: two rigid diagonals c00 -> m -> c11 and c01 -> m -> c10
# over edges d0, d1 and d2, d3.  A point is (branch, height): lower edges
# d0 / d2 sit at height t, upper edges d1 / d3 at 1 + t, m at 1.
CROSSING_POINTS = {"c00": ("a", ZERO), "c01": ("b", ZERO), "m": (None, ONE),
                   "c11": ("a", 2 * ONE), "c10": ("b", 2 * ONE)}
CROSSING_EDGES = {"d0": ("a", ZERO), "d1": ("a", ONE), "d2": ("b", ZERO),
                  "d3": ("b", ONE)}


def crossing_c_reachable(x, y) -> bool:
    """Only whole diagonals move, so a corner reaches its opposite corner
    and nothing else moves."""
    return x == y or (x, y) in ((("a", ZERO), ("a", 2 * ONE)),
                                (("b", ZERO), ("b", 2 * ONE)))


def crossing_d_reachable(x, y) -> bool:
    """Sub-runs of the diagonals, joined at m: motion is upward, and within
    the lower or the upper half it stays on its branch."""
    (bx, hx), (by, hy) = x, y
    if x == y:
        return True
    if hy < hx:
        return False
    if hy < ONE or hx > ONE:
        return bx == by
    return True


def dual_unavoidable(x: Fraction, y: Fraction, p) -> bool:
    """dual_carriageway from x on x1 (parameter x) to y on the return lane x3
    (parameter y).  The only route runs up x1 to v1, along x2 to v2 and up
    x3 to y; ``p`` is (edge, t) or a vertex name."""
    if isinstance(p, str):
        return p in ("v1", "v2")
    edge, t = p
    if edge == "x1":
        return t >= x
    if edge == "x2":
        return True
    if edge == "x3":
        return t <= y
    return False
