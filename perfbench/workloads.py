"""Seeded workloads: plain-data operation plans and their expected answers.

A workload is a set-up plan (which spaces or documents to build, at which
sizes) and an endless operation plan, both drawn from a seeded
``random.Random`` and made only of ints, strings and ``Fraction``s, so
the same seed gives the same operations and the plans can be compared.
``expected`` states each operation's answer through ``rules``; nothing
in this module imports ``cspaces``.

Sizes sit on an even grid over each family's stated range, jittered a
little by the seed, and operations visit a family's spaces in turn in
an order that spreads any prefix over the range.  Every seed therefore covers the size range evenly, and the
latency mix keeps its shape from seed to seed; the seed varies the
paths, points and documents themselves.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import rules

ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)

WORKLOADS = ("paths", "queries", "cli")


def _grid(rng, lo, hi, count):
    """``count`` (a power of two) sizes evenly spread over [lo, hi], each
    jittered by up to a tenth of the spacing.

    They come in bit-reversed order (lo, mid, quarter, three quarters,
    ...), so the spaces an operation visits in turn cover the whole range
    evenly even when a run stops part-way through a round."""
    bits = count.bit_length() - 1
    step = (hi - lo) / (count - 1)
    sizes = []
    for i in range(count):
        rank = int(format(i, f"0{bits}b")[::-1], 2)
        sizes.append(max(lo, min(hi, round(lo + step * (rank + rng.uniform(-0.1, 0.1))))))
    return sizes


def _turns(pool):
    """Indices of a pool in turn, forever."""
    return itertools.cycle(range(len(pool)))


def _frac(rng, lo=ZERO, hi=ONE, den=None):
    """A rational strictly inside (lo, hi) with a seeded denominator."""
    den = den or rng.randrange(7, 997)
    span = (hi - lo) * den
    k = rng.randrange(1, max(2, int(span)))
    t = lo + Fraction(k, den)
    return t if lo < t < hi else (lo + hi) / 2


def _fresh(rng):
    """A rational in (0, 1) with a large seeded denominator, so that query
    points are new to the engine's caches."""
    return _frac(rng, den=rng.randrange(1000, 100000))


def _pieces(rng, a, b, most=3):
    """Split the motion a -> b into 1..most contiguous pieces."""
    cuts = sorted({_frac(rng, min(a, b), max(a, b))
                   for _ in range(rng.randrange(0, most))})
    if b < a:
        cuts.reverse()
    pts = [a] + cuts + [b]
    return list(zip(pts, pts[1:]))


def _sprinkle(rng, atoms, share):
    """Insert dwells between atoms with the given probability."""
    out = []
    for atom in atoms:
        if rng.random() < share:
            out.append(("pause",))
        out.append(atom)
    return out


# ---------------------------------------------------------------------------
# paths: membership on long generated paths

MIXED_KINDS = ("directed", "siphon", "delayed_minus", "delayed_plus")
PRODUCTS = {"c_square": ("jump", "jump"), "hybrid_square": ("jump", "directed"),
            "c_torus2": ("loop", "loop")}


def paths_setup(seed):
    rng = random.Random(f"paths-setup-{seed}")
    return {
        "one_jump": _grid(rng, 50, 400, 16),
        "n_stop": _grid(rng, 16, 96, 16),
        "mixed": [[rng.choice(MIXED_KINDS) for _ in range(n)]
                  for n in _grid(rng, 30, 60, 8)],
    }


def _one_jump_run(rng, n, style, pauses=0.15):
    """Forward run over m edges of an n-edge one-jump chain.

    ``style``: "full" sweeps whole edges; "stop" halts inside the last
    edge; "late" starts inside the first edge."""
    m = rng.randrange(3 * n // 4, n + 1)
    s = rng.randrange(0, n - m + 1)
    atoms = []
    for k in range(s, s + m):
        a, b = ZERO, ONE
        if style == "late" and k == s:
            a = _frac(rng)
        if style == "stop" and k == s + m - 1:
            b = _frac(rng)
        atoms.extend(("move", k, x, y) for x, y in _pieces(rng, a, b, 2))
    start = (s, atoms[0][2])
    return start, _sprinkle(rng, atoms, pauses)


def _short_one_jump_run(rng, n, m):
    s = rng.randrange(0, n - m + 1)
    return (s, ZERO), [("move", k, ZERO, ONE) for k in range(s, s + m)]


def _n_stop_sweep(rng, n, anchored):
    """Sweep of one n_stop(n) edge, mostly across its middle.

    Anchored sweeps run between anchors; the others start or stop off an
    anchor."""
    i = rng.randrange(0, n // 4 + 1)
    j = rng.randrange(3 * n // 4, n + 1)
    a, b = Fraction(i, n), Fraction(j, n)
    if not anchored:
        off = _frac(rng, Fraction(j - 1, n), b, den=n * rng.randrange(3, 9))
        if rng.random() < 0.5:
            b = off
        else:
            a = _frac(rng, a, Fraction(i + 1, n), den=n * rng.randrange(3, 9))
    atoms = [("move", 0, x, y) for x, y in _pieces(rng, a, b, 4)]
    return a, _sprinkle(rng, atoms, 0.2)


def _mixed_walk(rng, kinds):
    """Walk along a mixed chain with per-kind behaviour, dwells and
    occasional back-steps; about a third of the walks are controlled."""
    n = len(kinds)
    m = rng.randrange(n // 3, 2 * n // 3 + 1)
    s = rng.randrange(0, n - m + 1)
    atoms = []
    for k in range(s, s + m):
        kind = kinds[k]
        last = k == s + m - 1
        if kind == "delayed_minus" and rng.random() < 0.93:
            atoms.append(("pause",))
        top = _frac(rng) if last and rng.random() < 0.3 else ONE
        atoms.extend(("move", k, x, y) for x, y in _pieces(rng, ZERO, top, 2))
        if kind == "delayed_plus" and rng.random() < 0.93:
            atoms.append(("pause",))
        if kind == "directed" and top == ONE and rng.random() < 0.04:
            back = _frac(rng, HALF, ONE)
            atoms += [("move", k, ONE, back), ("move", k, back, ONE)]
        if kind == "siphon" and top == ONE:
            r = rng.random()
            if r < 0.3:
                atoms += [("move", k, x, y) for x, y in _pieces(rng, ONE, ZERO, 2)]
                atoms.append(("pause",))
                atoms.append(("move", k, ZERO, ONE))
            elif r < 0.35:
                back = _frac(rng, HALF, ONE)
                atoms += [("move", k, ONE, back), ("move", k, back, ONE)]
        if rng.random() < 0.1:
            atoms.append(("pause",))
    return (s, ZERO), atoms


def _coord_plan(rng, factor, style):
    """(start, moves) for one coordinate of a product path."""
    if style == "park":
        return (rng.choice((ZERO, ONE)) if factor != "loop" else ZERO), []
    if style == "sweep":
        loops = rng.randrange(1, 3) if factor == "loop" else 1
        return ZERO, [p for _ in range(loops) for p in _pieces(rng, ZERO, ONE, 3)]
    if style == "partial":
        a = ZERO if rng.random() < 0.5 else _frac(rng, ZERO, HALF)
        return a, _pieces(rng, a, _frac(rng, max(a, HALF), ONE), 2)
    # "back": a rise then a step back down
    top = _frac(rng, HALF, ONE)
    return ZERO, _pieces(rng, ZERO, top, 2) + [(top, _frac(rng, ZERO, top))]


PRODUCT_STYLES = ("park", "sweep", "sweep", "partial", "back")


def _product_path(rng, factors, diagonal):
    """Interleave two coordinate plans; a ``diagonal`` path moves both
    coordinates together whenever both still have motion left."""
    starts, queues = [], []
    for f in factors:
        start, moves = _coord_plan(rng, f, rng.choice(PRODUCT_STYLES))
        starts.append(start)
        queues.append(list(moves))
    atoms = []
    while queues[0] or queues[1]:
        if diagonal and queues[0] and queues[1]:
            atoms.append(("pmove", queues[0].pop(0), queues[1].pop(0)))
        else:
            i = rng.choice([k for k in (0, 1) if queues[k]])
            step = queues[i].pop(0)
            atoms.append(("pmove", step, None) if i == 0 else ("pmove", None, step))
        if rng.random() < 0.2:
            atoms.append(("pause",))
    return tuple(starts), atoms


def paths_plan(seed, setup):
    """Endless membership operations over the set-up spaces."""
    rng = random.Random(f"paths-ops-{seed}")
    oj, ns, mx = setup["one_jump"], setup["n_stop"], setup["mixed"]
    cycle = (["oj_full", "oj_stop", "oj_full", "oj_late", "oj_parse", "oj_parse"]
             + ["ns_anchor", "ns_off", "ns_anchor", "ns_parse"]
             + ["mixed"] * 8
             + [f"{hat}{name}" for hat in ("", "hat:") for name in PRODUCTS]
             + ["oj_rigid", "ns_rigid", "oj_split", "oj_split"])
    turns = {slot: _turns(mx if slot == "mixed" else
                          ns if slot.startswith("ns") else oj)
             for slot in cycle if slot.startswith(("oj", "ns", "mixed"))}
    for turn in itertools.count():
        for slot in cycle:
            i = next(turns[slot]) if slot in turns else None
            if slot.startswith("oj") and slot not in ("oj_rigid", "oj_split"):
                style = rng.choice(("full", "stop")) if slot == "oj_parse" else slot[3:]
                start, atoms = _one_jump_run(rng, oj[i], style)
                call = "parse_controlled" if slot == "oj_parse" else "is_controlled"
                yield (call, "one_jump", i, start, tuple(atoms))
            elif slot.startswith("ns") and slot != "ns_rigid":
                anchored = slot != "ns_off" and (slot != "ns_parse"
                                                 or rng.random() < 0.5)
                start, atoms = _n_stop_sweep(rng, ns[i], anchored)
                call = "parse_controlled" if slot == "ns_parse" else "is_controlled"
                yield (call, "n_stop", i, start, tuple(atoms))
            elif slot == "mixed":
                start, atoms = _mixed_walk(rng, mx[i])
                yield ("is_controlled", "mixed", i, start, tuple(atoms))
            elif slot == "oj_rigid":
                start, atoms = _short_one_jump_run(rng, oj[i], rng.randrange(1, 4))
                yield ("is_rigid_path", "one_jump", i, start, tuple(atoms))
            elif slot == "ns_rigid":
                n = ns[i]
                a = rng.randrange(0, n - 3)
                b = a + rng.randrange(1, 4)
                start = Fraction(a, n)
                yield ("is_rigid_path", "n_stop", i, start,
                       (("move", 0, start, Fraction(b, n)),))
            elif slot == "oj_split":
                m = rng.randrange(2, 9)
                start, atoms = _short_one_jump_run(rng, oj[i], m)
                seg = rng.randrange(1, m)
                t = ZERO if rng.random() < 0.5 else _frac(rng)
                yield ("is_splittable", "one_jump", i, start, tuple(atoms),
                       (seg, t))
            else:
                hat, _, name = slot.rpartition(":")
                # every other product path moves its coordinates together
                start, atoms = _product_path(rng, PRODUCTS[name], turn % 2 == 1)
                yield ("is_controlled", ("hat:" if hat else "") + name, None,
                       start, tuple(atoms))


def paths_expected(spec, setup):
    call, family, i, start, atoms = spec[:5]
    if family == "one_jump":
        if call == "is_rigid_path":
            return rules.one_jump_chain_rigid(atoms)
        if call == "is_splittable":
            # a whole-sweep run splits into controlled parts only at a vertex
            return spec[5][1] == ZERO
        ok = rules.one_jump_chain_controlled(atoms)
        if call == "parse_controlled":
            return ok, rules.one_jump_chain_count(atoms) if ok else None
        return ok
    if family == "n_stop":
        n = setup["n_stop"][i]
        if call == "is_rigid_path":
            return rules.n_stop_rigid(n, start, atoms)
        ok = rules.n_stop_controlled(n, start, atoms)
        if call == "parse_controlled":
            return ok, rules.n_stop_count(n, start, atoms) if ok else None
        return ok
    if family == "mixed":
        return rules.mixed_chain_controlled(setup["mixed"][i], atoms)
    if family.startswith("hat:"):
        return rules.hat_product_controlled(PRODUCTS[family[4:]], start, atoms)
    return rules.product_controlled(PRODUCTS[family], start, atoms)


# ---------------------------------------------------------------------------
# queries: reachability and classification at fresh query points

def queries_setup(seed):
    rng = random.Random(f"queries-setup-{seed}")
    return {"directed": _grid(rng, 100, 150, 8),
            "n_stop": _grid(rng, 32, 64, 8),
            "pairs": _grid(rng, 6, 12, 8)}


def _chain_pos(rng, n, vertex_share=0.1):
    """A global position k + t on an n-edge chain; sometimes a vertex."""
    k = rng.randrange(0, n)
    if rng.random() < vertex_share:
        return Fraction(k + rng.randrange(0, 2))
    return k + _fresh(rng)


def _n_stop_pos(rng, n, anchor_share=0.5):
    if rng.random() < anchor_share:
        return Fraction(rng.randrange(0, n + 1), n)
    return _fresh(rng)


def _crossing_point(rng):
    """A crossing-square position (branch, height), see ``rules``."""
    if rng.random() < 0.3:
        return rules.CROSSING_POINTS[rng.choice(sorted(rules.CROSSING_POINTS))]
    branch, base = rules.CROSSING_EDGES[rng.choice(sorted(rules.CROSSING_EDGES))]
    return branch, base + _fresh(rng)


def _torus_point(rng):
    return tuple(ZERO if rng.random() < 0.4 else _fresh(rng)
                 for _ in range(2))


def queries_plan(seed, setup):
    rng = random.Random(f"queries-ops-{seed}")
    dn, nn = setup["directed"], setup["n_stop"]
    cycle = (["d_c"] * 3 + ["d_d"] * 2 + ["d_u"] * 3 + ["d_cl"]
             + ["n_c"] * 2 + ["n_d", "n_cl", "n_cl"]
             + ["dual_u", "dual_c", "x_c", "x_d", "t_c", "t_d", "t_cl", "pairs"])
    turns = {slot: _turns(dn if slot.startswith("d_") else
                          nn if slot.startswith("n_") else setup["pairs"])
             for slot in cycle}
    while True:
        for slot in cycle:
            i = next(turns[slot])
            if slot.startswith("d_"):
                x, y = _chain_pos(rng, dn[i]), _chain_pos(rng, dn[i])
                if slot == "d_c":
                    yield ("c_reachable", "directed", i, x, y)
                elif slot == "d_d":
                    yield ("d_reachable", "directed", i, x, y)
                elif slot == "d_u":
                    x, y = min(x, y), max(x, y)
                    yield ("unavoidable_point", "directed", i, x, y,
                           _chain_pos(rng, dn[i]))
                else:
                    yield ("classify_point", "directed", i, x)
            elif slot.startswith("n_"):
                x, y = _n_stop_pos(rng, nn[i]), _n_stop_pos(rng, nn[i])
                if slot == "n_cl":
                    yield ("classify_point", "n_stop", i, x)
                else:
                    call = "c_reachable" if slot == "n_c" else "d_reachable"
                    yield (call, "n_stop", i, x, y)
            elif slot == "dual_u":
                x = _fresh(rng)
                y = _fresh(rng)
                if rng.random() < 0.15:
                    p = rng.choice(("v1", "v2"))
                else:
                    p = (rng.choice(("x1", "x2", "x3", "x4")), _fresh(rng))
                yield ("unavoidable_point", "dual", None, x, y, p)
            elif slot == "dual_c":
                pts = [(rng.choice(("x1", "x2", "x3", "x4")),
                        _fresh(rng))
                       for _ in range(2)]
                yield ("c_reachable", "dual", None, pts[0], pts[1])
            elif slot.startswith("x_"):
                call = "c_reachable" if slot == "x_c" else "d_reachable"
                yield (call, "crossing", None, _crossing_point(rng),
                       _crossing_point(rng))
            elif slot.startswith("t_"):
                if slot == "t_cl":
                    yield ("classify_point", "torus", None, _torus_point(rng))
                else:
                    call = "c_reachable" if slot == "t_c" else "d_reachable"
                    yield (call, "torus", None, _torus_point(rng), _torus_point(rng))
            else:
                yield ("pairs", "pairs", i)


def queries_expected(spec, setup):
    call, family = spec[0], spec[1]
    if family == "directed":
        n = setup["directed"][spec[2]]
        if call in ("c_reachable", "d_reachable"):
            return rules.chain_reachable(spec[3], spec[4])
        if call == "unavoidable_point":
            return rules.chain_unavoidable(spec[3], spec[4], spec[5])
        return rules.chain_classification(n, spec[3])
    if family == "n_stop":
        n = setup["n_stop"][spec[2]]
        if call == "c_reachable":
            return rules.n_stop_reachable(n, spec[3], spec[4])
        if call == "d_reachable":
            return rules.n_stop_d_reachable(spec[3], spec[4])
        return rules.n_stop_classification(n, spec[3])
    if family == "dual":
        if call == "c_reachable":
            return True  # both lanes loop back, every point is flexible
        return rules.dual_unavoidable(spec[3], spec[4], spec[5])
    if family == "crossing":
        rule = (rules.crossing_c_reachable if call == "c_reachable"
                else rules.crossing_d_reachable)
        return rule(spec[3], spec[4])
    if family == "torus":
        if call == "classify_point":
            return rules.torus_classification(*spec[3])
        rule = (rules.torus_c_reachable if call == "c_reachable"
                else rules.torus_d_reachable)
        return rule(spec[3], spec[4])
    return rules.chain_pair_count(setup["pairs"][spec[2]])


# ---------------------------------------------------------------------------
# cli: one process per call over generated JSON documents

def cli_setup(seed):
    rng = random.Random(f"cli-setup-{seed}")
    return {"one_jump": _grid(rng, 20, 300, 8),
            "directed": _grid(rng, 20, 300, 8),
            "n_stop": _grid(rng, 16, 64, 4)}


PATHS_PER_CHAIN = 3  # check-path documents per one-jump chain


def chain_doc(n, kind):
    """Graph document of an n-edge chain, in the CLI's canonical layout."""
    return {"graph": {
        "vertices": sorted(f"v{i}" for i in range(n + 1)),
        "edges": [{"id": f"e{i}", "from": f"v{i}", "to": f"v{i + 1}", "kind": kind}
                  for i in range(n)],
        "generators": [], "flexible": [], "excluded": [], "absorbing": [],
        "emitting": [], "blocked": []}}


def n_stop_doc(n):
    doc = chain_doc(1, "n_stop")
    doc["graph"]["edges"][0]["params"] = {"n": n}
    return doc


def rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def chain_point_str(pos: Fraction) -> str:
    k = pos.numerator // pos.denominator
    t = pos - k
    return f"v:v{k}" if t == 0 else f"e{k}@{rat_str(t)}"


def path_doc(start, atoms):
    """Path document (start + items) of a chain path description."""
    items, run = [], []
    for atom in atoms:
        if atom[0] == "pause":
            if run:
                items.append({"run": run})
                run = []
            items.append({"pause": True})
            continue
        _, k, a, b = atom
        run.append({"edge": f"e{k}", "from": rat_str(a), "to": rat_str(b)})
    if run:
        items.append({"run": run})
    return {"start": chain_point_str(start[0] + start[1]), "items": items}


def cli_documents(seed, setup):
    """Every document the workload reads: name -> JSON-ready dict."""
    rng = random.Random(f"cli-docs-{seed}")
    docs = {}
    for i, n in enumerate(setup["one_jump"]):
        docs[f"oj{i}"] = chain_doc(n, "one_jump")
        for j in range(PATHS_PER_CHAIN):
            style = ("full", "stop", "full")[j % 3]
            start, atoms = _one_jump_run(rng, n, style)
            docs[f"oj{i}p{j}"] = (path_doc(start, atoms),
                                  rules.one_jump_chain_controlled(atoms),
                                  rules.one_jump_chain_count(atoms))
    for i, n in enumerate(setup["directed"]):
        docs[f"d{i}"] = chain_doc(n, "directed")
    for i, n in enumerate(setup["n_stop"]):
        docs[f"ns{i}"] = n_stop_doc(n)
    return docs


def cli_plan(seed, setup):
    """Endless CLI calls: (subcommand, argument spec...)."""
    rng = random.Random(f"cli-ops-{seed}")
    oj, dn, ns = setup["one_jump"], setup["directed"], setup["n_stop"]
    cycle = ("build", "hat", "opposite", "flexible-part", "reversible-closure",
             "exclude", "product", "quotient", "validate", "check-path",
             "check-path", "check-path", "classify", "classify", "reach", "reach")
    pools = {"hat": oj, "flexible-part": oj, "check-path": oj, "classify": ns,
             "validate": oj + dn}
    turns = {slot: _turns(pools.get(slot, dn)) for slot in cycle}
    other = _turns(oj)  # the first factor of products
    while True:
        for slot in cycle:
            i = next(turns[slot])
            if slot == "build":
                yield ("build", rng.randrange(16, 97))
            elif slot in ("hat", "flexible-part"):
                yield ("transform", slot, f"oj{i}")
            elif slot in ("opposite", "reversible-closure"):
                yield ("transform", slot, f"d{i}")
            elif slot == "exclude":
                yield ("transform", f"exclude:v:v{rng.randrange(dn[i] + 1)}",
                       f"d{i}")
            elif slot == "product":
                yield ("product", f"oj{next(other)}", f"d{i}")
            elif slot == "quotient":
                yield ("quotient", f"d{i}", dn[i])
            elif slot == "validate":
                yield ("validate", f"oj{i}" if i < len(oj) else f"d{i - len(oj)}")
            elif slot == "check-path":
                yield ("check-path", f"oj{i}",
                       f"oj{i}p{rng.randrange(PATHS_PER_CHAIN)}")
            elif slot == "classify":
                yield ("classify", f"ns{i}", _n_stop_pos(rng, ns[i], 0.4))
            else:
                x, y = sorted((_chain_pos(rng, dn[i], 0.2),
                               _chain_pos(rng, dn[i], 0.2)))
                if rng.random() < 0.25:
                    x, y = y, x
                yield ("reach", f"d{i}", x, y, _chain_pos(rng, dn[i], 0.2))


def _edge_point_str(edge, t):
    return f"v:v{int(t)}" if t in (ZERO, ONE) else f"{edge}@{rat_str(t)}"


def cli_argv(spec, doc_path):
    """Command-line arguments of one call; ``doc_path`` maps document names
    to files."""
    cmd = spec[0]
    if cmd == "build":
        return ["build", "--corpus", "c_line_window", "--param", "lo=0",
                "--param", f"hi={spec[1]}"]
    if cmd == "transform":
        return ["transform", "--space", doc_path(spec[2]), "--op", spec[1]]
    if cmd == "product":
        return ["product", doc_path(spec[1]), doc_path(spec[2])]
    if cmd == "quotient":
        return ["quotient", "--space", doc_path(spec[1]),
                "--identify", f"v:v0=v:v{spec[2]}"]
    if cmd == "validate":
        return ["validate", "--space", doc_path(spec[1])]
    if cmd == "check-path":
        return ["check-path", "--space", doc_path(spec[1]),
                "--path", doc_path(spec[2])]
    if cmd == "classify":
        return ["classify", "--space", doc_path(spec[1]),
                "--point", _edge_point_str("e0", spec[2])]
    return ["reach", "--space", doc_path(spec[1]),
            "--from", chain_point_str(spec[2]), "--to", chain_point_str(spec[3]),
            "--via", chain_point_str(spec[4])]


def _with_kinds(doc, kind, params=None):
    out = {"graph": dict(doc["graph"])}
    edges = []
    for e in doc["graph"]["edges"]:
        e = {k: v for k, v in e.items() if k != "params"}
        e["kind"] = kind
        if params:
            e["params"] = params
        edges.append(e)
    out["graph"]["edges"] = edges
    return out


# The opposite of a rising edge is the same edge generated by falling runs.
FALLING = {"family": {"rigid": [], "flexible": "all", "fragments": [
    {"dir": -1, "lo": "0/1", "hi": "1/1", "lo_open": False, "hi_open": False,
     "start_not": [], "end_not": []}]}}


def cli_expected(spec, setup, docs):
    """The output document a call must print (exit code 0)."""
    cmd = spec[0]
    if cmd == "build":
        n = spec[1]
        doc = n_stop_doc(1)
        g = doc["graph"]
        g["vertices"] = sorted(["v0", f"v{n}"])
        g["edges"][0].update({"to": f"v{n}", "params": {"n": n}})
        return doc
    if cmd == "transform":
        op, src = spec[1], docs[spec[2]]
        if op == "hat":
            return _with_kinds(src, "directed")
        if op == "flexible-part":
            out = _with_kinds(src, "discrete_c")
            out["graph"]["flexible"] = sorted(f"v:{v}" for v in src["graph"]["vertices"])
            return out
        if op == "opposite":
            return _with_kinds(src, "custom", FALLING)
        if op == "reversible-closure":
            return _with_kinds(src, "natural")
        out = {"graph": dict(src["graph"])}
        out["graph"]["excluded"] = [op[len("exclude:"):]]
        return out
    if cmd == "product":
        return {"expr": {"op": "product", "args": [docs[spec[1]], docs[spec[2]]]}}
    if cmd == "quotient":
        n = spec[2]
        out = chain_doc(n, "directed")
        out["graph"]["vertices"].remove(f"v{n}")
        out["graph"]["edges"][-1]["to"] = "v0"
        return out
    if cmd == "validate":
        return {"valid": True, "violations": []}
    if cmd == "check-path":
        _, controlled, count = docs[spec[2]]
        return {"controlled": controlled,
                "instances": count if controlled else None}
    if cmd == "classify":
        return rules.n_stop_classification(setup["n_stop"][int(spec[1][2:])], spec[2])
    x, y, via = spec[2], spec[3], spec[4]
    ok = rules.chain_reachable(x, y)
    return {"reachable": ok,
            "via_unavoidable": rules.chain_unavoidable(x, y, via) if ok else None}


def cli_matches(spec, expected, out) -> bool:
    """Does a printed document carry the expected answer?

    Writes must reproduce the expected document exactly; reads must agree
    on every expected key, and their witness or failure point must be
    present exactly when the answer says one exists."""
    cmd = spec[0]
    if cmd in ("build", "transform", "product", "quotient", "validate",
               "classify"):
        return out == expected
    if any(out.get(k) != v for k, v in expected.items()):
        return False
    if cmd == "check-path":
        return (out.get("fail_at") is None) == expected["controlled"]
    return (out.get("witness") is not None) == expected["reachable"]
