"""Digests of the constructions on the corpus and on the generated
spaces, which hold their answers fixed.

For each corpus model and each construction in ``CONSTRUCTIONS``, the
digest is the SHA-256 of ``jsonio.dumps(space_to_json(result))``, or
"unsupported" where the construction raises ``UnsupportedConstruction``.
The model ``generated`` stands for the 300 seeded spaces of
``tests/spaces.py`` (``spaces/0`` to ``spaces/299``, as
``tests/test_spaces.py`` draws them): its digest is that of their
documents in seed order.

The reversible closure and the reversible part also have an answer
digest (construction ``answers``), which holds what each result
answers, not how it is written: ``c_reachable(...).ok`` between
every two of the input's points at k/8 of each edge, ``classify_point``
at each of them, and ``is_controlled`` on 20 paths that
``random_graph_path`` draws on the input.  It does not read the
result's own cells, so it holds across a change of presentation.
``tests/test_golden.py`` compares them with ``golden_digests.json``.
A change that means to change an answer writes the file again:

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from cspaces import construct
from cspaces.classify import classify_point
from cspaces.corpus import build, names
from cspaces.jsonio import dumps, space_to_json
from cspaces.membership import is_controlled
from cspaces.model import UnsupportedConstruction, Vertex
from cspaces.presentation import normalize, pos_point
from cspaces.reach import c_reachable

from sampling import random_graph_path
from spaces import random_space

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
THIRD = Fraction(1, 3)
GENERATED = "generated"
ANSWERS = "answers"
ANSWERED = ("reversible_closure", "reversible_part")


def _cut_at_a_third(space):
    """The subspace of every vertex and every edge, each edge cut at 1/3."""
    g = normalize(space)
    region = [Vertex(v) for v in sorted(getattr(g, "vertices", ()))]
    for e in getattr(g, "edges", ()):
        region += [(e.id, Fraction(0), THIRD), (e.id, THIRD, Fraction(1))]
    return construct.subspace(space, region)


CONSTRUCTIONS = {
    "hat": construct.hat,
    "opposite": construct.opposite,
    "flexible_part": construct.flexible_part,
    "reversible_closure": construct.reversible_closure,
    "reversible_part": construct.reversible_part,
    "subspace_third": _cut_at_a_third,
}


def _spaces(model: str) -> list:
    if model == GENERATED:
        return [random_space(random.Random(f"spaces/{seed}"))
                for seed in range(300)]
    return [build(model)]


def document(model: str, construction: str) -> str:
    """The JSON documents of one construction on one model, in order, or
    the answers (``ANSWERS``)."""
    if construction == ANSWERS:
        return answers(model)
    return "".join(dumps(space_to_json(CONSTRUCTIONS[construction](sp)))
                   for sp in _spaces(model))


def _answers_on(space, rng) -> str:
    g = normalize(space)
    outs = [normalize(CONSTRUCTIONS[c](g)) for c in ANSWERED]
    pts = list(dict.fromkeys(pos_point(g, e.id, Fraction(k, 8))
                             for e in g.edges for k in range(9)))
    paths = [random_graph_path(g, rng) for _ in range(20)]
    text = []
    for out in outs:
        text.append("".join("1" if c_reachable(out, x, y).ok else "0"
                            for x in pts for y in pts))
        text += [repr(classify_point(out, x)) for x in pts]
        text.append("".join("1" if is_controlled(out, p) else "0"
                            for p in paths))
    return "\n".join(text) + "\n"


def answers(model: str) -> str:
    """The answers of the reversible closure and part of one model."""
    return "".join(_answers_on(sp, random.Random(f"answers/{model}/{n}"))
                   for n, sp in enumerate(_spaces(model)))


def digest(model: str, construction: str) -> str:
    try:
        text = document(model, construction)
    except UnsupportedConstruction:
        return "unsupported"
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict:
    return {f"{m} {c}": digest(m, c) for m in (*names(), GENERATED)
            for c in (*CONSTRUCTIONS, ANSWERS)}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
