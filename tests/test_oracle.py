"""Oracle equivalence: the factorization parser must agree with an
independent brute-force search on every graph corpus model.

The brute-force oracle enumerates concatenations of generator instances
(bounded depth, gridded fragment endpoints) with no code shared with the
parser.  Engine-accepted paths needing more than `depth` pieces are
resampled so the bounded oracle stays authoritative for every compared
case.
"""

import random
import zlib

import pytest

from cspaces.corpus import build, names
from cspaces.membership import parse_controlled
from cspaces.presentation import GraphPresentation, normalize

from helpers import OPEN_WINDOWS, interval
from oracle import brute_force_controlled
from sampling import random_graph_path

SEED = 973
DEPTH = 5
GRID = 8
PER_MODEL = 500

GRAPH_MODELS = sorted(n for n in names()
                      if isinstance(normalize(build(n)), GraphPresentation))


def _agree(sp, name, count):
    # crc32, unlike hash(), is not salted per process: a failure replays
    rng = random.Random(SEED + zlib.crc32(name.encode()) % 10 ** 6)
    compared = both = 0
    while compared < count:
        p = random_graph_path(sp, rng)
        out = parse_controlled(sp, p)
        if out.controlled and out.count is not None and out.count > DEPTH:
            continue  # beyond the oracle's horizon; draw another path
        assert out.controlled == brute_force_controlled(
            sp, p, depth=DEPTH, grid=GRID), p
        compared += 1
        both += out.controlled
    assert compared == count
    return both


@pytest.mark.parametrize("name", GRAPH_MODELS)
def test_engine_agrees_with_brute_force(name):
    _agree(normalize(build(name)), name, PER_MODEL)


def test_engine_agrees_with_brute_force_on_open_windows():
    """Open window ends, an interior end_not and two overlapping rising
    windows, which no corpus model has; runs across the overlap change
    windows strictly inside it."""
    assert _agree(interval(OPEN_WINDOWS), "open_windows", 300) > 0
