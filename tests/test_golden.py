"""The constructions give the answers recorded in ``golden_digests.json``
on every corpus model (``tests/golden.py`` writes the file)."""

import json

import pytest

from cspaces.model import UnsupportedConstruction

from golden import DIGESTS, digest, document

GOLDEN = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("pair", sorted(GOLDEN))
def test_construction_matches_its_digest(pair):
    model, construction = pair.split()
    if GOLDEN[pair] == "unsupported":
        with pytest.raises(UnsupportedConstruction):
            document(model, construction)
        return
    found = digest(model, construction)
    if found != GOLDEN[pair]:
        print(document(model, construction))
    assert found == GOLDEN[pair]
