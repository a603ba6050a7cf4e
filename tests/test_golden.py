"""Pinned identification outputs of every missing-data fixture.

The canonical text of a search state is the last tie-break of the search
order, so a change to the search state or to the schedule type can change
which valid schedule is emitted while every verdict stays the same.  The
expected values in ``golden_fixture_outputs.json`` were recorded from the
engine before the search moved to one schedule type; a change to them needs
a reason.  ``transcript_sha256`` is the SHA-256 of the report's transcript
lines joined by newlines, so the transcript is pinned byte for byte: every
schedule tried, each violation and each dropped-variable note.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdid import kernel as K
from mdid.fixtures import FIXTURE_NAMES, load
from mdid.identify import identify_full, identify_target
from mdid.model import MdDag

GOLDEN = json.loads((Path(__file__).parent / "golden_fixture_outputs.json").read_text())
CASES = [(name, query) for name in FIXTURE_NAMES
         if isinstance(load(name), MdDag) for query in ("target", "full")]


@pytest.mark.parametrize("name,query", CASES)
def test_fixture_outputs_unchanged(name, query):
    run = identify_target if query == "target" else identify_full
    rep = run(load(name))
    got = {
        "status": rep.status,
        "certificate": list(rep.certificate) if rep.certificate else None,
        "schedules": {r: s.describe() for r, s in rep.schedules.items()},
        "propensities": {r: K.render(q, "sexpr")
                         for r, q in rep.propensities.items()},
        "functional": (rep.functional.render("sexpr")
                       if rep.functional is not None else None),
        "transcript_sha256": hashlib.sha256(
            "\n".join(rep.transcript).encode()).hexdigest(),
    }
    assert got == GOLDEN[f"{name}/{query}"]
