"""Pinned identification outputs of every missing-data fixture and of twelve
random models.

The canonical text of a search state is the last tie-break of the search
order, so a change to the search state or to the schedule type can change
which valid schedule is emitted while every verdict stays the same.  The
expected values in ``golden_fixture_outputs.json`` were recorded from the
engine before the search moved to one schedule type; a change to them needs
a reason.  ``transcript_sha256`` is the SHA-256 of the report's transcript
lines joined by newlines, so the transcript is pinned byte for byte: every
schedule tried, each violation and each dropped-variable note.

``golden_random_outputs.json`` pins the same fields for the models
``random_mddag(np.random.default_rng(s), 4, n_obs=1)``, s = 0..11, stored as
graph-file text so that a change to the test helpers cannot move them.  They
reach past the fixtures: colluders, an observed variable, and (s = 8) a
target search that stops at the 3,000-schedule cap, whose whole transcript
is pinned.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mdid import kernel as K
from mdid.fixtures import FIXTURE_NAMES, load
from mdid.gfile import parse_graph_file
from mdid.identify import identify_full, identify_target
from mdid.model import MdDag

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_fixture_outputs.json").read_text())
RANDOM = json.loads((HERE / "golden_random_outputs.json").read_text())
CASES = [(name, query) for name in FIXTURE_NAMES
         if isinstance(load(name), MdDag) for query in ("target", "full")]
RANDOM_CASES = [(name, query) for name in sorted(RANDOM["models"])
                for query in ("target", "full")]


def outputs(md: MdDag, query: str) -> dict:
    run = identify_target if query == "target" else identify_full
    rep = run(md)
    return {
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


@pytest.mark.parametrize("name,query", CASES)
def test_fixture_outputs_unchanged(name, query):
    assert outputs(load(name), query) == GOLDEN[f"{name}/{query}"]


@pytest.mark.parametrize("name,query", RANDOM_CASES)
def test_random_model_outputs_unchanged(name, query):
    md = parse_graph_file(RANDOM["models"][name])
    assert outputs(md, query) == RANDOM["outputs"][f"{name}/{query}"]
