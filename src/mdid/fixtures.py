"""Built-in example models, shipped as graph files and parsed on demand."""

from __future__ import annotations

from importlib import resources

from .gfile import parse_graph_file
from .graph import Cadmg
from .model import MdDag

FIXTURE_NAMES = (
    "confounded_chain",
    "block_sequential",
    "crisscross",
    "staggered_trio",
    "latent_trio",
    "joint_quartet",
    "context_fix",
    "octet",
    "colluder_pair",
)


def fixture_text(name: str) -> str:
    ref = resources.files("mdid") / "fixtures" / f"{name}.graph"
    return ref.read_text()


def load(name: str) -> MdDag | Cadmg:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return parse_graph_file(fixture_text(name))
