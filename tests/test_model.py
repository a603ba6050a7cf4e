import pytest

from mdid.graph import Cadmg
from mdid.model import ModelError, Triple, validate_md_dag

X = Triple("X(1)", "R", "X")
X_EDGES = [("R", "X"), ("X(1)", "X")]


@pytest.mark.parametrize("names,edges,triples,observed,statuses,message", [
    (["X(1)", "R", "X", "Y(1)", "Y"], X_EDGES, [X, Triple("Y(1)", "R", "Y")], [], {},
     r"triple members are not pairwise distinct"),
    (["X(1)", "R", "X"], X_EDGES, [X], ["X"], {},
     r"observed variables overlap triple members"),
    (["X(1)", "R", "X"], X_EDGES, [X], ["O"], {},
     r"role variable 'O' missing from the graph"),
    (["X(1)", "R", "X", "Z"], X_EDGES, [X], [], {},
     r"graph vertices without a role: \['Z'\]"),
    (["X(1)", "R", "X", "O"], X_EDGES, [X], ["O"],
     {"bidirected": [("O", "X(1)")]},
     r"input model must be a DAG \(no bidirected edges\)"),
    (["X(1)", "R", "X", "O"], X_EDGES, [X], ["O"], {"fixed": ["O"]},
     r"input model vertices must all be random"),
    (["X(1)", "R", "X", "O"], X_EDGES, [X], ["O"], {"selected": ["O"]},
     r"input model vertices must all be random"),
])
def test_model_violations_raise_model_error(names, edges, triples, observed,
                                            statuses, message):
    graph = Cadmg(names, edges, **statuses)
    # each graph breaks one rule, so the message is that rule's alone
    with pytest.raises(ModelError, match=f"^{message}$"):
        validate_md_dag(graph, triples, observed)
