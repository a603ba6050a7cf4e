"""Model sources: the built-in fixtures as text, and the seeded random sweep.

Models are handled as graph-file text.  Each op parses its models afresh, so
no cache keyed on model objects can carry over from one op to the next.
"""

from __future__ import annotations

import numpy as np

SWEEP_KS = (4, 6, 8, 10)
SWEEP_OBSERVED = 1
SWEEP_EDGE_P = 0.3
SWEEP_POOL = 48


def random_model_text(rng: np.random.Generator, k: int, n_obs: int,
                      p: float) -> str:
    """A random missing-data DAG without self-censoring, as graph-file text.

    The construction and its order of random draws are those of the test
    suite's ``random_mddag`` helper, copied here so that the workload does not
    change when the tests do: substantive variables in a random order with
    forward edges, indicators with substantive parents other than their own
    censored variable, and edges from earlier to later indicators.
    """
    truths = [f"X{i}(1)" for i in range(1, k + 1)]
    indicators = [f"R{i}" for i in range(1, k + 1)]
    obs = [f"O{i}" for i in range(1, n_obs + 1)]
    substantive = truths + obs
    order = list(substantive)
    rng.shuffle(order)
    edges = []
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if rng.uniform() < p:
                edges.append((order[i], order[j]))
    for i in range(k):
        for s in substantive:
            if s == truths[i]:
                continue
            if rng.uniform() < p:
                edges.append((s, indicators[i]))
        for earlier in indicators[:i]:
            if rng.uniform() < p * 0.8:
                edges.append((earlier, indicators[i]))
    lines = [f"var X{i} missing" for i in range(1, k + 1)]
    lines += [f"var {o} observed" for o in obs]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def sweep_pool(seed: int) -> list[tuple[str, int, str]]:
    """(name, k, text) for the sweep's models; k cycles through SWEEP_KS."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(SWEEP_POOL):
        k = SWEEP_KS[i % len(SWEEP_KS)]
        text = random_model_text(rng, k, SWEEP_OBSERVED, SWEEP_EDGE_P)
        out.append((f"sweep{seed}-{i:02d}-k{k}", k, text))
    return out
