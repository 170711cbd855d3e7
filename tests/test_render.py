"""The artifact writers against the per-point and per-node f-string writers of
tests/oracles.py, byte for byte."""
import numpy as np
import pytest

from divides import render
from divides.tracing import NodeInfo, TracedDivide, TraceMeta, trace_with_retries

import oracles
from fixtures import HANDPICKED, node_divide


def edge_values_divide():
    """The two-segment node divide with polylines of edge values: signed
    zeros, a subnormal-scale value, an exact one, values that need all 12
    digits and one that rounds at the 12th, and a one-point path."""
    paths = {
        1: [[-0.0, 1e-77]],
        2: [[1.0, -0.0], [0.123456789012345, -1.0000000000005], [1 / 3, 2 / 3]],
        3: [[1e-77, -1e-77], [123456.789012345678, 9.87654321098765e-5], [-1.5, 1.5]],
        4: [[0.0, 0.0], [1.5, -1.5], [-2.5e-300, 7.0000000000049999]],
    }
    nodes = [NodeInfo(0.0, -0.0, 1e-77, 0.0, 1.0)]
    return TracedDivide(node_divide(), nodes, {e: np.array(p) for e, p in paths.items()},
                        TraceMeta(0.1, 64, 1.5))


def test_edge_values_match_the_per_point_writers():
    traced = edge_values_divide()
    csv = render.strands_csv(traced)
    assert csv == oracles.strands_csv(traced)
    assert csv.splitlines()[1:3] == ["0,1,0,-0,1e-77", "0,2,0,1,-0"]
    assert render.svg_divide(traced) == oracles.svg_divide(traced)
    nodes = render.nodes_csv(traced)
    assert nodes == oracles.nodes_csv(traced)
    assert nodes.splitlines()[1] == "0,0,-0,1e-77,0,1"


@pytest.mark.parametrize("name", sorted(HANDPICKED))
def test_traced_handpicked_match_the_per_point_writers(name):
    """Grid 512, and the composition's grid-1024 retry, where it first
    certifies."""
    traced = trace_with_retries(HANDPICKED[name](), retries=1)
    assert render.strands_csv(traced) == oracles.strands_csv(traced)
    assert render.svg_divide(traced) == oracles.svg_divide(traced)
    assert render.nodes_csv(traced) == oracles.nodes_csv(traced)
