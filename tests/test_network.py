import json

import pytest

from valveplan.network import (
    MLS,
    Network,
    ParseError,
    PlanarityError,
    ValidationError,
    compute_faces,
    format_flow,
    parse_network,
    parse_placement,
    serialize_network,
)
from valveplan.generate import random_instance

from conftest import make_net


def test_fig1_parses_to_expected_shape(fig1):
    assert fig1.num_nodes == 6
    assert fig1.num_edges == 7
    assert {fig1.node_labels[s] for s in fig1.sources} == {1}
    assert fig1.total_demand == 47 * MLS


def test_fig1_demands(fig1):
    demands = {fig1.edge_labels[e]: fig1.demand[e] for e in range(fig1.num_edges)}
    assert demands == {"e12": 5000, "e16": 8000, "e23": 3000, "e25": 15000,
                       "e34": 7000, "e45": 6000, "e56": 3000}


def test_total_demand_trivial_cases():
    single = make_net([1, 2], [1], [("a", 1, 2, 5)])
    assert single.total_demand == 5 * MLS
    # no edges at all: an isolated source is fine, demand 0
    empty = make_net([1], [1], [])
    assert empty.total_demand == 0


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        make_net([1, 2, 3], [1], [("a", 1, 2, 1), ("b", 3, 3, 1)])


def test_unreachable_edge_rejected():
    with pytest.raises(ValidationError, match="not reachable"):
        make_net([1, 2, 3, 4], [1], [("a", 1, 2, 1), ("b", 3, 4, 1)])


def test_parallel_edges_rejected():
    with pytest.raises(ValidationError, match="same node pair"):
        make_net([1, 2], [1], [("a", 1, 2, 1), ("b", 2, 1, 1)])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValidationError, match="not a declared node"):
        make_net([1, 2], [1], [("a", 1, 9, 1)])


def test_sources_must_be_nonempty_and_known():
    with pytest.raises(ValidationError, match="source"):
        make_net([1, 2], [], [("a", 1, 2, 1)])
    with pytest.raises(ValidationError, match="source"):
        make_net([1, 2], [7], [("a", 1, 2, 1)])


def test_demand_precision_and_sign():
    net = make_net([1, 2], [1], [("a", 1, 2, 2.125)])
    assert net.demand[0] == 2125
    with pytest.raises(ValidationError, match="fractional"):
        make_net([1, 2], [1], [("a", 1, 2, 0.0001)])
    with pytest.raises(ValidationError, match=">= 0"):
        make_net([1, 2], [1], [("a", 1, 2, -1)])


def test_face_must_be_closed_walk():
    with pytest.raises(ValidationError, match="not an edge"):
        make_net([1, 2, 3, 4], [1],
                 [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1)],
                 faces=[[1, 2, 4]])
    net = make_net([1, 2, 3], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 1, 3, 1)],
                   faces=[[1, 2, 3]])
    assert net.faces == ((0, 1, 2),)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_network('{"nodes": [1, 2\n  "sources": [1]}')
    assert err.value.line is not None
    assert "line" in str(err.value)


BASE = {"nodes": [1, 2, 3], "sources": [1], "edges": [["a", 1, 2, 1], ["b", 2, 3, 1]]}


def doc(**changes):
    """BASE with keys replaced (None drops the key), as document text."""
    out = dict(BASE, **changes)
    return json.dumps({k: v for k, v in out.items() if v is not None})


def slot_token(token):
    return make_net(BASE["nodes"], BASE["sources"], BASE["edges"]).parse_slot_token(token)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, True]])), ValidationError,
                 "edge 'a': flow must be a number", id="flow-true"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, "5"]])), ValidationError,
                 "edge 'a': flow must be a number", id="flow-string"),
    pytest.param(lambda: parse_network(doc().replace("1]", "NaN]", 1)), ParseError,
                 "non-finite number NaN is not allowed", id="nan"),
    pytest.param(lambda: parse_network(doc().replace("1]", "Infinity]", 1)), ParseError,
                 "non-finite number Infinity is not allowed", id="infinity"),
    pytest.param(lambda: parse_network(doc(nodes=[], sources=[], edges=[])), ValidationError,
                 "network has no nodes", id="no-nodes"),
    pytest.param(lambda: parse_network(doc(nodes=[1, 2, 2, 3])), ValidationError,
                 "duplicate node id 2", id="duplicate-node"),
    pytest.param(lambda: parse_network(doc(nodes=[1, "1", 2, 3])), ValidationError,
                 "duplicate node id '1'", id="duplicate-node-string"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, 1], ["a", 2, 3, 1]])),
                 ValidationError, "duplicate edge id 'a'", id="duplicate-edge"),
    pytest.param(lambda: Network([1, 2], [1], [("a", 1, 2, 1.5)]), ValidationError,
                 "edge 'a': internal demand must be a nonnegative integer",
                 id="internal-demand"),
    pytest.param(lambda: parse_network(doc(coords={"9": [0, 0]})), ValidationError,
                 "coords: unknown node '9'", id="coords-unknown-node"),
    pytest.param(lambda: parse_network(doc(coords={"1": [0, 0], "2": [1]})), ValidationError,
                 "coords for node '2' must be a finite [x, y] pair", id="coords-not-a-pair"),
    pytest.param(lambda: parse_network(doc(coords={"1": [0, 0], "2": ["x", 0]})),
                 ValidationError, "coords for node '2' must be a finite [x, y] pair",
                 id="coords-not-numbers"),
    pytest.param(lambda: parse_network(doc(coords={"1": [0, 0], "2": [1, 0]})),
                 ValidationError, "coords must cover every node", id="coords-partial"),
    pytest.param(lambda: parse_network(doc(faces=[[1, 2]])), ValidationError,
                 "face [1, 2] has fewer than 3 nodes", id="face-too-short"),
    pytest.param(lambda: parse_network(doc(faces=[[1, 2, 9]])), ValidationError,
                 "face [1, 2, 9]: unknown node 9", id="face-unknown-node"),
    pytest.param(lambda: slot_token("a1"), ValidationError,
                 "bad slot token 'a1', expected edge:node", id="slot-token-no-colon"),
    pytest.param(lambda: slot_token("a:9"), ValidationError,
                 "slot token 'a:9': unknown node '9'", id="slot-token-unknown-node"),
    pytest.param(lambda: parse_network("[]"), ValidationError,
                 "instance document must be a JSON object", id="not-an-object"),
    pytest.param(lambda: parse_network(doc(edges=None)), ValidationError,
                 "missing required key 'edges'", id="missing-key"),
    pytest.param(lambda: parse_network(doc(nodes={"1": 1})), ValidationError,
                 "'nodes' must be an array", id="nodes-not-an-array"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2]])), ValidationError,
                 "edge entry ['a', 1, 2] must be [id, node, node, demand]", id="short-edge"),
    pytest.param(lambda: parse_network(doc(faces={})), ValidationError,
                 "'faces' must be an array of node cycles", id="faces-not-an-array"),
    pytest.param(lambda: parse_network(doc(coords=[])), ValidationError,
                 "'coords' must be an object mapping node to [x, y]", id="coords-not-an-object"),
])
def test_input_checks(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value) == message


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="unknown document keys"):
        parse_network('{"nodes": [1], "sources": [1], "edges": [], "coordinates": {}}')


def test_slot_indexing_is_a_bijection(fig1):
    seen = set()
    for e in range(fig1.num_edges):
        for node in fig1.endpoints[e]:
            slot = fig1.slot_id(e, node)
            assert fig1.slot_edge(slot) == e
            assert fig1.slot_node(slot) == node
            seen.add(slot)
    assert seen == set(range(2 * fig1.num_edges))


def test_slot_tokens_round_trip(fig1):
    for slot in range(fig1.num_slots):
        assert fig1.parse_slot_token(fig1.slot_token(slot)) == slot
    with pytest.raises(ValidationError, match="not an endpoint"):
        fig1.parse_slot_token("e12:3")
    with pytest.raises(ValidationError, match="unknown edge"):
        fig1.parse_slot_token("zz:1")


def test_parse_placement_rejects_duplicates(fig1):
    with pytest.raises(ValidationError, match="twice"):
        parse_placement(fig1, "e12:1 e12:1")
    p = parse_placement(fig1, "e12:1  # a comment\ne23:2\n")
    assert fig1.placement_tokens(p) == ["e12:1", "e23:2"]


def test_serialize_round_trip(fig1, fig2):
    for net in (fig1, fig2):
        assert parse_network(serialize_network(net)) == net


def test_serialize_round_trip_random():
    for seed in (3, 11, 29):
        net = random_instance(seed)
        assert parse_network(serialize_network(net)) == net


# -- faces -------------------------------------------------------------------


def test_fig1_internal_faces(fig1):
    faces = compute_faces(fig1)
    assert sorted(faces) == [(1, 2, 5, 6), (2, 3, 4, 5)]


def test_tree_has_no_internal_faces():
    net = make_net([1, 2, 3], [1], [("a", 1, 2, 1), ("b", 2, 3, 1)],
                   coords={"1": [0, 0], "2": [1, 0], "3": [2, 1]})
    assert compute_faces(net) == []
    assert net.faces == ()


def test_single_quadrilateral_face():
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1)],
                   coords={"1": [0, 0], "2": [1, 0], "3": [1, 1], "4": [0, 1]})
    assert compute_faces(net) == [(1, 2, 3, 4)]


def test_faces_require_coordinates(fig2):
    net = make_net([1, 2], [1], [("a", 1, 2, 1)])
    with pytest.raises(ValidationError, match="coordinates"):
        compute_faces(net)


def test_crossing_drawing_detected():
    # 4-cycle drawn as a bowtie: edges a=(1,2) and c=(3,4) cross
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1)],
                   coords={"1": [0, 0], "2": [1, 1], "3": [1, 0], "4": [0, 1]})
    assert net.faces is None  # auto-computation is silently skipped
    with pytest.raises(PlanarityError, match="cross"):
        compute_faces(net)


def test_euler_face_count_on_random_instances():
    # internal faces of a connected plane graph: |E| - |N| + 1
    for seed in range(20):
        net = random_instance(seed)
        faces = compute_faces(net)
        assert len(faces) == net.num_edges - net.num_nodes + 1


def test_declared_faces_used_as_is(fig1):
    assert fig1.faces_declared
    assert fig1.faces == ((0, 1, 4, 5), (1, 2, 3, 4))


def test_format_flow():
    assert format_flow(47000) == "47"
    assert format_flow(2500) == "2.5"
    assert format_flow(125) == "0.125"
    assert format_flow(0) == "0"
    assert format_flow(float("inf")) == "inf"
