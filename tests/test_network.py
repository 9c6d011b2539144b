import json
import os
import random

import pytest

from valveplan.network import (
    MLS,
    InstanceError,
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

from conftest import disjoint_triangles, make_net

INSTANCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "data", "instances")


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


def test_unreachable_error_names_the_lowest_pipe():
    # pipes z (id 1) and y (id 2) lie in two components without a source;
    # the lower pipe id is named, though y's component has the lower node
    with pytest.raises(ValidationError) as err:
        make_net([1, 2, 3, 4, 5, 6], [1], [("a", 1, 2, 1), ("z", 5, 6, 1), ("y", 3, 4, 1)])
    assert str(err.value) == "edge 'z' is not reachable from any source"


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


HUGE = "1" * 5000


@pytest.mark.parametrize("text", [
    '{"nodes": [1, 2], "sources": [1], "edges": [["a", 1, 2, %s]]}' % HUGE,
    '{"nodes": [1, 2], "sources": [1], "edges": [["a", 1, 2, 1]], '
    '"coords": {"1": [0, 0], "2": [%s, 0]}}' % HUGE,
], ids=["demand", "coord"])
def test_integer_past_the_digit_limit_is_an_instance_error(text):
    # json.loads raises a plain ValueError for an integer past the
    # interpreter's digit limit; without that limit the value is read and
    # then rejected as too large
    with pytest.raises(InstanceError):
        parse_network(text)


BASE = {"nodes": [1, 2, 3], "sources": [1], "edges": [["a", 1, 2, 1], ["b", 2, 3, 1]]}


def doc(**changes):
    """BASE with keys replaced (None drops the key), as document text."""
    out = dict(BASE, **changes)
    return json.dumps({k: v for k, v in out.items() if v is not None})


def renamed_node_1(label):
    """BASE with node 1 renamed to `label` everywhere it is named."""
    return doc(nodes=[label, 2, 3], sources=[label], edges=[["a", label, 2, 1], ["b", 2, 3, 1]])


def slot_token(token):
    return make_net(BASE["nodes"], BASE["sources"], BASE["edges"]).parse_slot_token(token)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, True]])), ValidationError,
                 "edge 'a': flow must be a number", id="flow-true"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, "5"]])), ValidationError,
                 "edge 'a': flow must be a number", id="flow-string"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, 1e308]])), ValidationError,
                 "edge 'a': flow is too large (at most 1.798e+305 l/s)", id="flow-overflows-mls"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, -10**400]])), ValidationError,
                 "edge 'a': flow is too large (at most 1.798e+305 l/s)", id="flow-int-past-float"),
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
    pytest.param(lambda: parse_network(doc(nodes=[1, [2], 3])), ValidationError,
                 "node id [2] must be a string or an integer", id="node-id-array"),
    pytest.param(lambda: parse_network(doc(sources=[{"id": 1}])), ValidationError,
                 "source {'id': 1} is not a declared node", id="source-object"),
    pytest.param(lambda: parse_network(doc(edges=[[["a"], 1, 2, 1]])), ValidationError,
                 "edge id ['a'] must be a string or an integer", id="edge-id-array"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, [2], 1]])), ValidationError,
                 "edge 'a': endpoint [2] is not a declared node", id="edge-endpoint-array"),
    pytest.param(lambda: parse_network(doc(faces=[5])), ValidationError,
                 "face 5 must be an array of nodes", id="face-not-an-array"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, 1], ["b", 2, 3, 1], ["c", 3, 1, 1]],
                                           faces=[[1, [2], 3]])),
                 ValidationError, "face [1, [2], 3]: unknown node [2]", id="face-node-array"),
    pytest.param(lambda: parse_network(doc(coords={"1": [0, 0], "2": [True, False], "3": [0, 1]})),
                 ValidationError, "coords for node '2' must be a finite [x, y] pair",
                 id="coords-bool"),
    pytest.param(lambda: parse_network(doc(coords={"1": [0, 0], "2": [10**400, 0], "3": [0, 1]})),
                 ValidationError, "coords for node '2' must be a finite [x, y] pair",
                 id="coords-int-past-float"),
    # a JSON value names the id of its own type and text: true == 1 == 1.0
    # in Python, but none of them names node 1, and neither does "1"
    pytest.param(lambda: parse_network(doc(sources=[True])), ValidationError,
                 "source True is not a declared node", id="source-true"),
    pytest.param(lambda: parse_network(doc(sources=[1.0])), ValidationError,
                 "source 1.0 is not a declared node", id="source-float"),
    pytest.param(lambda: parse_network(doc(sources=["1"])), ValidationError,
                 "source '1' is not a declared node", id="source-digit-string"),
    pytest.param(lambda: parse_network(doc(edges=[["a", True, 2, 1], ["b", 2, 3, 1]])),
                 ValidationError, "edge 'a': endpoint True is not a declared node",
                 id="endpoint-true"),
    pytest.param(lambda: parse_network(doc(edges=[["a", 1, 2, 1], ["b", 2, 3, 1], ["c", 3, 1, 1]],
                                           faces=[[True, 2, 3]])),
                 ValidationError, "face [True, 2, 3]: unknown node True", id="face-node-true"),
    pytest.param(lambda: parse_network(renamed_node_1(True)), ValidationError,
                 "node id True must be a string or an integer", id="node-id-true"),
    pytest.param(lambda: parse_network(renamed_node_1(None)), ValidationError,
                 "node id None must be a string or an integer", id="node-id-null"),
    pytest.param(lambda: parse_network(renamed_node_1(1.5)), ValidationError,
                 "node id 1.5 must be a string or an integer", id="node-id-float"),
    pytest.param(lambda: parse_network(doc(edges=[[False, 1, 2, 1], ["b", 2, 3, 1]])),
                 ValidationError, "edge id False must be a string or an integer", id="edge-id-false"),
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
            assert slot >> 1 == e
            assert fig1.slot_node(slot) == node
            seen.add(slot)
    assert seen == set(range(2 * fig1.num_edges))


def test_slot_tokens_round_trip(fig1):
    # node "x:y" prints slot tokens "a:x:y" and "b:x:x:y"; of each token's
    # splits only one names an edge and one of its endpoints
    colons = make_net(["x:y", "y", "x", "z"], ["y"],
                      [("a", "x:y", "y", 1), ("b", "y", "x", 1), ("a:x", "x", "z", 1),
                       ("b:x", "x:y", "x", 1)])
    punctuated = make_net(["n-1", "n.2", "(3)"], ["n-1"],
                          [("a,b", "n-1", "n.2", 1), ('q"t', "n.2", "(3)", 2)])
    for net in (fig1, colons, punctuated):
        for slot in range(net.num_slots):
            assert net.parse_slot_token(net.slot_token(slot)) == slot
        every = frozenset(range(net.num_slots))
        assert parse_placement(net, " ".join(net.placement_tokens(every)) + "  # all\n") == every
    # "a:x:y" names pipe a at node x:y and pipe a:x at node y
    both = make_net(["x:y", "y", "x"], ["y"], [("a", "x:y", "y", 1), ("a:x", "x", "y", 1)])
    with pytest.raises(ValidationError, match="more than one slot"):
        both.parse_slot_token("a:x:y")
    with pytest.raises(ValidationError, match="not an endpoint"):
        fig1.parse_slot_token("e12:3")
    with pytest.raises(ValidationError, match="unknown edge"):
        fig1.parse_slot_token("zz:1")


@pytest.mark.parametrize("nodes, edges, message", [
    pytest.param([1, 2], [("a b", 1, 2, 1)], "edge id 'a b' must not hold whitespace or '#'",
                 id="edge-space"),
    pytest.param([1, 2], [("b#", 1, 2, 1)], "edge id 'b#' must not hold whitespace or '#'",
                 id="edge-hash"),
    pytest.param([1, "x y"], [("a", 1, "x y", 1)], "node id 'x y' must not hold whitespace or '#'",
                 id="node-space"),
    pytest.param([1, "x\ty"], [("a", 1, "x\ty", 1)],
                 "node id 'x\\ty' must not hold whitespace or '#'", id="node-tab"),
    pytest.param([1, "#2"], [("a", 1, "#2", 1)], "node id '#2' must not hold whitespace or '#'",
                 id="node-hash"),
    pytest.param([1, 2], [("a\u2028b", 1, 2, 1)],
                 "edge id 'a\\u2028b' must not hold whitespace or '#'", id="edge-line-separator"),
])
def test_labels_a_placement_file_cannot_hold_rejected(nodes, edges, message):
    # placement files split tokens at whitespace and cut comments at '#',
    # so such a label would print slot tokens that do not read back
    with pytest.raises(ValidationError) as err:
        make_net(nodes, [1], edges)
    assert str(err.value) == message


def test_parse_placement_rejects_duplicates(fig1):
    with pytest.raises(ValidationError, match="twice"):
        parse_placement(fig1, "e12:1 e12:1")
    p = parse_placement(fig1, "e12:1  # a comment\ne23:2\n")
    assert fig1.placement_tokens(p) == ["e12:1", "e23:2"]


def test_serialize_round_trip(fig1, fig2):
    for net in (fig1, fig2):
        assert parse_network(serialize_network(net)) == net


def test_committed_documents_parse_and_round_trip(fig1, fig2):
    # read-only: every instance document the benchmark reads keeps to the
    # id rule, so a stricter rule fails here before any benchmark run
    data = os.path.dirname(INSTANCES)
    nets = [fig1, fig2]
    for folder, _, names in sorted(os.walk(data)):
        for name in sorted(names):
            if name.endswith(".json"):
                with open(os.path.join(folder, name), "r", encoding="utf-8") as fh:
                    text = fh.read()
                if "nodes" in json.loads(text):
                    nets.append(parse_network(text))
    assert len(nets) >= 62
    for net in nets:
        assert parse_network(serialize_network(net)) == net


def test_edges_may_be_a_one_shot_iterable():
    edges = [("a", 1, 2, 1000), ("b", 2, 3, 2000)]
    assert Network([1, 2, 3], [1], iter(edges)) == Network([1, 2, 3], [1], edges)


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


def test_crossing_error_names_the_lowest_pair_in_edge_order():
    # two horizontal and two vertical pipes cross in four places, framed
    # by pipes that cross nothing. In edge order the crossing pairs are
    # (1, 2), (1, 4), (2, 3) and (3, 4); the leftmost crossings, at x = 1,
    # are (1, 4) and (3, 4), so a sweep from the left must not report those
    coords = {"a": [0, 1], "b": [4, 1], "c": [0, 2], "d": [4, 2],
              "e": [1, 0], "f": [1, 3], "g": [3, 0], "h": [3, 3]}
    pipes = ["ac", "cd", "gh", "ab", "ef", "bd", "eg", "fh", "ae"]
    net = make_net(list(coords), ["a"], [(p, p[0], p[1], 1) for p in pipes], coords=coords)
    assert net.faces is None
    with pytest.raises(PlanarityError, match="^edges 'cd' and 'gh' cross in the drawing$"):
        compute_faces(net)


def test_node_on_another_pipe_rejected():
    # node 3 lies inside pipe a without being one of its endpoints
    net = make_net([1, 2, 3, 4], [1], [("a", 1, 2, 1), ("b", 3, 4, 1), ("c", 4, 1, 1)],
                   coords={"1": [0, 0], "2": [2, 0], "3": [1, 0], "4": [1, 1]})
    assert net.faces is None
    with pytest.raises(PlanarityError, match="^edges 'a' and 'b' cross in the drawing$"):
        compute_faces(net)


def test_node_on_an_adjacent_pipe_rejected():
    # pipes 1-2 and 1-3 meet at node 1, and node 3 lies inside pipe 1-2
    net = make_net([1, 2, 3, 4], [1],
                   [("12", 1, 2, 1), ("13", 1, 3, 1), ("24", 2, 4, 1), ("41", 4, 1, 1)],
                   coords={"1": [0, 0], "2": [2, 0], "3": [1, 0], "4": [1, 1]})
    assert net.faces is None
    with pytest.raises(PlanarityError, match="^edges '12' and '13' cross in the drawing$"):
        compute_faces(net)


def test_collinear_pipes_sharing_an_endpoint_accepted():
    # a and b meet at node 2 in a straight line: one quadrilateral face
    net = make_net([1, 2, 3, 4], [1],
                   [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1)],
                   coords={"1": [0, 0], "2": [1, 0], "3": [2, 0], "4": [1, 1]})
    assert compute_faces(net) == [(1, 2, 3, 4)]
    assert net.faces == ((0, 1, 2, 3),)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _pipes_overlap(at, pipe, other):
    """Whether two pipes drawn between integer points share a point other
    than a node they share, in exact integer arithmetic."""
    shared = set(pipe) & set(other)
    if shared:
        (n,) = shared
        far1, far2 = (at[k] for k in (*pipe, *other) if k != n)
        # two segments out of one point share another exactly when they
        # point the same way along one line
        o = at[n]
        dot = (far1[0] - o[0]) * (far2[0] - o[0]) + (far1[1] - o[1]) * (far2[1] - o[1])
        return _cross(o, far1, far2) == 0 and dot > 0
    p, q = at[pipe[0]], at[pipe[1]]
    r, s = at[other[0]], at[other[1]]
    d1, d2, d3, d4 = _cross(p, q, r), _cross(p, q, s), _cross(r, s, p), _cross(r, s, q)
    if d1 == d2 == d3 == d4 == 0:
        # one line: the segments meet when their spans along it do
        axis = 0 if p[0] != q[0] else 1
        lo = max(min(p[axis], q[axis]), min(r[axis], s[axis]))
        return lo <= min(max(p[axis], q[axis]), max(r[axis], s[axis]))
    return d1 * d2 <= 0 and d3 * d4 <= 0


def test_overlap_rule_against_exact_reference():
    # 4-7 nodes at distinct integer points of [0, 4]^2, where floats are
    # exact and collinear triples are common: the check names the lowest
    # overlapping pair in edge order, and a drawing without one traces
    # E - V + 1 faces
    rejected = accepted = 0
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        at = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
        pairs = {(rng.randrange(k), k) for k in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = sorted(rng.sample(range(n), 2))
            pairs.add((u, v))
        pipes = sorted(pairs)
        rng.shuffle(pipes)
        net = make_net(list(range(n)), [0], [(f"p{u}-{v}", u, v, 1) for u, v in pipes],
                       coords={str(k): list(xy) for k, xy in enumerate(at)})
        lowest = next(((e, f) for e in range(len(pipes)) for f in range(e + 1, len(pipes))
                       if _pipes_overlap(at, pipes[e], pipes[f])), None)
        if lowest is None:
            faces = compute_faces(net)
            assert len(faces) == len(pipes) - n + 1, seed
            assert net.faces is not None and len(net.faces) == len(faces), seed
            accepted += 1
        else:
            e, f = (net.edge_labels[k] for k in lowest)
            with pytest.raises(PlanarityError, match=f"^edges '{e}' and '{f}' cross in the drawing$"):
                compute_faces(net)
            assert net.faces is None, seed
            rejected += 1
    assert rejected > 500 and accepted > 500


@pytest.mark.parametrize("name, faces", [("rand-0-m300", 196), ("rand-0-m600", 396)])
def test_large_frozen_drawings_trace_every_face(name, faces):
    # a false overlap at scale would drop the face rule without an error
    with open(os.path.join(INSTANCES, f"{name}.json"), "r", encoding="utf-8") as fh:
        net = parse_network(fh.read())
    assert len(net.faces) == net.num_edges - net.num_nodes + 1 == faces


def test_euler_face_count_on_random_instances():
    # internal faces of a plane graph with C components: |E| - |N| + C; each
    # component's outer walk is dropped, not just the largest one
    cases = [(random_instance(seed), 1) for seed in range(20)] + [(disjoint_triangles(), 2)]
    for net, components in cases:
        faces = compute_faces(net)
        assert len(faces) == net.num_edges - net.num_nodes + components
    assert disjoint_triangles().faces == ((0, 1, 2), (3, 4, 5))


def test_pipeless_node_adds_no_component():
    # E - V + C counts only the nodes that have a pipe: a non-source node
    # without one, declared first or last, leaves the traced faces as they are
    square = [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 3, 4, 1), ("d", 4, 1, 1)]
    corners = {"1": [0, 0], "2": [1, 0], "3": [1, 1], "4": [0, 1]}
    plain = make_net([1, 2, 3, 4], [1], square, coords=corners)
    assert compute_faces(plain) == [(1, 2, 3, 4)]
    for nodes in ([1, 2, 3, 4, 5], [5, 1, 2, 3, 4]):
        net = make_net(nodes, [1], square, coords={**corners, "5": [0.5, 0.5]})
        assert compute_faces(net) == [(1, 2, 3, 4)]
    pair = disjoint_triangles()
    doc = json.loads(serialize_network(pair))
    doc["nodes"].append(7)
    doc["coords"]["7"] = [3, 5]
    assert parse_network(json.dumps(doc)).faces == pair.faces == ((0, 1, 2), (3, 4, 5))


def test_declared_faces_used_as_is(fig1):
    assert fig1.faces_declared
    assert fig1.faces == ((0, 1, 4, 5), (1, 2, 3, 4))


def test_format_flow():
    assert format_flow(47000) == "47"
    assert format_flow(2500) == "2.5"
    assert format_flow(125) == "0.125"
    assert format_flow(0) == "0"
    assert format_flow(float("inf")) == "inf"
