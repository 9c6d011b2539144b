"""Water distribution network model: instance documents, validation, faces.

A network is a weighted undirected graph. Nodes are junctions, a nonempty
subset of them are *sources* (where water enters), and every edge is a pipe
carrying a nonnegative *demand* in litres per second (the aggregate draw of
the users attached to that pipe).

Valve positions are addressed by *slots*: each pipe has one possible valve
position at each of its two endpoints, so a network with ``m`` pipes has
``2*m`` slots. Slot ``2*e`` sits at the first declared endpoint of edge
``e`` and slot ``2*e + 1`` at the second. A *placement* is the set of slots
that actually hold a valve.

Demands are stored internally as integer millilitres per second so every
comparison made by the optimizer is exact; the document format accepts
decimals with up to three fractional digits.

Instance documents are JSON objects::

    {
      "nodes":   [1, 2, 3],
      "sources": [1],
      "edges":   [["a", 1, 2, 4.5], ["b", 2, 3, 10]],
      "faces":   [[1, 2, 3]],              // optional
      "coords":  {"1": [0, 0], "2": [1, 0], "3": [0.5, 1]}   // optional
    }

Each edge is ``[label, endpoint, endpoint, demand_lps]``. When ``faces``
is omitted but ``coords`` is present, the internal faces of the straight
line drawing are computed automatically; if neither is usable the face
information is simply absent (it only feeds an optional pruning rule).

Node and edge labels must not hold whitespace or ``#``: a placement file
names each valve by an ``edge:node`` token, separates tokens by whitespace
and starts a comment at ``#``. A label may hold ``:``.
"""

import json
import math
import sys

from .isolation import sector_labels
from .tables import NetworkTables

MLS = 1000  # internal flow unit: millilitres per second
_MAX_LPS = sys.float_info.max / MLS  # largest flow whose ml/s a float holds


class InstanceError(ValueError):
    """Problem with an instance document."""


class ParseError(InstanceError):
    """Document is not syntactically well formed."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(InstanceError):
    """Document parsed but violates a model invariant."""


class PlanarityError(ValidationError):
    """Straight-line drawing is not a plane embedding."""


def flow_from_lps(value, where="demand"):
    """Convert a document flow (l/s, up to 3 fractional digits) to int ml/s."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: flow must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{where}: flow must be finite")
    if abs(value) > _MAX_LPS:
        raise ValidationError(f"{where}: flow is too large (at most {_MAX_LPS:.4g} l/s)")
    mls = round(value * MLS)
    if abs(value * MLS - mls) > 1e-6:
        raise ValidationError(f"{where}: flow has more than 3 fractional digits")
    if mls < 0:
        raise ValidationError(f"{where}: flow must be >= 0")
    return mls


def format_flow(mls):
    """Render an internal ml/s figure in l/s, trimming trailing zeros."""
    if mls == math.inf:
        return "inf"
    mls = int(mls)
    sign = "-" if mls < 0 else ""
    q, r = divmod(abs(mls), MLS)
    if r == 0:
        return f"{sign}{q}"
    return f"{sign}{q}." + f"{r:03d}".rstrip("0")


class Network:
    """Validated, immutable network.

    Instances are safe to share across threads: after construction only
    the `tables` cache is filled, on first use, with read-only tables
    derived from the network, and threads that race there build equal
    ones. Build through
    :func:`parse_network` (document text) or the constructor
    (already-converted values, demands in ml/s).
    """

    def __init__(self, nodes, sources, edges, faces=None, coords=None, name=None):
        self.name = name
        self._tables = None
        self._init_nodes(nodes, sources)
        self._init_edges(edges)
        self._check_reachable()
        self._init_coords(coords)
        self._init_faces(faces)

    # -- construction ------------------------------------------------------

    def _init_nodes(self, nodes, sources):
        if not nodes:
            raise ValidationError("network has no nodes")
        self.node_labels = tuple(nodes)
        self.node_index = {}
        self._node_by_str = {}
        for i, label in enumerate(self.node_labels):
            if isinstance(label, (list, dict)):     # unhashable: it names nothing
                raise ValidationError(f"node id {label!r} must not be an array or object")
            _check_label("node", label)
            if label in self.node_index or str(label) in self._node_by_str:
                raise ValidationError(f"duplicate node id {label!r}")
            self.node_index[label] = i
            self._node_by_str[str(label)] = i
        if not sources:
            raise ValidationError("at least one source node is required")
        src = set()
        for label in sources:
            if isinstance(label, (list, dict)) or label not in self.node_index:
                raise ValidationError(f"source {label!r} is not a declared node")
            src.add(self.node_index[label])
        self.sources = frozenset(src)
        self.source_list = tuple(sorted(src))
        self.sources_mask = sum(1 << s for s in src)

    def _init_edges(self, edges):
        self.edge_labels = []
        self.edge_index = {}
        self._edge_by_str = {}
        self.endpoints = []
        self.demand = []
        seen_pairs = {}
        for k, (label, u_label, v_label, w) in enumerate(edges):
            if isinstance(label, (list, dict)):
                raise ValidationError(f"edge id {label!r} must not be an array or object")
            _check_label("edge", label)
            if label in self.edge_index or str(label) in self._edge_by_str:
                raise ValidationError(f"duplicate edge id {label!r}")
            for end in (u_label, v_label):
                if isinstance(end, (list, dict)) or end not in self.node_index:
                    raise ValidationError(f"edge {label!r}: endpoint {end!r} is not a declared node")
            u = self.node_index[u_label]
            v = self.node_index[v_label]
            if u == v:
                raise ValidationError(f"edge {label!r}: self-loops are not allowed")
            pair = (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise ValidationError(
                    f"edges {seen_pairs[pair]!r} and {label!r} connect the same node pair "
                    "(parallel pipes are not supported)")
            seen_pairs[pair] = label
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValidationError(f"edge {label!r}: internal demand must be a nonnegative integer")
            self.edge_index[label] = k
            self._edge_by_str[str(label)] = k
            self.edge_labels.append(label)
            self.endpoints.append((u, v))
            self.demand.append(w)
        self.edge_labels = tuple(self.edge_labels)
        self.endpoints = tuple(self.endpoints)
        self.demand = tuple(self.demand)
        self.total_demand = sum(self.demand)
        self._pair_edge = {pair: self.edge_index[lbl] for pair, lbl in seen_pairs.items()}

        incident = [[] for _ in self.node_labels]
        for e, (u, v) in enumerate(self.endpoints):
            incident[u].append(e)
            incident[v].append(e)
        self.incident = tuple(tuple(es) for es in incident)
        # per node: (edge, slot at this node, other endpoint, slot at other endpoint)
        inc = []
        for n, es in enumerate(self.incident):
            rows = []
            for e in es:
                u, v = self.endpoints[e]
                if n == u:
                    rows.append((e, 2 * e, v, 2 * e + 1))
                else:
                    rows.append((e, 2 * e + 1, u, 2 * e))
            inc.append(tuple(rows))
        self._inc = tuple(inc)
        # the slots that sit at a source node: a placement is feasible
        # exactly when every one of them holds a valve
        self.source_slots_mask = sum(1 << row[1] for s in self.source_list
                                     for row in self._inc[s])

    def _check_reachable(self):
        # with no valve placed the sectors are the connected components
        label, _, vertex = sector_labels(self, 0)
        fed = {label[s] for s in self.source_list}
        for e, v in enumerate(vertex):           # the lowest such pipe first
            if v not in fed:
                raise ValidationError(
                    f"edge {self.edge_labels[e]!r} is not reachable from any source")

    def _init_coords(self, coords):
        if coords is None:
            self.coords = None
            return
        out = {}
        for label, xy in coords.items():
            key = str(label)
            if key not in self._node_by_str:
                raise ValidationError(f"coords: unknown node {label!r}")
            if (not isinstance(xy, (list, tuple)) or len(xy) != 2
                    or not all(isinstance(c, (int, float)) and math.isfinite(c) for c in xy)):
                raise ValidationError(f"coords for node {label!r} must be a finite [x, y] pair")
            out[self._node_by_str[key]] = (float(xy[0]), float(xy[1]))
        if len(out) != self.num_nodes:
            raise ValidationError("coords must cover every node")
        self.coords = out

    def _init_faces(self, faces):
        if faces is not None:
            cycles = []
            for cycle in faces:
                if not isinstance(cycle, (list, tuple)):
                    raise ValidationError(f"face {cycle!r} must be an array of nodes")
                if len(cycle) < 3:
                    raise ValidationError(f"face {cycle!r} has fewer than 3 nodes")
                idx = []
                for label in cycle:
                    if isinstance(label, (list, dict)) or label not in self.node_index:
                        raise ValidationError(f"face {cycle!r}: unknown node {label!r}")
                    idx.append(self.node_index[label])
                for a, b in zip(idx, idx[1:] + idx[:1]):
                    if (min(a, b), max(a, b)) not in self._pair_edge:
                        raise ValidationError(
                            f"face {cycle!r}: consecutive nodes "
                            f"{self.node_labels[a]!r}, {self.node_labels[b]!r} are not an edge")
                cycles.append(_canonical_cycle(idx))
            self.faces = tuple(cycles)
            self.faces_declared = True
            return
        self.faces_declared = False
        if self.coords is None:
            self.faces = None
            return
        try:
            self.faces = tuple(_trace_internal_faces(self))
        except PlanarityError:
            # faces only feed an optional pruning rule; a bad drawing just loses it
            self.faces = None

    # -- basic queries -----------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.node_labels)

    @property
    def num_edges(self):
        return len(self.endpoints)

    @property
    def num_slots(self):
        return 2 * len(self.endpoints)

    def degree(self, node):
        return len(self.incident[node])

    @property
    def tables(self):
        """The `tables.NetworkTables` every solve reads, built by the first.
        It is kept in an attribute that `__init__` sets, not by
        `functools.cached_property`: writing the instance `__dict__` makes
        CPython read every later attribute of the network from a dict
        instead of its inline values, which slows the floods."""
        if self._tables is None:
            self._tables = NetworkTables(self)
        return self._tables

    def edge_between(self, a, b):
        """Edge index connecting node indices a and b, or None."""
        return self._pair_edge.get((min(a, b), max(a, b)))

    # -- slots ---------------------------------------------------------------

    def slot_id(self, edge, node):
        """Slot index of the valve position on `edge` next to `node`."""
        u, v = self.endpoints[edge]
        if node == u:
            return 2 * edge
        if node == v:
            return 2 * edge + 1
        raise ValueError(f"node {node} is not an endpoint of edge {edge}")

    def slot_node(self, slot):
        """Node index the slot sits next to."""
        return self.endpoints[slot >> 1][slot & 1]

    def slot_other_node(self, slot):
        return self.endpoints[slot >> 1][1 - (slot & 1)]

    def slot_token(self, slot):
        """Human-readable slot name, `edge_label:node_label`."""
        e = slot >> 1
        return f"{self.edge_labels[e]}:{self.node_labels[self.slot_node(slot)]}"

    def parse_slot_token(self, token):
        """Slot id of an `edge_label:node_label` token. Either label may hold
        a `:`, so every split is tried, and exactly one must name an edge
        and one of its endpoints."""
        token = token.strip()
        if ":" not in token:
            raise ValidationError(f"bad slot token {token!r}, expected edge:node")
        slots = []
        at = token.find(":")
        while at >= 0:
            e = self._edge_by_str.get(token[:at])
            n = self._node_by_str.get(token[at + 1:])
            if e is not None and n in self.endpoints[e]:
                slots.append(self.slot_id(e, n))
            at = token.find(":", at + 1)
        if len(slots) == 1:
            return slots[0]
        if slots:
            raise ValidationError(f"slot token {token!r} names more than one slot")
        edge_s, node_s = token.rsplit(":", 1)
        if edge_s not in self._edge_by_str:
            raise ValidationError(f"slot token {token!r}: unknown edge {edge_s!r}")
        if node_s not in self._node_by_str:
            raise ValidationError(f"slot token {token!r}: unknown node {node_s!r}")
        raise ValidationError(
            f"slot token {token!r}: node {node_s!r} is not an endpoint of edge {edge_s!r}")

    def placement_tokens(self, placement):
        return [self.slot_token(s) for s in sorted(placement)]

    # -- equality (semantic content) ----------------------------------------

    def _content(self):
        return (self.node_labels,
                frozenset(self.node_labels[s] for s in self.sources),
                tuple((lbl, self.node_labels[u], self.node_labels[v], w)
                      for lbl, (u, v), w in zip(self.edge_labels, self.endpoints, self.demand)),
                self.faces,
                None if self.coords is None else tuple(sorted(self.coords.items())))

    def __eq__(self, other):
        return isinstance(other, Network) and self._content() == other._content()

    def __hash__(self):
        return hash(self._content()[:3])

    def __repr__(self):
        name = f" {self.name!r}" if self.name else ""
        return (f"<Network{name}: {self.num_nodes} nodes, {self.num_edges} edges, "
                f"{len(self.sources)} source(s), total demand {format_flow(self.total_demand)} l/s>")


def _check_label(kind, label):
    text = str(label)
    if "#" in text or any(c.isspace() for c in text):
        raise ValidationError(f"{kind} id {label!r} must not hold whitespace or '#'")


def _canonical_cycle(idx):
    """Rotate/orient a node-index cycle into a deterministic representative."""
    k = idx.index(min(idx))
    fwd = tuple(idx[k:] + idx[:k])
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev)


# -- document parsing ---------------------------------------------------------

_KNOWN_KEYS = {"nodes", "sources", "edges", "faces", "coords", "name", "comment"}


def parse_network(text):
    """Parse and validate an instance document. Returns a Network.

    Raises ParseError (with line/column) for malformed text and
    ValidationError naming the violated invariant otherwise.
    """
    def _bad_const(name):
        raise ParseError(f"non-finite number {name} is not allowed")

    try:
        doc = json.loads(text, parse_constant=_bad_const)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(f"unknown document keys: {sorted(unknown)}")
    for key in ("nodes", "sources", "edges"):
        if key not in doc:
            raise ValidationError(f"missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise ValidationError(f"{key!r} must be an array")

    edges = []
    for entry in doc["edges"]:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValidationError(f"edge entry {entry!r} must be [id, node, node, demand]")
        label, u, v, w = entry
        edges.append((label, u, v, flow_from_lps(w, where=f"edge {label!r}")))

    faces = doc.get("faces")
    if faces is not None and not isinstance(faces, list):
        raise ValidationError("'faces' must be an array of node cycles")
    coords = doc.get("coords")
    if coords is not None and not isinstance(coords, dict):
        raise ValidationError("'coords' must be an object mapping node to [x, y]")

    return Network(doc["nodes"], doc["sources"], edges,
                   faces=faces, coords=coords, name=doc.get("name"))


def serialize_network(net):
    """Canonical document text for a network (parse round-trips it)."""
    doc = {}
    if net.name:
        doc["name"] = net.name
    doc["nodes"] = list(net.node_labels)
    doc["sources"] = sorted((net.node_labels[s] for s in net.sources), key=str)
    doc["edges"] = []
    for lbl, (u, v), w in zip(net.edge_labels, net.endpoints, net.demand):
        q, r = divmod(w, MLS)
        doc["edges"].append([lbl, net.node_labels[u], net.node_labels[v],
                             q if r == 0 else round(w / MLS, 3)])
    if net.faces is not None and net.faces_declared:
        doc["faces"] = [[net.node_labels[n] for n in cycle] for cycle in net.faces]
    if net.coords is not None:
        doc["coords"] = {str(net.node_labels[n]): list(xy)
                         for n, xy in sorted(net.coords.items())}
    return json.dumps(doc, indent=2)


def read_text(path):
    """The text of a UTF-8 file; ParseError when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_instance(path):
    return parse_network(read_text(path))


def parse_placement(net, text):
    """Placement file: whitespace-separated edge:node tokens, # comments."""
    slots = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for token in line.split():
            slot = net.parse_slot_token(token)
            if slot in slots:
                raise ValidationError(f"slot {token!r} listed twice")
            slots.add(slot)
    return frozenset(slots)


# -- planar faces -------------------------------------------------------------

def compute_faces(net):
    """Boundary cycles of the internal faces of the straight-line drawing.

    Requires coordinates for every node. The rotation system is obtained by
    sorting each node's incident edges by angle; the unbounded outer face is
    excluded. Cycles come back as canonicalized node-label tuples.
    """
    cycles = _trace_internal_faces(net)
    return [tuple(net.node_labels[n] for n in cycle) for cycle in cycles]


def _trace_internal_faces(net):
    if net.coords is None:
        raise ValidationError("face computation requires node coordinates")
    if net.num_edges == 0:
        return []
    pos = net.coords
    _check_no_crossings(net)

    rotation = {}
    for n in range(net.num_nodes):
        nbrs = [other for _, _, other, _ in net._inc[n]]
        nbrs.sort(key=lambda o: math.atan2(pos[o][1] - pos[n][1], pos[o][0] - pos[n][0]))
        rotation[n] = nbrs

    # next dart after arriving at v from u: the rotation successor of u at v.
    # Each walk starts at the lowest dart no earlier walk took
    darts = sorted(net.endpoints + tuple((v, u) for u, v in net.endpoints))
    walked = set()
    walks = []
    for start in darts:
        if start in walked:
            continue
        walk = [start]
        while True:
            u, v = walk[-1]
            ring = rotation[v]
            w = ring[(ring.index(u) + 1) % len(ring)]
            dart = (v, w)
            if dart == start:
                break
            walk.append(dart)
        walked.update(walk)
        walks.append([u for u, _ in walk])

    def area(nodes):
        s = 0.0
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            s += pos[a][0] * pos[b][1] - pos[b][0] * pos[a][1]
        return s / 2.0

    # this next-dart rule walks bounded faces clockwise: each component's
    # outer walk is the one with positive (counter-clockwise) signed area, or
    # zero for a tree, and a plane drawing of E edges on V nodes in C
    # components has E - V + C bounded faces. With no valve placed the
    # sectors are the components, and each labels its lowest node with itself
    internal = [w for w in walks if area(w) < 0]
    label = sector_labels(net, 0)[0]
    piped = [k for k in range(net.num_nodes) if net.incident[k]]
    components = sum(label[k] == k for k in piped)
    if len(internal) != net.num_edges - len(piped) + components:
        raise PlanarityError("face count does not match a plane embedding")
    return [_canonical_cycle(w) for w in internal]


def _check_no_crossings(net):
    """Raise PlanarityError naming the lowest pair of pipes, in edge order,
    that overlap in the drawing. Two pipes overlap when they cross
    properly (each has its ends on strict opposite sides of the other), or
    when an end of one that is not an end of the other lies on the other:
    its orientation against that pipe is 0 and it lies in that pipe's
    bounding box. This one rule covers pipes that share a node too: the
    shared end is left out, so they overlap exactly when the far end of one
    lies on the other. Any faster check must keep the rule and the order."""
    pos = net.coords

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        eps = 1e-12 * (1.0 + abs(v))
        if v > eps:
            return 1
        if v < -eps:
            return -1
        return 0

    def in_box(a, b, c):
        return (min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
                and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12)

    endpoints = net.endpoints
    m = len(endpoints)
    for e in range(m):
        u, v = ends = endpoints[e]
        a, b = pos[u], pos[v]
        for f in range(e + 1, m):
            x, y = other = endpoints[f]
            c, d = pos[x], pos[y]
            o1, o2 = orient(a, b, c), orient(a, b, d)
            o3, o4 = orient(c, d, a), orient(c, d, b)
            if ((o1 * o2 < 0 and o3 * o4 < 0)
                    or (o1 == 0 and x not in ends and in_box(a, b, c))
                    or (o2 == 0 and y not in ends and in_box(a, b, d))
                    or (o3 == 0 and u not in other and in_box(c, d, a))
                    or (o4 == 0 and v not in other and in_box(c, d, b))):
                raise PlanarityError(
                    f"edges {net.edge_labels[e]!r} and {net.edge_labels[f]!r} cross in the drawing")
