"""Exact minimax branch and bound over valve placements.

The search assigns one slot at a time (valve present / absent) and keeps,
over placements of at most N valves, the one whose worst single-pipe break
loses the least demand. Adding a valve never raises any break's damage, so
the best placement of at most N valves, padded with free slots to exactly
N, is an optimal placement of exactly N. The opponent's side of the game
needs no search of its own: once a placement is complete, the worst break
is found by exact per-sector evaluation.

Four pruning families cut the tree. The face and symmetry rules are
dominance rules: each drops a placement only when one with a valve fewer,
or with a valve moved, does at least as well within the same budget:

* source rule: every slot next to a source must hold a valve in any
  feasible placement, so those slots are fixed present at the root;
* face rule: a face cannot carry exactly one valve on the pipes its
  boundary walks an odd number of times. Those pipes form edge-disjoint
  cycles, and a lone valve on a cycle separates nothing; a pipe walked
  twice hangs inside the face and is left out. The rule also looks ahead:
  every face that holds one valve now (a lonely face) needs one more on
  one of its undecided slots, and one more valve relieves only the lonely
  faces its slot lies on. Lonely faces linked by shared undecided slots
  form components, and a component of k faces whose best slot lies on w
  of them needs at least ceil(k / w) more valves (`TrailedState.need`).
  A slot lies on at most `reach` distinct faces (traced faces give 2,
  declared faces may give more), so a valve fails at once when the lonely
  faces exceed `reach` times the valves left; otherwise the components are
  counted at the propagation fixpoint. A branch dies once they need more
  valves than are left. One cover then empties every undecided slot on no
  lonely face whose valve would starve the lonely faces: on z faces
  without a valve, it makes those lonely too, and fails the reach test
  when lonely + z > reach * (left - 1). When the components need exactly
  the valves left, every such slot qualifies whatever its z, since a
  valve there relieves nothing and leaves one valve too few (with the
  budget spent, every undecided slot);
* symmetry rule: at a non-source degree-2 node the two surrounding slots
  are interchangeable, so one of them is pinned empty up front;
* bound rule: classes of nodes already known to share a sector carry a
  demand lower bound `lb`; once a class reaches the incumbent the branch is
  dead. A class that passes carries a second, tighter bound, the cut-off
  bound (`Search.cutoff_bound`): `lb` plus the demand of the pipes its
  sector's break leaves dry that `lb` does not count yet. The bound rule
  also stops the whole search once the incumbent meets the bridge floor,
  the worst case with a valve on every slot, which no placement can beat
  (see the `isolation` module docstring for why).

Branching is fail-first on the bound rule. The search branches on the
undecided slot with the largest `lb(C) + 2 * add`, C being the class of
the slot's node and `add` the demand that emptying the slot adds to C: the
pipe's demand, or, when the pipe's other slot is empty already, the bound
of the class across (0 when that is C). That is the bound the empty
child's class would carry plus the demand the valve child keeps out of it;
ties go to the heaviest pipe, then the lowest slot id. The valve child is
tried first, then the empty one.

The cover often empties a dozen slots at one fixpoint, so
`TrailedState.empty_off_face` does it in one batch, with the same bound
test after each slot; the decision's frame undoes it with the rest.
Like a propagator that wakes only when a variable it watches changes, the
cover is re-derived only at a fixpoint whose walk placed a valve or
emptied a slot of a lonely face. Every successful `Search.decide` leaves
a settled state, whose components need at most the valves left and whose
cover is empty; emptying a slot on no lonely face leaves `need`, the
lonely faces and the valves left as they were and only shrinks the cover,
so the state stays settled. The fresh state, with no slot decided, is the
one state not left by a `decide`, so it is never taken as settled.
At a complete assignment of exactly N valves the classes are the sectors
and their bounds the sector demands, so the leaf is rejected on the
segment graph built from them (`TrailedState.worst_damage`) before any
flood; a leaf that may improve, or that needs padding, is evaluated in
full by `worst_case_fast`.

Both class bounds are admissible. A class C holds a pipe (a slot at one
of its nodes is empty), so C's nodes lie inside that pipe's final sector,
and `lb(C)` counts only pipes of that sector: those with an empty slot at
a node of C. The cut-off bound adds unintended isolation (Jun &
Loganathan, JWRPM 133(2), 2007). When the sector breaks, a node of C
passes no water, since each of its pipes is in the sector or closed off
by a boundary valve at that node; a node that no source reaches once C's
nodes are deleted has no source path; so a pipe with both ends among
those is fed from neither end. Its demand is lost in that break, whatever
the completion, and adding what `lb(C)` does not count yet never counts a
pipe twice. C only grows along a branch, and deleting more nodes only
dries more, so the bound only grows too. It depends on C's node set alone,
so `Search` floods once per distinct set (`_DryPipes`). `decide` tests it
only on the class an empty slot grew, after the plain `lb` test passed,
against a finite incumbent, and walks the dry pipes only when `lb` plus
all their demand reaches the incumbent; the lonely-face batch tests `lb`
alone. `lb_prune` switches both bounds off. Improvements are strict: each new
incumbent imposes `ud < best` from then on. By default the search continues
in place after an improvement; `restart_mode="restarting"` instead abandons
the tree and starts over with the tightened bound, which reproduces the
slower restart-per-solution behaviour for comparison.
"""

import math
import time
from dataclasses import dataclass, fields

from .isolation import frozen_placement, mask_bits, present_mask, worst_case_fast
from .state import ABSENT, PRESENT, UNDECIDED, TrailedState

RESTART_MODES = ("continuing", "restarting")
_BRANCH_ORDER = (PRESENT, ABSENT)      # the valve child first, then the empty one


class BudgetError(ValueError):
    """A valve budget (or budget range) outside what the network offers."""


def check_budget(net, n_valves):
    """Return n_valves; raise BudgetError unless it is an int in [1, 2 * num_edges]."""
    if isinstance(n_valves, bool) or not isinstance(n_valves, int):
        raise BudgetError(f"valve budget must be an integer, got {n_valves!r}")
    if not 1 <= n_valves <= net.num_slots:
        raise BudgetError(f"valve budget must be in [1, {net.num_slots}], got {n_valves}")
    return n_valves


class InfeasibleBudget(Exception):
    """No placement of the requested size can isolate every pipe."""

    def __init__(self, message, witness_edge=None):
        super().__init__(message)
        self.witness_edge = witness_edge


class _LimitExceeded(Exception):
    pass


@dataclass
class SolverOptions:
    face_constraints: bool = True
    symmetry: bool = True
    lb_prune: bool = True
    restart_mode: str = "continuing"
    time_limit: float | None = None          # seconds
    node_limit: int | None = None
    initial_incumbent: frozenset | None = None
    on_incumbent: object = None              # callable(elapsed_s, ud_mls) or None

    def __post_init__(self):
        if self.restart_mode not in RESTART_MODES:
            raise ValueError(f"restart_mode must be one of {RESTART_MODES}")
        for name in ("time_limit", "node_limit"):
            limit = getattr(self, name)
            if limit is not None and not limit >= 0:     # NaN fails too
                raise ValueError(f"{name} must be at least 0, got {limit!r}")


@dataclass(slots=True)
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    lb_prunes: int = 0
    cutoff_prunes: int = 0
    face_fails: int = 0
    face_forced: int = 0
    budget_fails: int = 0         # always 0; perfbench/run.py still reads it
    conflicts: int = 0
    reduced_cost_forced: int = 0  # always 0; perfbench/run.py still reads it
    symmetry_fixed: int = 0
    source_fixed: int = 0
    lower_bound: int = 0         # ml/s, the bridge floor
    infeasible_leaves: int = 0    # always 0; perfbench/run.py still reads it
    rejected_leaves: int = 0
    restarts: int = 0

    def as_dict(self):
        """The counters by name, in field order (`valveplan solve` prints them so)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class Solution:
    placement: frozenset | None
    ud: float                    # ml/s; math.inf when nothing was found
    argmax_edge: int | None
    proof: str                   # "optimal" | "best-found"
    stats: SearchStats
    anytime: list                # [(elapsed_seconds, ud_mls)], strictly improving
    elapsed: float
    interrupted: bool = False    # a KeyboardInterrupt ended the solve

    def tokens(self, net):
        return net.placement_tokens(self.placement) if self.placement else []


def symmetry_forced_slots(net):
    """Slots pinned empty by the degree-2 interchange argument.

    At a non-source node of degree two, a valve on either surrounding slot
    splits the same pair of pipes and nodes carry no demand, so only the
    slot on the lower-numbered edge is kept available. Source nodes are
    exempt: which side keeps the source genuinely matters there.
    """
    forced = []
    for node in range(net.num_nodes):
        if node in net.sources or net.degree(node) != 2:
            continue
        eb = max(net.incident[node])
        forced.append(net.slot_id(eb, node))
    return forced


def required_source_slots(net):
    """Every slot next to a source must carry a valve in any feasible
    placement, else the pipe behind it can never be de-watered."""
    return net.source_slots_mask.bit_count()


class _DryPipes(dict):
    """Node mask of a class -> (demand, pipe mask) of the pipes with no
    endpoint that a source reaches once the class's nodes are deleted,
    filled by one bitmask flood on first use."""

    __slots__ = ("net",)

    def __init__(self, net):
        super().__init__()
        self.net = net

    def __missing__(self, members):
        net = self.net
        nbrs = net.tables.node_nbrs
        pipes = net.tables.node_pipes
        seen = members | net.sources_mask
        frontier = net.sources_mask & ~members
        wet = 0                                 # pipes with a reached endpoint
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            n = low.bit_length() - 1
            wet |= pipes[n]
            new = nbrs[n] & ~seen
            seen |= new
            frontier |= new
        dry = ((1 << net.num_edges) - 1) & ~wet
        self[members] = found = (sum(map(net.demand.__getitem__, mask_bits(dry))), dry)
        return found


class Search:
    """One depth-first solve. Exposed for tests and observers; use
    :func:`solve` for the high-level entry point.

    The incumbent tuple is replaced atomically, so `snapshot()` may be
    polled from another thread while the search runs. Everything that
    depends on the network alone, the bridge floor, the face tables and the
    branching key's static parts, is read from `Network.tables`.
    """

    def __init__(self, net, n_valves, opts):
        self.net = net
        self.nv = n_valves
        self.opts = opts
        self.tables = tables = net.tables
        faces = tables.faces if opts.face_constraints else tables.no_faces
        self.state = TrailedState(net, faces)
        self.floor = tables.floor
        self.stats = SearchStats(lower_bound=self.floor)
        self._best = (math.inf, None, None)   # (ud, placement, argmax edge)
        self.anytime = []
        self._unwind = False
        self.t0 = time.perf_counter()
        self.reach = faces.reach
        self.dry = _DryPipes(net)

    # -- incumbent ----------------------------------------------------------

    @property
    def incumbent_ud(self):
        return self._best[0]

    @property
    def floor_met(self):
        """The incumbent meets the bridge floor, so it is optimal. Always
        False with `lb_prune` off, which switches the floor stop off too."""
        return self.opts.lb_prune and self._best[0] <= self.floor

    def snapshot(self):
        """(ud_mls, placement, argmax_edge) of the best solution so far."""
        return self._best

    def elapsed(self):
        return time.perf_counter() - self.t0

    def _pad(self, mask):
        """`mask` with its lowest empty slots filled up to exactly `nv`
        valves. A valve never raises any break's damage, so padding an
        at-most-N placement loses nothing."""
        free = ~mask
        for _ in range(self.nv - mask.bit_count()):
            low = free & -free
            mask |= low
            free ^= low
        return mask

    def _offer(self, mask):
        """Pad a placement mask of at most `nv` valves to `nv`, evaluate it
        and install it on a strict improvement; an infeasible one has ud
        infinity, which never improves. Returns True when installed."""
        mask = self._pad(mask)
        ud, edge, _ = worst_case_fast(self.net, mask)
        if ud >= self.incumbent_ud:
            return False
        self._best = (ud, frozen_placement(mask_bits(mask)), edge)
        self.anytime.append((self.elapsed(), ud))
        if self.opts.on_incumbent:
            self.opts.on_incumbent(self.anytime[-1][0], ud)
        return True

    def try_incumbent(self, placement):
        """Offer a candidate slot set of at most `nv` valves. Returns True
        when it was installed."""
        if len(placement) > self.nv or not all(0 <= s < self.net.num_slots for s in placement):
            return False
        return self._offer(present_mask(self.net, placement))

    # -- propagation ---------------------------------------------------------

    def cutoff_bound(self, root):
        """The cut-off bound of the class C rooted at `root`, which must
        hold a pipe (an empty slot at one of its nodes): `lb(C)` plus the
        demand of the pipes that C's sector's break leaves dry and `lb(C)`
        does not count yet. A dry pipe has no endpoint that a source
        reaches once C's nodes are deleted; `lb(C)` counts a pipe when it
        has an empty slot at a node of C."""
        st = self.state
        value = st.value
        labels = st.root
        slot_node = st.slot_node
        demand = self.net.demand
        total, dry = self.dry[st.members[root]]
        while dry:
            low = dry & -dry
            dry ^= low
            e = low.bit_length() - 1
            a = 2 * e
            if ((value[a] == ABSENT and labels[slot_node[a]] == root)
                    or (value[a + 1] == ABSENT and labels[slot_node[a + 1]] == root)):
                total -= demand[e]
        return st.lb[root] + total

    def decide(self, slot, value):
        """Assign and propagate to fixpoint. False means the branch failed.

        The queue is a plain list of (slot, value, forced) entries, walked
        first in, first out by a `for` loop whose list iterator is the read
        index: it also reaches the entries appended while it runs.

        At the fixpoint one lonely-face cover empties, in one batch
        (`TrailedState.empty_off_face`), every undecided slot on no lonely
        face whose valve would leave more lonely faces than the valves
        left can relieve: on z faces without a valve, it qualifies when
        lonely + z > reach * (left - 1), and when the lonely faces need
        exactly the valves left (the tight cover) it qualifies whatever
        its z. The batch goes in ascending slot order with the bound tested
        after each slot, and starts the next list with the last slots of
        the faces it left holding no valve. A slot the face rule queued or
        the cover emptied counts in `face_forced` once, when the entry or
        the batch actually decides it; an entry whose slot already holds
        its value counts nothing, and a batch the bound stops counts the
        slots it decided. The walk tests the class an empty slot grew
        against `lb` and then the cut-off bound; the batch tests `lb`
        only. No decision goes past the budget, so none is
        tested against it: a fixpoint with no valve left empties every
        undecided slot, and within a walk only a lonely face queues a
        valve, while the valve that spends the budget fails the reach test
        if any lonely face is left.

        The fixpoint re-derives the cover only when the walk since the last
        settled state placed a valve or emptied a slot of a lonely face, or
        when the decide started from the fresh state. A successful decide,
        and a batch that leaves no cascade to walk, leave the state settled
        (`need` <= left and an empty cover), and undoing a frame returns to
        a state that was settled, or fresh, at its `push_frame`. So only
        `decide` may write the search's state, and after a failed decide
        the caller undoes the frame before deciding again."""
        st = self.state
        stats = self.stats
        nv = self.nv
        values = st.value
        set_value = st.set_value
        slot_faces = st.slot_faces
        face_valves = st.face_valves
        face_undecided = st.face_undecided
        face_slot_sets = st.face_slot_sets
        lb = st.lb
        members = st.members
        dry = self.dry
        reach = self.reach
        # a class bound at or past it kills the branch; only a leaf installs
        # a new incumbent, and `lb_prune` off leaves nothing to reach
        bound = self.incumbent_ud if self.opts.lb_prune else math.inf
        cutoff = bound < math.inf
        # the state is settled unless it is the fresh one, read off the
        # values: no valve and no empty slot
        woke = not st.n_present and ABSENT not in values
        queue = [(slot, value, False)]
        while True:
            for s, v, forced in queue:          # grows while it is walked
                cur = values[s]
                if cur == v:
                    continue
                if cur != UNDECIDED:
                    stats.conflicts += 1
                    return False
                root = set_value(s, v)
                if forced:
                    stats.face_forced += 1

                if v == PRESENT:
                    woke = True
                    if st.lonely > reach * (nv - st.n_present):
                        stats.face_fails += 1
                        return False
                elif lb[root] >= bound:
                    stats.lb_prunes += 1
                    return False
                elif (cutoff and lb[root] + dry[members[root]][0] >= bound
                      and self.cutoff_bound(root) >= bound):
                    stats.cutoff_prunes += 1
                    return False

                for f in slot_faces[s]:
                    valves = face_valves[f]
                    if valves >= 2:
                        continue
                    if valves:                  # an empty slot leaves a lonely face
                        woke = True
                    undecided = face_undecided[f]
                    if undecided == 0:
                        if valves == 1:
                            stats.face_fails += 1
                            return False
                    elif undecided == 1:
                        for last in face_slot_sets[f]:
                            if values[last] == UNDECIDED:
                                break
                        queue.append((last, PRESENT if valves == 1 else ABSENT, True))

            # a walk that placed no valve and emptied no slot of a lonely
            # face leaves `need`, `lonely` and `left` as they were and only
            # shrinks the cover, so from a settled state it stays settled
            if not woke:
                return True
            # at the fixpoint every lonely face keeps an undecided slot, so
            # they need at least `need` <= `lonely` more valves, and past the
            # valves left the branch is dead. A valve on a slot that lies on
            # no lonely face but on z faces without a valve makes those z
            # lonely too, and fails the reach test once lonely + z exceeds
            # reach * (left - 1): such slots are emptied, and propagation
            # goes on. At need == left every slot off the lonely faces
            # qualifies (z >= 0; with no valve left that is every slot, and
            # not by the face rule); below lonely <= reach * (left - 2) none
            # can, since no slot lies on more than `reach` faces
            left = nv - st.n_present
            lonely = st.lonely
            if lonely >= left and (need := st.need()) >= left:
                if need > left:
                    stats.face_fails += 1
                    return False
                z = 0
            elif lonely > reach * (left - 2):
                z = reach * (left - 1) - lonely + 1
            else:
                return True
            off = st.off_face_slots(z)
            if not off:
                return True
            emptied, cascades = st.empty_off_face(off, bound)
            if left:
                stats.face_forced += emptied
            if cascades is None:
                stats.lb_prunes += 1
                return False
            # the batch leaves the state settled; its cascades, if any, may
            # wake it, and with none the loop returns at once
            woke = False
            queue = [(u, ABSENT, True) for u in cascades]

    # -- branching ------------------------------------------------------------

    def choose_branch(self):
        """Undecided slot to branch on next (None when complete).

        The slot whose emptying weighs most on its class bound, fail-first:
        for an undecided slot s of class C, `add(s)` is the demand that
        emptying s adds to C. That is the pipe's demand while the opposite
        slot is not empty; with the opposite slot empty the pipe is counted
        already, and emptying s merges in the class across, so it is that
        class's bound, or 0 when the class across is C itself. The slot
        with the largest `lb(C) + 2 * add(s)` wins: the bound the empty
        child's class would carry, plus the demand the valve child keeps
        out of it. Ties go to the heaviest pipe, then the lowest slot id.
        """
        st = self.state
        value = st.value
        lb = st.lb
        labels = st.root
        slot_node = st.slot_node
        slot_other = st.slot_other
        tables = self.tables
        scale = tables.scale
        tie = tables.tie
        pipe_key = tables.pipe_key
        best = None
        best_key = -1
        for slot in st.undecided_slots():
            here = labels[slot_node[slot]]
            if value[slot ^ 1] != ABSENT:
                key = lb[here] * scale + pipe_key[slot]
            else:
                across = labels[slot_other[slot]]
                score = lb[here] + 2 * lb[across] if across != here else lb[here]
                key = score * scale + tie[slot]
            if key > best_key:
                best, best_key = slot, key
        return best

    # -- search ---------------------------------------------------------------

    def _leaf(self):
        """Evaluate a complete assignment. It holds every source-side slot,
        so it is feasible (see the `isolation` module docstring). One of
        exactly `nv` valves whose damage, read off the classes, cannot beat
        the incumbent is rejected without `worst_case_fast`; any other goes
        to `_offer`, which pads and evaluates it in full."""
        stats = self.stats
        stats.leaves += 1
        st = self.state
        if st.n_present == self.nv and st.worst_damage() >= self.incumbent_ud:
            stats.rejected_leaves += 1
        elif self._offer(st.present_mask()):
            if self.opts.restart_mode == "restarting" or self.floor_met:
                self._unwind = True
        else:
            stats.rejected_leaves += 1

    def _enter(self):
        """Count a node; evaluate a leaf (None) or pick the slot to branch on."""
        stats = self.stats
        stats.nodes += 1
        o = self.opts
        if o.node_limit is not None and stats.nodes > o.node_limit:
            raise _LimitExceeded
        if o.time_limit is not None and self.elapsed() > o.time_limit:
            raise _LimitExceeded
        slot = self.choose_branch()
        if slot is None:
            self._leaf()
        return slot

    def explore(self):
        """Depth-first search below the current state, on an explicit stack
        rather than Python's. Every open node but the first sits in a frame
        its parent opened; a restart or a floor stop closes them all."""
        # bound once per call, after any wrapper was installed on the class
        decide = self.decide
        enter = self._enter
        push_frame = self.state.push_frame
        undo_frame = self.state.undo_frame
        slot = enter()
        stack = [] if slot is None else [(slot, iter(_BRANCH_ORDER))]
        while stack:
            slot, values = stack[-1]
            value = next(values, None)
            if value is None:
                stack.pop()
                if stack:
                    undo_frame()
                continue
            push_frame()
            if decide(slot, value):
                child = enter()
                if child is not None:
                    stack.append((child, iter(_BRANCH_ORDER)))
                    continue
            undo_frame()
            if self._unwind:
                for _ in range(len(stack) - 1):
                    undo_frame()
                return

    def init_root(self):
        """Apply up-front decisions. False when the root is already dead."""
        # every source-side slot holds a valve in any feasible placement:
        # without it, breaking that pipe leaves the source in its sector
        for slot in mask_bits(self.net.source_slots_mask):
            if self.state.value[slot] == UNDECIDED:
                self.stats.source_fixed += 1
            if not self.decide(slot, PRESENT):
                return False
        if self.opts.symmetry:
            for slot in symmetry_forced_slots(self.net):
                if self.state.value[slot] != UNDECIDED:
                    continue
                self.stats.symmetry_fixed += 1
                if not self.decide(slot, ABSENT):
                    return False
        return True

    def run(self):
        """Search until the tree is exhausted or the incumbent meets the
        floor; in restarting mode, start over after every improvement."""
        while True:
            self._unwind = False
            self.explore()
            if not self._unwind or self.floor_met:
                return
            self.stats.restarts += 1


def solve(net, n_valves, opts=None):
    """Optimal placement of exactly `n_valves` valves.

    The search looks for at most `n_valves` valves and pads every answer
    with the lowest free slots, so `len(placement) == n_valves` always
    holds. Returns a Solution with proof "optimal" when the search completed or
    the incumbent met the bridge floor, or "best-found" when a time/node
    limit expired or a KeyboardInterrupt arrived first. The interrupt is
    not re-raised: it sets `Solution.interrupted`, and a caller that solves
    in a loop must check that flag to stop. Raises InfeasibleBudget (with a
    witness pipe) when the budget is below the number of source-side slots,
    which is exactly when no placement of that size can isolate every pipe,
    and BudgetError (a ValueError) unless the budget is an int in [1, 2 * num_edges].
    A Solution without a placement only follows a limit or an interrupt.
    """
    if opts is None:
        opts = SolverOptions()
    check_budget(net, n_valves)

    required = required_source_slots(net)
    if n_valves < required:
        witness = mask_bits(net.source_slots_mask)[0] >> 1
        raise InfeasibleBudget(
            f"{n_valves} valves cannot isolate the pipes next to the sources: "
            f"every source-side slot needs one ({required} in total)",
            witness_edge=witness)

    search = Search(net, n_valves, opts)
    limited = interrupted = False
    try:
        if opts.initial_incumbent is not None:
            search.try_incumbent(opts.initial_incumbent)
        # a warm start that meets the floor needs no search at all
        if not search.floor_met and search.init_root():
            search.run()
    except _LimitExceeded:
        limited = True
    except KeyboardInterrupt:
        limited = interrupted = True

    # without an incumbent no rule cuts the leaf made of the source-side
    # slots alone, so only a limit or an interrupt ends a solve without one
    ud, placement, edge = search.snapshot()
    proof = "best-found" if limited and not search.floor_met else "optimal"
    return Solution(placement, ud, edge, proof, search.stats, search.anytime,
                    search.elapsed(), interrupted)
