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
  valves than are left, and when they need exactly the valves left, every
  undecided slot on no lonely face is emptied, since a valve there would
  leave one valve too few (with the budget spent, every undecided slot);
* symmetry rule: at a non-source degree-2 node the two surrounding slots
  are interchangeable, so one of them is pinned empty up front;
* bound rule: classes of nodes already known to share a sector carry a
  demand lower bound; once a class reaches the incumbent the branch is
  dead. The bound rule also stops the whole search once the incumbent
  meets the bridge floor, the worst case with a valve on every slot, which
  no placement can beat (see the `isolation` module docstring for why).

The class bound ignores unintended isolation, which only adds damage, so
it never overestimates a completion. Improvements are strict: each new
incumbent imposes `ud < best` from then on. By default the search continues
in place after an improvement; `restart_mode="restarting"` instead abandons
the tree and starts over with the tightened bound, which reproduces the
slower restart-per-solution behaviour for comparison.
"""

import math
import time
from dataclasses import dataclass

from .isolation import (bridge_lower_bound, frozen_placement, mask_bits, present_mask,
                        worst_case_fast)
from .state import ABSENT, PRESENT, UNDECIDED, TrailedState

RESTART_MODES = ("continuing", "restarting")


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


@dataclass
class SearchStats:
    nodes: int = 0
    leaves: int = 0
    lb_prunes: int = 0
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
        return dict(self.__dict__)


@dataclass
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


def face_slot_lists(net):
    """Per face: the sorted slots of the pipes its boundary walks an odd
    number of times, two per pipe. Those pipes form edge-disjoint cycles;
    a pipe walked twice hangs inside the face and lies on none of them."""
    if net.faces is None:
        return []
    out = []
    for cycle in net.faces:
        odd = set()
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            odd ^= {net.edge_between(a, b)}
        out.append([s for e in sorted(odd) for s in (2 * e, 2 * e + 1)])
    return out


class Search:
    """One depth-first solve. Exposed for tests and observers; use
    :func:`solve` for the high-level entry point.

    The incumbent tuple is replaced atomically, so `snapshot()` may be
    polled from another thread while the search runs.
    """

    def __init__(self, net, n_valves, opts):
        self.net = net
        self.nv = n_valves
        self.opts = opts
        self.state = TrailedState(net, face_slot_lists(net) if opts.face_constraints else ())
        self.floor = bridge_lower_bound(net)
        self.stats = SearchStats(lower_bound=self.floor)
        self._best = (math.inf, None, None)   # (ud, placement, argmax edge)
        self.anytime = []
        self._unwind = False
        self._order = (PRESENT, ABSENT)
        self.t0 = time.perf_counter()
        # most distinct faces one slot lies on, so most lonely faces one
        # more valve can relieve (traced faces give 2, declared ones more)
        self.reach = max(map(len, self.state.slot_faces), default=0)
        # per node: (static rank, slot) of its slots, heaviest pipe first,
        # then lowest slot id
        order = sorted(range(net.num_slots), key=lambda s: (-net.demand[s >> 1], s))
        slots_at = [[] for _ in range(net.num_nodes)]
        for rank, slot in enumerate(order):
            slots_at[net.slot_node(slot)].append((rank, slot))
        self._node_slots = [(node, tuple(slots)) for node, slots in enumerate(slots_at)
                            if slots]

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

    def decide(self, slot, value):
        """Assign and propagate to fixpoint. False means the branch failed.

        The queue is a plain list of (slot, value, forced) entries, walked
        first in, first out by a `for` loop whose list iterator is the read
        index: it also reaches the entries appended while it runs. A
        fixpoint that empties off-face slots starts the next list with them.
        A slot the face rule queued counts in `face_forced` once, when the
        entry actually decides it; an entry whose slot already holds its
        value counts nothing. No decision goes past the budget, so none is
        tested against it: a fixpoint with no valve left empties every
        undecided slot, and within a walk only a lonely face queues a
        valve, while the valve that spends the budget fails the reach test
        if any lonely face is left."""
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
        reach = self.reach
        lb_prune = self.opts.lb_prune
        incumbent = self.incumbent_ud           # only a leaf installs a new one
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
                    if st.lonely > reach * (nv - st.n_present):
                        stats.face_fails += 1
                        return False
                elif lb_prune and lb[root] >= incumbent:
                    stats.lb_prunes += 1
                    return False

                for f in slot_faces[s]:
                    valves = face_valves[f]
                    if valves >= 2:
                        continue
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

            # at the fixpoint every lonely face keeps an undecided slot, so
            # they need at least `need` <= `lonely` more valves. Past the
            # valves left the branch is dead; at exactly the valves left, a
            # valve on a slot that relieves no lonely face leaves one valve
            # too few, so those slots are emptied and propagation goes on
            # (with no valve left that is every slot, and not by the face rule)
            left = nv - st.n_present
            if st.lonely < left:
                return True
            need = st.need()
            if need > left:
                stats.face_fails += 1
                return False
            if need < left:
                return True
            off = st.off_face_slots()
            if not off:
                return True
            queue = [(u, ABSENT, left > 0) for u in off]

    # -- branching ------------------------------------------------------------

    def choose_branch(self):
        """Undecided slot to branch on next (None when complete).

        Order: slot at a node of the class with the largest bound, then
        heaviest pipe, then lowest slot id. The scan goes over nodes, not
        slots: a node whose class bound is below the best so far is
        skipped, and otherwise only its first undecided slot in the static
        (pipe, slot id) order competes, the lower static rank winning ties.
        """
        st = self.state
        value = st.value
        lb = st.lb
        root = st.root
        best = None
        best_lb = -1
        best_rank = 0
        for node, slots in self._node_slots:
            node_lb = lb[root[node]]
            if node_lb < best_lb:
                continue
            for rank, slot in slots:
                if node_lb == best_lb and rank >= best_rank:
                    break
                if value[slot] == UNDECIDED:
                    best, best_lb, best_rank = slot, node_lb, rank
                    break
        return best

    # -- search ---------------------------------------------------------------

    def _leaf(self):
        """Evaluate a complete assignment. It holds every source-side slot,
        so it is feasible (see the `isolation` module docstring)."""
        self.stats.leaves += 1
        if self._offer(self.state.present_mask()):
            if self.opts.restart_mode == "restarting" or self.floor_met:
                self._unwind = True
        else:
            self.stats.rejected_leaves += 1

    def _enter(self):
        """Count a node; evaluate a leaf (None) or pick the slot to branch on."""
        stats = self.stats
        stats.nodes += 1
        o = self.opts
        if o.node_limit is not None and stats.nodes > o.node_limit:
            raise _LimitExceeded
        if o.time_limit is not None and self.elapsed() > o.time_limit:
            raise _LimitExceeded
        st = self.state
        if st.n_present + st.n_absent == len(st.value):
            self._leaf()
            return None
        return self.choose_branch()

    def explore(self):
        """Depth-first search below the current state, on an explicit stack
        rather than Python's. Every open node but the first sits in a frame
        its parent opened; a restart or a floor stop closes them all."""
        # bound once per call, after any wrapper was installed on the class
        decide = self.decide
        enter = self._enter
        push_frame = self.state.push_frame
        undo_frame = self.state.undo_frame
        order = self._order
        slot = enter()
        stack = [] if slot is None else [(slot, iter(order))]
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
                    stack.append((child, iter(order)))
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
