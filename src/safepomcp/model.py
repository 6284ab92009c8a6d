"""Explicit-table POMDP models with belief-support algebra.

A model is a finite POMDP (S, A, O, T, Z, R) together with an initial belief
and a reach-avoid objective: a set of target states that should be reached
with probability one and a set of states that must never be visited.  States,
actions and observations are dense integer ids; display names are kept for
reporting and for the text file format (see :mod:`safepomcp.modelio`).

Belief supports are represented as int bitmasks over state ids.  The support
algebra (``support_post`` and friends) is exact: it enumerates every state
reachable with positive probability, which is what the reach-avoid analysis
in :mod:`safepomcp.winning` consumes.  Probabilities below ``PROB_EPS`` are
treated as structural zeros everywhere, including the sampler, so that
sampled trajectories can never leave the exact supports.
"""

from __future__ import annotations

import hashlib
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

PROB_EPS = 1e-12
SUM_TOL = 1e-9

# Uniform-rollout block tables: steps per block, and the most outcomes one
# state's block may have before that state falls back to a shorter block.
BLOCK_STEPS = 3
BLOCK_ENTRIES = 512


class ModelError(ValueError):
    """Base class for model construction and validation failures."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ProbabilitySumError(ModelError):
    """A transition, observation or initial-belief row does not sum to one."""


class DanglingIdError(ModelError):
    """A row references a state, action or observation id out of range."""


class SpecConflictError(ModelError):
    """The reach and avoid sets overlap, or the initial support touches avoid."""


class NonAbsorbingReachError(ModelError):
    """A reach state has a transition row that is not a self-loop."""


class SimStep(NamedTuple):
    """One sampled environment step: successor state, observation, reward."""

    state: int
    obs: int
    reward: float


# A sparse categorical row: parallel tuples of outcome ids and probabilities.
Row = tuple[tuple[int, ...], tuple[float, ...]]


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_states(states: Iterable[int]) -> int:
    m = 0
    for s in states:
        m |= 1 << s
    return m


def states_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(_iter_bits(mask))


@dataclass(frozen=True)
class Pomdp:
    """Immutable explicit POMDP with a reach-avoid objective.

    ``transitions`` and ``rewards`` are indexed by ``s * n_actions + a``;
    ``observations`` is indexed by ``s' * n_actions + a`` (the observation is
    emitted by the successor state under the action just taken).  Rows are
    sparse: parallel tuples of outcome ids and probabilities.

    Instances are hashable and compare by value, so they can key caches.
    Use :func:`make_pomdp` instead of calling the constructor directly; it
    normalises inputs and runs all validity checks.
    """

    state_names: tuple[str, ...]
    action_names: tuple[str, ...]
    obs_names: tuple[str, ...]
    transitions: tuple[Row, ...]
    observations: tuple[Row, ...]
    rewards: tuple[float, ...]
    init_states: tuple[int, ...]
    init_probs: tuple[float, ...]
    reach: frozenset[int]
    avoid: frozenset[int]
    partition: tuple[str, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_actions(self) -> int:
        return len(self.action_names)

    @property
    def n_obs(self) -> int:
        return len(self.obs_names)

    @cached_property
    def reach_mask(self) -> int:
        return mask_from_states(self.reach)

    @cached_property
    def avoid_mask(self) -> int:
        return mask_from_states(self.avoid)

    @cached_property
    def init_support(self) -> int:
        """The initial states whose probability exceeds ``PROB_EPS``."""
        row = (self.init_states, self.init_probs)
        return mask_from_states(x for x, _ in _kept(row))

    @cached_property
    def canonical_hash(self) -> str:
        """Short stable fingerprint of the canonical text form, computed once;
        :func:`safepomcp.modelio.model_hash` returns it."""
        from .modelio import serialize_model  # modelio imports this module

        return hashlib.sha256(serialize_model(self).encode()).hexdigest()[:16]

    @cached_property
    def state_id(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.state_names)}

    @cached_property
    def action_id(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.action_names)}

    @cached_property
    def obs_id(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.obs_names)}

    @cached_property
    def reward_span(self) -> float:
        lo = min(self.rewards)
        hi = max(self.rewards)
        return hi - lo if hi > lo else 1.0

    # -- sampler rows ------------------------------------------------------
    # One entry per transition, observation or initial-belief row, in the
    # format ``draw`` reads (see ``_sample_tables``); sub-PROB_EPS entries
    # are dropped so samples always stay inside the exact supports.

    @cached_property
    def _t_rows(self) -> list:
        return _sample_tables(self.transitions)

    @cached_property
    def _z_rows(self) -> list:
        return _sample_tables(self.observations)

    @cached_property
    def _init_row(self):
        return _sample_tables([(self.init_states, self.init_probs)])[0]

    @cached_property
    def _block_cache(self) -> dict[float, list]:
        return {}

    def _rollout_blocks(self, discount: float) -> list:
        """The uniform rollout's block tables for ``discount``, built on
        first use and kept on the model; see :func:`_uniform_blocks`."""
        tables = self._block_cache.get(discount)
        if tables is None:
            tables = self._block_cache[discount] = _uniform_blocks(self, discount)
        return tables

    @cached_property
    def _succ_masks(self) -> list[int]:
        out = []
        for succs, probs in self.transitions:
            m = 0
            for s2, p in zip(succs, probs):
                if p > PROB_EPS:
                    m |= 1 << s2
            out.append(m)
        return out

    @cached_property
    def _succ_obs_bits(self) -> list[int]:
        """Bitmask of the observation ids some successor of ``s`` under ``a``
        emits, at ``s * n_actions + a``; entries of at most ``PROB_EPS`` are
        absent, as in ``_succ_masks``."""
        emits = []
        for obs, probs in self.observations:
            bits = 0
            for o, p in zip(obs, probs):
                if p > PROB_EPS:
                    bits |= 1 << o
            emits.append(bits)
        na = self.n_actions
        out = []
        for k, succ in enumerate(self._succ_masks):
            a = k % na
            bits = 0
            for s2 in _iter_bits(succ):
                bits |= emits[s2 * na + a]
            out.append(bits)
        return out

    @cached_property
    def _obs_state_masks(self) -> list[int]:
        """Mask of states emitting observation o under action a, at a*n_obs+o."""
        masks = [0] * (self.n_actions * self.n_obs)
        no = self.n_obs
        na = self.n_actions
        for s2 in range(self.n_states):
            base = s2 * na
            for a in range(na):
                obs, probs = self.observations[base + a]
                for o, p in zip(obs, probs):
                    if p > PROB_EPS:
                        masks[a * no + o] |= 1 << s2
        return masks

    def is_absorbing(self, s: int) -> bool:
        base = s * self.n_actions
        return all(
            self._succ_masks[base + a] == 1 << s for a in range(self.n_actions)
        )

    @cached_property
    def absorbing_mean_rewards(self) -> tuple[float | None, ...]:
        """Per-state mean action reward for absorbing states, else None.

        Once a trajectory enters an absorbing state, the expected reward per
        remaining step under a uniform-random policy is this constant, so
        rollouts can close their tails analytically instead of looping.
        """
        na = self.n_actions
        out: list[float | None] = []
        for s in range(self.n_states):
            base = s * na
            if all(self._succ_masks[base + a] == 1 << s for a in range(na)):
                out.append(sum(self.rewards[base + a] for a in range(na)) / na)
            else:
                out.append(None)
        return tuple(out)

    # -- name helpers ------------------------------------------------------

    def support_from_names(self, names: Iterable[str] | str) -> int:
        if isinstance(names, str):
            names = names.split()
        return mask_from_states(self.state_id[n] for n in names)

    def names_from_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.state_names[s] for s in _iter_bits(mask))


def _kept(row: Row) -> list[tuple[int, float]]:
    """The row's (outcome, probability) pairs above ``PROB_EPS``."""
    return [(x, p) for x, p in zip(*row) if p > PROB_EPS]


def _uniform_blocks(m: Pomdp, discount: float,
                    max_entries: int = BLOCK_ENTRIES) -> list:
    """Outcome tables of up to ``BLOCK_STEPS`` moves of the uniform-random
    policy.

    ``tables[k][s]`` is ``None`` for an absorbing ``s`` and otherwise a pair
    ``(cums, outcomes)``: ``outcomes`` lists ``(end, value, factor, n)`` --
    the state after ``n`` moves, their discounted reward sum, and
    ``discount ** n`` -- and ``cums`` their cumulative probabilities, the
    last exactly 1.0, so that ``outcomes[bisect_right(cums, u)]`` for a
    uniform ``u`` in [0, 1) samples the block.  Paths are merged by
    outcome.  A path stops early when it enters an absorbing state, whose
    tail the rollout closes in closed form.  Successors come from the same
    ``PROB_EPS``-filtered, renormalised rows the step sampler draws from,
    so a block has exactly the law of ``n`` sampled steps.  Where a state's
    ``k``-move table would exceed ``max_entries`` outcomes, its
    ``(k - 1)``-move table stands in; stopping early is a function of the
    state alone, so the rollout's law is unchanged.  ``tables[0]`` is
    unused.
    """
    na = m.n_actions
    absorb = m.absorbing_mean_rewards
    rows = []
    for row in m.transitions:
        kept = _kept(row)
        total = sum(p for _, p in kept)
        rows.append([(x, p / (total * na)) for x, p in kept])
    rewards = m.rewards
    tables: list = [None]
    prev: list | None = None
    for _ in range(BLOCK_STEPS):
        cur: list = []
        for s in range(m.n_states):
            if absorb[s] is not None:
                cur.append(None)
                continue
            acc: dict[tuple[int, float, int], float] = {}
            base = s * na
            for a in range(na):
                r = rewards[base + a]
                for s2, q in rows[base + a]:
                    if prev is None or absorb[s2] is not None:
                        key = (s2, r, 1)
                        acc[key] = acc.get(key, 0.0) + q
                        continue
                    for (end, v, n), p in prev[s2]:
                        key = (end, r + discount * v, n + 1)
                        acc[key] = acc.get(key, 0.0) + q * p
            cur.append(list(acc.items()) if prev is None or len(acc) <= max_entries
                       else prev[s])
        tables.append([None if outs is None else _block_table(outs, discount)
                       for outs in cur])
        prev = cur
    return tables


def _block_table(outs: list, discount: float) -> tuple[tuple, tuple]:
    cums = []
    acc = 0.0
    for _, p in outs:
        acc += p
        cums.append(acc)
    return (tuple(c / acc for c in cums),  # the last is acc / acc == 1.0
            tuple((end, v, discount ** n, n) for (end, v, n), _ in outs))


def _sample_tables(rows: Sequence[Row]) -> list:
    """One sampler row per row, in the format :func:`draw` reads.

    Entries of at most ``PROB_EPS`` are dropped first.  A row left with a
    single outcome becomes that outcome's id, an ``int``, and costs no
    draw.  Any other row becomes ``(outs, cums, total)``: the outcome ids,
    their cumulative probabilities and the last of those, sampled as
    ``outs[bisect_right(cums, u * total)]`` for a uniform ``u`` in [0, 1).
    A two-outcome row ``(x0, p0), (x1, p1)`` becomes
    ``((x0, x1), (p0 / (p0 + p1),), 1.0)``, so its draw is the single
    comparison ``u < p0 / (p0 + p1)``.
    """
    out: list = []
    for row in rows:
        kept = _kept(row)
        if len(kept) == 1:
            out.append(kept[0][0])
        elif len(kept) == 2:
            (x0, p0), (x1, p1) = kept
            out.append(((x0, x1), (p0 / (p0 + p1),), 1.0))
        else:
            cums = tuple(accumulate(p for _, p in kept))
            out.append((tuple(x for x, _ in kept), cums, cums[-1]))
    return out


def _normalize_row(
    entries: Mapping[int, float], n: int, what: str, where: str
) -> Row:
    total = 0.0
    outs = []
    ps = []
    for x in sorted(entries):
        p = entries[x]
        if not 0.0 <= p <= 1.0 + SUM_TOL:
            raise ProbabilitySumError(f"{what} probability {p} out of [0,1] at {where}")
        if x < 0 or x >= n:
            raise DanglingIdError(f"{what} id {x} out of range at {where}")
        outs.append(x)
        ps.append(p)
        total += p
    if abs(total - 1.0) > SUM_TOL:
        raise ProbabilitySumError(f"{what} row at {where} sums to {total!r}, not 1")
    return tuple(outs), tuple(ps)


def _names(arg, prefix: str) -> tuple[str, ...]:
    if isinstance(arg, int):
        return tuple(f"{prefix}{i}" for i in range(arg))
    return tuple(arg)


def make_pomdp(
    *,
    states,
    actions,
    observations,
    transitions: Mapping[tuple[int, int], Mapping[int, float]],
    obs_fn: Mapping[tuple[int, int], Mapping[int, float]],
    rewards: Mapping[tuple[int, int], float],
    init: Mapping[int, float],
    reach: Iterable[int],
    avoid: Iterable[int],
    partition: Sequence[str] | None = None,
    on_nonabsorbing_reach: str = "error",
) -> Pomdp:
    """Build and validate a :class:`Pomdp` from sparse dict tables.

    ``states``/``actions``/``observations`` are either counts (names are
    generated) or sequences of names.  Every (state, action) pair needs a
    transition row and an observation row; missing reward entries default
    to zero.  ``on_nonabsorbing_reach`` selects between rejecting reach
    states that are not self-loops ("error") and rewriting their rows to
    self-loops with a warning ("rewrite"), which is what the file loader
    does by default.
    """
    state_names = _names(states, "s")
    action_names = _names(actions, "a")
    obs_names = _names(observations, "o")
    ns, na, no = len(state_names), len(action_names), len(obs_names)

    reach = frozenset(reach)
    avoid = frozenset(avoid)
    for s in reach | avoid:
        if not 0 <= s < ns:
            raise DanglingIdError(f"reach/avoid state id {s} out of range")
    if reach & avoid:
        names = sorted(state_names[s] for s in reach & avoid)
        raise SpecConflictError(f"reach and avoid sets overlap on {names}")

    trows: list[Row] = []
    zrows: list[Row] = []
    rflat: list[float] = []
    for s in range(ns):
        for a in range(na):
            where = f"({state_names[s]}, {action_names[a]})"
            if (s, a) not in transitions:
                raise DanglingIdError(f"missing transition row for {where}")
            trows.append(_normalize_row(transitions[s, a], ns, "transition", where))
            if (s, a) not in obs_fn:
                raise DanglingIdError(f"missing observation row for {where}")
            zrows.append(_normalize_row(obs_fn[s, a], no, "observation", where))
            rflat.append(float(rewards.get((s, a), 0.0)))

    for s in sorted(reach):
        for a in range(na):
            succs, probs = trows[s * na + a]
            live = {x for x, p in zip(succs, probs) if p > PROB_EPS}
            if live != {s}:
                if on_nonabsorbing_reach == "rewrite":
                    warnings.warn(
                        f"reach state {state_names[s]} was not absorbing; "
                        f"rewriting its rows to self-loops",
                        stacklevel=2,
                    )
                    for b in range(na):
                        trows[s * na + b] = ((s,), (1.0,))
                    break
                raise NonAbsorbingReachError(
                    f"reach state {state_names[s]} is not absorbing under "
                    f"action {action_names[a]}"
                )

    init_states = tuple(sorted(init))
    init_probs = tuple(float(init[s]) for s in init_states)
    for s in init_states:
        if not 0 <= s < ns:
            raise DanglingIdError(f"initial-belief state id {s} out of range")
    total = sum(init_probs)
    if abs(total - 1.0) > SUM_TOL:
        raise ProbabilitySumError(f"initial belief sums to {total!r}, not 1")
    bad = [s for s, p in zip(init_states, init_probs) if p > PROB_EPS and s in avoid]
    if bad:
        names = sorted(state_names[s] for s in bad)
        raise SpecConflictError(f"initial support intersects avoid on {names}")

    if partition is not None:
        partition = tuple(partition)
        if len(partition) != ns:
            raise ModelError(
                f"partition labels {len(partition)} states, model has {ns}"
            )
        if any(not lbl for lbl in partition):
            raise ModelError("partition contains an empty label")

    return Pomdp(
        state_names=state_names,
        action_names=action_names,
        obs_names=obs_names,
        transitions=tuple(trows),
        observations=tuple(zrows),
        rewards=tuple(rflat),
        init_states=init_states,
        init_probs=init_probs,
        reach=reach,
        avoid=avoid,
        partition=partition,
    )


# -- belief-support algebra ------------------------------------------------


def successors_mask(m: Pomdp, support: int, a: int) -> int:
    """All states reachable in one step from ``support`` under action ``a``."""
    sm = m._succ_masks
    na = m.n_actions
    acc = 0
    rest = support
    while rest:
        low = rest & -rest
        acc |= sm[(low.bit_length() - 1) * na + a]
        rest ^= low
    return acc


def support_post(m: Pomdp, support: int, a: int, o: int) -> int:
    """Exact posterior support after taking ``a`` in ``support`` and seeing ``o``.

    Returns the bitmask of states s' with T(s, a, s') > 0 for some s in the
    support and Z(s', a, o) > 0.  Empty (0) means the observation is
    impossible from this support.
    """
    return successors_mask(m, support, a) & m._obs_state_masks[a * m.n_obs + o]


def support_post_all(m: Pomdp, support: int, a: int) -> list[tuple[int, int]]:
    """All non-empty posterior supports for action ``a``, as (obs, mask) pairs.

    The union of the returned masks equals ``successors_mask(m, support, a)``;
    the list is sorted by observation id.  One pass over the support ORs the
    successor masks and the emitted-observation masks of its states; every
    emitted observation then has a non-empty posterior, one AND each.
    """
    sm = m._succ_masks
    emitted = m._succ_obs_bits
    na = m.n_actions
    succ = 0
    obs_bits = 0
    rest = support
    while rest:
        low = rest & -rest
        k = (low.bit_length() - 1) * na + a
        succ |= sm[k]
        obs_bits |= emitted[k]
        rest ^= low
    zmasks = m._obs_state_masks
    base = a * m.n_obs
    out = []
    while obs_bits:
        low = obs_bits & -obs_bits
        o = low.bit_length() - 1
        out.append((o, succ & zmasks[base + o]))
        obs_bits ^= low
    return out


def draw(row, random) -> int:
    """Sample an outcome id from a sampler row (see ``_sample_tables``).

    ``random`` returns uniform floats in [0, 1), as ``Random.random`` does.
    A single-outcome row does not call it; any other row calls it once.
    """
    if type(row) is int:
        return row
    outs, cums, total = row
    return outs[bisect_right(cums, random() * total)]


def sample_step(m: Pomdp, s: int, a: int, rng) -> SimStep:
    """Sample one environment step (s', o, r) from state ``s`` under ``a``.

    Deterministic given the rng state: one uniform draw for the successor
    and one for the observation, in that order; rows with a single outcome
    consume no draw.
    """
    na = m.n_actions
    idx = s * na + a
    s2 = draw(m._t_rows[idx], rng.random)
    o = draw(m._z_rows[s2 * na + a], rng.random)
    return SimStep(s2, o, m.rewards[idx])


def sample_initial(m: Pomdp, rng) -> int:
    """Draw a state from the initial belief; entries of at most
    ``PROB_EPS`` are never drawn."""
    return draw(m._init_row, rng.random)
