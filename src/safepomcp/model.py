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
from typing import Iterable, Mapping, NamedTuple, Sequence

PROB_EPS = 1e-12
SUM_TOL = 1e-9


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
        return mask_from_states(self.init_states)

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

    # -- sampler tables ----------------------------------------------------
    # Rows are split by support size: single outcome (no rng draw), two
    # outcomes (one threshold compare), or wider (bisect on cumulative
    # probabilities).  Sub-PROB_EPS entries are dropped so samples always
    # stay inside the exact supports.

    @cached_property
    def _t_tables(self):
        return _sample_tables(self.transitions)

    @cached_property
    def _z_tables(self):
        return _sample_tables(self.observations)

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
    def _obs_ids(self) -> list[tuple[int, ...]]:
        out = []
        for obs, probs in self.observations:
            out.append(tuple(o for o, p in zip(obs, probs) if p > PROB_EPS))
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

    @cached_property
    def terminal(self) -> tuple[bool, ...]:
        """States where simulation can stop early: absorbing with zero reward."""
        out = []
        na = self.n_actions
        for s in range(self.n_states):
            base = s * na
            ok = True
            for a in range(na):
                if self._succ_masks[base + a] != 1 << s or self.rewards[base + a] != 0.0:
                    ok = False
                    break
            out.append(ok)
        return tuple(out)

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


def _sample_tables(rows: Sequence[Row]):
    """Split rows by support size for the samplers' fast paths.

    ``single[i]`` holds the sole outcome of a deterministic row, -1 for a
    two-outcome row (one threshold compare against ``duo_p``) or -2 for a
    wider row (bisect on cumulative probabilities in ``multi``).
    """
    single = []
    duo_p = []
    duo_a = []
    duo_b = []
    multi = []
    for outcomes, probs in rows:
        kept = [(x, p) for x, p in zip(outcomes, probs) if p > PROB_EPS]
        if len(kept) == 1:
            single.append(kept[0][0])
            duo_p.append(0.0)
            duo_a.append(-1)
            duo_b.append(-1)
            multi.append(None)
        elif len(kept) == 2:
            (x0, p0), (x1, p1) = kept
            single.append(-1)
            duo_p.append(p0 / (p0 + p1))
            duo_a.append(x0)
            duo_b.append(x1)
            multi.append(None)
        else:
            single.append(-2)
            duo_p.append(0.0)
            duo_a.append(-1)
            duo_b.append(-1)
            cum = []
            acc = 0.0
            for _, p in kept:
                acc += p
                cum.append(acc)
            multi.append((tuple(x for x, _ in kept), tuple(cum), acc))
    return single, duo_p, duo_a, duo_b, multi


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
    the list is sorted by observation id.
    """
    succ = successors_mask(m, support, a)
    na = m.n_actions
    obs_ids = m._obs_ids
    candidates: set[int] = set()
    rest = succ
    while rest:
        low = rest & -rest
        candidates.update(obs_ids[(low.bit_length() - 1) * na + a])
        rest ^= low
    zmasks = m._obs_state_masks
    base = a * m.n_obs
    out = []
    for o in sorted(candidates):
        post = succ & zmasks[base + o]
        if post:
            out.append((o, post))
    return out


def sample_step(m: Pomdp, s: int, a: int, rng) -> SimStep:
    """Sample one environment step (s', o, r) from state ``s`` under ``a``.

    Deterministic given the rng state: one uniform draw for the successor
    and one for the observation, in that order; rows with a single outcome
    consume no draw.
    """
    na = m.n_actions
    idx = s * na + a
    t_single, t2p, t2a, t2b, t_multi = m._t_tables
    s2 = t_single[idx]
    if s2 < 0:
        if s2 == -1:
            s2 = t2a[idx] if rng.random() < t2p[idx] else t2b[idx]
        else:
            outs, cums, total = t_multi[idx]
            s2 = outs[bisect_right(cums, rng.random() * total)]
    jdx = s2 * na + a
    z_single, z2p, z2a, z2b, z_multi = m._z_tables
    o = z_single[jdx]
    if o < 0:
        if o == -1:
            o = z2a[jdx] if rng.random() < z2p[jdx] else z2b[jdx]
        else:
            outs, cums, total = z_multi[jdx]
            o = outs[bisect_right(cums, rng.random() * total)]
    return SimStep(s2, o, m.rewards[idx])


def sample_initial(m: Pomdp, rng) -> int:
    """Draw a state from the initial belief."""
    if len(m.init_states) == 1:
        return m.init_states[0]
    r = rng.random()
    acc = 0.0
    for s, p in zip(m.init_states, m.init_probs):
        acc += p
        if r < acc:
            return s
    return m.init_states[-1]
