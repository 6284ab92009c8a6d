"""Grid-world POMDP generators: obstacle navigation, refuel, rock sampling.

All three families share the same floor plan machinery: an N x N grid split
into rooms by interior walls, with doors at fixed positions, a slipping move
model (intended cell with probability 1 - slip, two cells in the same
direction with probability slip, truncated at walls and edges) and a noisy
position sensor (true cell with probability 1 - obs_noise, otherwise uniform
over the in-grid von Neumann neighbours; sensor confusion ignores walls).

Cells are named ``g<row><col>`` (an underscore separates the coordinates
when N > 9), rows growing downward, so ``g11`` is the top-left corner.

Rewards favour reaching the goal quickly: each action costs 1, entering the
goal pays 1000 and entering an obstacle cell costs an extra 5, both charged
in expectation on the entering step since rewards are (state, action) tables.
Goal states are absorbing with zero reward.  Each family also appends one
bookkeeping state: an inert "done" sink for obstacle and refuel (kept out of
the reachable dynamics) and an absorbing "hazard" state for rock sampling
that is entered by sampling a bad rock and constitutes the avoid condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Iterable

from .model import ModelError, Pomdp, make_pomdp

MOVE_NAMES = ("north", "east", "south", "west")
_DELTAS = {"north": (-1, 0), "east": (0, 1), "south": (1, 0), "west": (0, -1)}


class DomainError(ModelError):
    """A grid specification is inconsistent (bad cells, overlaps, ranges)."""


def cell_name(r: int, c: int, n: int) -> str:
    return f"g{r}_{c}" if n > 9 else f"g{r}{c}"


@dataclass(frozen=True)
class GridSpec:
    """Parameters for the grid families.

    ``obstacles``, ``doors``, ``stations`` and ``rocks`` default to fixed
    per-size layouts chosen so that the default worlds are winnable from the
    start cell.  ``random_obstacles`` instead places that many obstacles
    with ``Random(seed)``; randomly placed layouts carry no winnability
    guarantee.  ``row_bounds``/``col_bounds`` list the grid lines that carry
    interior walls (a wall sits between row b and row b+1); by default the
    grid splits into four quadrant rooms with one door at each end of every
    wall, matching the classic four-room floor plan.
    """

    n: int = 6
    obstacles: tuple[str, ...] | None = None
    start: str | None = None
    goal: str | None = None
    slip: float = 0.2
    obs_noise: float = 0.1
    row_bounds: tuple[int, ...] | None = None
    col_bounds: tuple[int, ...] | None = None
    doors: tuple[tuple[str, str], ...] | None = None
    random_obstacles: int | None = None
    seed: int = 0
    battery: int = 8
    stations: tuple[str, ...] | None = None
    rocks: tuple[str, ...] | None = None
    sense_half_distance: float = 2.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"grid size must be positive, got {self.n}")
        if not 0.0 <= self.slip < 1.0:
            raise DomainError(f"slip probability {self.slip} out of [0, 1)")
        if not 0.0 <= self.obs_noise < 1.0:
            raise DomainError(f"observation noise {self.obs_noise} out of [0, 1)")
        if self.battery < 1:
            raise DomainError(f"battery capacity must be positive, got {self.battery}")


class _Grid:
    """Resolved floor plan: rooms, doors, cells and movement kinematics."""

    def __init__(self, gs: GridSpec):
        self.gs = gs
        n = gs.n
        self.n = n
        half = (n + 1) // 2
        self.row_bounds = gs.row_bounds if gs.row_bounds is not None else (
            (half,) if n >= 2 else ()
        )
        self.col_bounds = gs.col_bounds if gs.col_bounds is not None else (
            (half,) if n >= 2 else ()
        )
        if gs.doors is not None:
            pairs = gs.doors
        else:
            pairs = []
            for b in self.col_bounds:
                pairs.append((cell_name(1, b, n), cell_name(1, b + 1, n)))
                pairs.append((cell_name(n, b, n), cell_name(n, b + 1, n)))
            for b in self.row_bounds:
                pairs.append((cell_name(b, 1, n), cell_name(b + 1, 1, n)))
                pairs.append((cell_name(b, n, n), cell_name(b + 1, n, n)))
        self.start = gs.start or cell_name(1, 1, n)
        self.goal = gs.goal or cell_name(n, n, n)
        self.coords = {
            cell_name(r, c, n): (r, c)
            for r in range(1, n + 1)
            for c in range(1, n + 1)
        }
        self.cells = sorted(self.coords, key=self.coords.get)
        self._check_cell(self.start, "start")
        self._check_cell(self.goal, "goal")
        self.doors = set()
        for a, b in pairs:
            self._check_cell(a, "door")
            self._check_cell(b, "door")
            ra, ca = self.coords[a]
            rb, cb = self.coords[b]
            if abs(ra - rb) + abs(ca - cb) != 1:
                raise DomainError(f"door ({a}, {b}) does not join adjacent cells")
            self.doors.add(frozenset((a, b)))

        if gs.random_obstacles is not None:
            rng = Random(gs.seed)
            banned = {self.start, self.goal}
            pool = [c for c in self.cells if c not in banned]
            if gs.random_obstacles > len(pool):
                raise DomainError("more random obstacles than free cells")
            self.obstacles = tuple(sorted(rng.sample(pool, gs.random_obstacles)))
        elif gs.obstacles is not None:
            self.obstacles = tuple(sorted(set(gs.obstacles)))
        else:
            self.obstacles = self._default_obstacles()
        for c in self.obstacles:
            self._check_cell(c, "obstacle")
            if c in (self.start, self.goal):
                raise DomainError(f"obstacle {c} collides with start or goal")

    def _check_cell(self, name: str, what: str):
        if name not in self.coords:
            raise DomainError(f"{what} cell {name!r} is not on the {self.n}x{self.n} grid")

    def _default_obstacles(self) -> tuple[str, ...]:
        n = self.n
        if n < 3:
            return ()
        if n <= 4:
            return (cell_name(2, 2, n),)
        bc = self.col_bounds[0]
        br = self.row_bounds[0]
        cells = {
            cell_name(1, min(bc + 2, n), n),  # overshoot trap past the top door
            cell_name(2, 1, n),               # punishes south from the start
            cell_name(br, bc + 1, n),         # blocks the inner corridor
            cell_name(n, 2, n),               # blocks the bottom row eastward
        }
        return tuple(sorted(cells))

    def room_of(self, cell: str) -> str:
        r, c = self.coords[cell]
        ri = sum(1 for b in self.row_bounds if r > b)
        ci = sum(1 for b in self.col_bounds if c > b)
        return f"q{ri}{ci}"

    def open_between(self, a: str, b: str) -> bool:
        if self.room_of(a) == self.room_of(b):
            return True
        return frozenset((a, b)) in self.doors

    def move_outcomes(self, cell: str, direction: str) -> dict[str, float]:
        """Target/overshoot distribution with wall and edge truncation."""
        n = self.n
        dr, dc = _DELTAS[direction]
        r, c = self.coords[cell]
        t = (r + dr, c + dc)
        if not (1 <= t[0] <= n and 1 <= t[1] <= n):
            return {cell: 1.0}
        target = cell_name(*t, n)
        if not self.open_between(cell, target):
            return {cell: 1.0}
        v = (r + 2 * dr, c + 2 * dc)
        over = target
        if 1 <= v[0] <= n and 1 <= v[1] <= n:
            far = cell_name(*v, n)
            if self.open_between(target, far):
                over = far
        out: dict[str, float] = {}
        slip = self.gs.slip
        out[target] = out.get(target, 0.0) + (1.0 - slip)
        out[over] = out.get(over, 0.0) + slip
        return out

    def neighbours(self, cell: str) -> list[str]:
        n = self.n
        r, c = self.coords[cell]
        out = []
        for dr, dc in _DELTAS.values():
            rr, cc = r + dr, c + dc
            if 1 <= rr <= n and 1 <= cc <= n:
                out.append(cell_name(rr, cc, n))
        return out

    def cell_obs_row(self, cell: str) -> dict[str, float]:
        nbrs = self.neighbours(cell)
        eta = self.gs.obs_noise
        if not nbrs:
            return {cell: 1.0}
        row = {cell: 1.0 - eta}
        for nb in nbrs:
            row[nb] = row.get(nb, 0.0) + eta / len(nbrs)
        return row


def _entry_reward(outcomes: dict[str, float], goal: str, obstacles) -> float:
    r = -1.0
    for cell, p in outcomes.items():
        if cell == goal:
            r += 1000.0 * p
        elif cell in obstacles:
            r -= 5.0 * p
    return r


def gen_obstacle(gs: GridSpec) -> Pomdp:
    """Goal navigation among obstacle cells.

    States are the N*N cells plus an inert absorbing sink, so |S| = N*N + 1.
    Entering an obstacle cell costs 5 and the robot stays there and may move
    on; obstacle cells form the avoid set and the goal cell the reach set.
    """
    g = _Grid(gs)
    n = gs.n
    cells = g.cells
    sid = {c: i for i, c in enumerate(cells)}
    sink = len(cells)
    state_names = cells + ["done"]
    obs_names = cells + ["done"]
    oid = {c: i for i, c in enumerate(obs_names)}
    obstacles = set(g.obstacles)

    trans = {}
    obs_fn = {}
    rewards = {}
    for cell in cells:
        s = sid[cell]
        zrow = {oid[c]: p for c, p in g.cell_obs_row(cell).items()}
        for a, mv in enumerate(MOVE_NAMES):
            if cell == g.goal:
                trans[s, a] = {s: 1.0}
                rewards[s, a] = 0.0
            else:
                out = g.move_outcomes(cell, mv)
                trans[s, a] = {sid[c]: p for c, p in out.items()}
                rewards[s, a] = _entry_reward(out, g.goal, obstacles)
            obs_fn[s, a] = zrow
    for a in range(len(MOVE_NAMES)):
        trans[sink, a] = {sink: 1.0}
        obs_fn[sink, a] = {oid["done"]: 1.0}
        rewards[sink, a] = 0.0

    partition = [g.room_of(c) for c in cells] + [g.room_of(g.goal)]
    return make_pomdp(
        states=state_names,
        actions=MOVE_NAMES,
        observations=obs_names,
        transitions=trans,
        obs_fn=obs_fn,
        rewards=rewards,
        init={sid[g.start]: 1.0},
        reach=[sid[g.goal]],
        avoid=[sid[c] for c in sorted(obstacles)],
        partition=partition,
    )


def gen_refuel(gs: GridSpec) -> Pomdp:
    """Navigation with a battery: every move drains one unit of energy.

    States are (cell, energy) pairs for energy in 0..E plus an inert sink,
    so |S| = N*N*(E+1) + 1.  A refuel action restores full energy at station
    cells and is a no-op elsewhere.  Running dry anywhere but a station or
    the goal strands the robot; those stranded states, together with the
    obstacle cells at any energy, form the avoid set.  The goal at any
    energy level is the reach set.  The sensor reports a noisy cell plus a
    noisy low-battery flag (set when energy <= 1, correct with probability
    1 - obs_noise).
    """
    g = _Grid(gs)
    n, e_max = gs.n, gs.battery
    if gs.stations is not None:
        stations = set(gs.stations)
    else:
        br = g.row_bounds[0] if g.row_bounds else 1
        stations = {g.start, cell_name(min(br + 1, n), 1, n)}
    for c in stations:
        g._check_cell(c, "station")
    obstacles = set(g.obstacles)
    levels = e_max + 1
    cid = {c: i for i, c in enumerate(g.cells)}

    def sidx(cell: str, e: int) -> int:
        return cid[cell] * levels + e

    state_names = [f"{c}_e{e}" for c in g.cells for e in range(levels)] + ["done"]
    sink = len(state_names) - 1
    obs_names = [f"{c}_{flag}" for c in g.cells for flag in ("lo", "ok")] + ["done"]
    oid = {nm: i for i, nm in enumerate(obs_names)}
    n_actions = len(MOVE_NAMES) + 1
    refuel_a = n_actions - 1

    trans = {}
    obs_fn = {}
    rewards = {}
    reach = []
    avoid = []
    for cell in g.cells:
        zrows = {}
        for e in range(levels):
            flag = "lo" if e <= 1 else "ok"
            zrows[e] = {
                oid[f"{c}_{flag}"]: p for c, p in g.cell_obs_row(cell).items()
            }
        for e in range(levels):
            s = sidx(cell, e)
            if cell == g.goal:
                reach.append(s)
            elif cell in obstacles:
                avoid.append(s)
            elif e == 0 and cell not in stations:
                avoid.append(s)
            absorbing = cell == g.goal
            for a, mv in enumerate(MOVE_NAMES):
                if absorbing or e == 0:
                    trans[s, a] = {s: 1.0}
                    rewards[s, a] = 0.0 if absorbing else -1.0
                else:
                    out = g.move_outcomes(cell, mv)
                    trans[s, a] = {sidx(c, e - 1): p for c, p in out.items()}
                    rewards[s, a] = _entry_reward(out, g.goal, obstacles)
            if absorbing:
                trans[s, refuel_a] = {s: 1.0}
                rewards[s, refuel_a] = 0.0
            elif cell in stations:
                trans[s, refuel_a] = {sidx(cell, e_max): 1.0}
                rewards[s, refuel_a] = -1.0
            else:
                trans[s, refuel_a] = {s: 1.0}
                rewards[s, refuel_a] = -1.0
            # observation rows are keyed by the successor state, so the
            # battery flag always reflects this state's own energy level
            for a in range(n_actions):
                obs_fn[s, a] = zrows[e]
    for a in range(n_actions):
        trans[sink, a] = {sink: 1.0}
        obs_fn[sink, a] = {oid["done"]: 1.0}
        rewards[sink, a] = 0.0

    partition = [g.room_of(c) for c in g.cells for _ in range(levels)]
    partition.append(g.room_of(g.goal))
    return make_pomdp(
        states=state_names,
        actions=MOVE_NAMES + ("refuel",),
        observations=obs_names,
        transitions=trans,
        obs_fn=obs_fn,
        rewards=rewards,
        init={sidx(g.start, e_max): 1.0},
        reach=reach,
        avoid=avoid,
        partition=partition,
    )


_STATUS = ("good", "bad", "collected")


def gen_rocksample(gs: GridSpec) -> Pomdp:
    """Rock collection with a long-range noisy sensor.

    States are (cell, per-rock status) tuples plus one absorbing hazard
    state, so |S| = N*N * 3**R + 1.  Rocks start good or bad uniformly at
    random (encoded in the initial belief).  Sampling next to a good rock
    collects it for +10 and sampling next to a bad rock enters the hazard
    state for -10; samples that hit a rock carry no step cost.  The hazard
    state is the avoid condition.  A sense action per rock reports
    its quality, correct with probability 0.5 + 0.5 * 2**(-d / half_dist)
    at Euclidean distance d.  Reaching the goal cell (any rock status) is
    the reach condition.  Obstacle cells are not used by this family.
    """
    g = _Grid(gs)
    n = gs.n
    rocks = list(gs.rocks) if gs.rocks is not None else None
    if rocks is None:
        count = 3
        candidates = [
            (2, 2), (3, n - 1), (n - 1, 3), (n - 2, n - 2), (2, n - 2), (n - 1, n - 1)
        ]
        rocks = []
        for r, c in candidates:
            if len(rocks) == count:
                break
            if 1 <= r <= n and 1 <= c <= n:
                name = cell_name(r, c, n)
                if name not in (g.start, g.goal) and name not in rocks:
                    rocks.append(name)
    for c in rocks:
        g._check_cell(c, "rock")
    n_rocks = len(rocks)
    combos = 3 ** n_rocks
    cid = {c: i for i, c in enumerate(g.cells)}

    def sidx(cell: str, status: tuple[int, ...]) -> int:
        code = 0
        for k in reversed(status):
            code = code * 3 + k
        return cid[cell] * combos + code

    def all_status():
        def rec(k):
            if k == n_rocks:
                yield ()
                return
            for rest in rec(k + 1):
                for v in range(3):
                    yield (v,) + rest
        return rec(0)

    status_list = sorted(all_status(), key=lambda st: sidx(g.cells[0], st))
    state_names = [
        f"{cell}_{''.join(_STATUS[v][0] for v in st)}" if n_rocks else cell
        for cell in g.cells
        for st in status_list
    ] + ["hazard"]
    hazard = len(state_names) - 1
    obs_names = g.cells + ["good", "bad", "hazard"]
    oid = {nm: i for i, nm in enumerate(obs_names)}
    n_actions = len(MOVE_NAMES) + 1 + n_rocks
    sample_a = len(MOVE_NAMES)

    def sample_target(cell: str, st: tuple[int, ...]) -> int | None:
        r, c = g.coords[cell]
        for k, rock in enumerate(rocks):
            rr, cc = g.coords[rock]
            if abs(r - rr) + abs(c - cc) == 1 and st[k] != 2:
                return k
        return None

    trans = {}
    obs_fn = {}
    rewards = {}
    reach = []
    for cell in g.cells:
        move_zrow = {oid[c]: p for c, p in g.cell_obs_row(cell).items()}
        r0, c0 = g.coords[cell]
        sense_acc = []
        for rock in rocks:
            rr, cc = g.coords[rock]
            d = math.hypot(r0 - rr, c0 - cc)
            sense_acc.append(0.5 + 0.5 * 2.0 ** (-d / gs.sense_half_distance))
        for st in status_list:
            s = sidx(cell, st)
            at_goal = cell == g.goal
            if at_goal:
                reach.append(s)
            for a, mv in enumerate(MOVE_NAMES):
                if at_goal:
                    trans[s, a] = {s: 1.0}
                    rewards[s, a] = 0.0
                else:
                    out = g.move_outcomes(cell, mv)
                    trans[s, a] = {sidx(c, st): p for c, p in out.items()}
                    rewards[s, a] = _entry_reward(out, g.goal, set())
                obs_fn[s, a] = move_zrow
            # sample
            tgt = None if at_goal else sample_target(cell, st)
            if at_goal:
                trans[s, sample_a] = {s: 1.0}
                rewards[s, sample_a] = 0.0
                obs_fn[s, sample_a] = move_zrow
            elif tgt is None:
                trans[s, sample_a] = {s: 1.0}
                rewards[s, sample_a] = -1.0
                obs_fn[s, sample_a] = move_zrow
            elif st[tgt] == 0:
                st2 = tuple(2 if k == tgt else v for k, v in enumerate(st))
                trans[s, sample_a] = {sidx(cell, st2): 1.0}
                rewards[s, sample_a] = 10.0
                obs_fn[s, sample_a] = move_zrow
            else:
                trans[s, sample_a] = {hazard: 1.0}
                rewards[s, sample_a] = -10.0
                obs_fn[s, sample_a] = move_zrow
            # sense actions
            for k in range(n_rocks):
                a = sample_a + 1 + k
                trans[s, a] = {s: 1.0}
                rewards[s, a] = 0.0 if at_goal else -1.0
                if st[k] == 2:
                    good_p = 0.5
                else:
                    acc = sense_acc[k]
                    good_p = acc if st[k] == 0 else 1.0 - acc
                obs_fn[s, a] = {oid["good"]: good_p, oid["bad"]: 1.0 - good_p}
    for a in range(n_actions):
        trans[hazard, a] = {hazard: 1.0}
        obs_fn[hazard, a] = {oid["hazard"]: 1.0}
        rewards[hazard, a] = -1.0

    action_names = MOVE_NAMES + ("sample",) + tuple(
        f"sense_{rock}" for rock in rocks
    )
    partition = [g.room_of(cell) for cell in g.cells for _ in status_list]
    partition.append(g.room_of(g.goal))
    init = {}
    for st in status_list:
        if all(v != 2 for v in st):
            init[sidx(g.start, st)] = 1.0 / (2 ** n_rocks)
    return make_pomdp(
        states=state_names,
        actions=action_names,
        observations=obs_names,
        transitions=trans,
        obs_fn=obs_fn,
        rewards=rewards,
        init=init,
        reach=reach,
        avoid=[hazard],
        partition=partition,
    )


# The generator families by name, as the CLI and bench configs spell them.
GENERATORS = {
    "obstacle": gen_obstacle,
    "refuel": gen_refuel,
    "rocksample": gen_rocksample,
}


def factored_gap_world() -> Pomdp:
    """6x6 obstacle layout whose factored region is strictly smaller.

    The obstacle at g16 makes moving east from g14 unsafe and the one at
    g24 rules out south, so g14 is only saved by retreating west into the
    first room and re-entering through the door.  That detour is invisible
    to the room-local analysis (the door cells are absorbing there), so the
    per-room union rejects {g14} while the full-model region accepts it.
    The bottom-right room is walled off by g54 and g65 so that the detour
    through the lower rooms is not available either.
    """
    return gen_obstacle(
        GridSpec(n=6, obstacles=("g16", "g24", "g54", "g65"))
    )


def render_layout(gs: GridSpec, family: str = "obstacle") -> str:
    """Plain-text floor plan: walls, doors and cell markers."""
    g = _Grid(gs)
    n = gs.n
    stations = set()
    rocks = set()
    if family == "refuel":
        if gs.stations is not None:
            stations = set(gs.stations)
        else:
            br = g.row_bounds[0] if g.row_bounds else 1
            stations = {g.start, cell_name(min(br + 1, n), 1, n)}
    if family == "rocksample":
        mdl_rocks = gs.rocks
        if mdl_rocks is None:
            candidates = [
                (2, 2), (3, n - 1), (n - 1, 3), (n - 2, n - 2), (2, n - 2),
                (n - 1, n - 1),
            ]
            mdl_rocks = []
            for r, c in candidates:
                if len(mdl_rocks) == 3:
                    break
                if 1 <= r <= n and 1 <= c <= n:
                    name = cell_name(r, c, n)
                    if name not in (g.start, g.goal) and name not in mdl_rocks:
                        mdl_rocks.append(name)
        rocks = set(mdl_rocks)

    def mark(cell: str) -> str:
        if cell == g.start:
            return "S"
        if cell == g.goal:
            return "G"
        if cell in g.obstacles:
            return "X"
        if cell in stations:
            return "F"
        if cell in rocks:
            return "R"
        return "."

    lines = []
    for r in range(1, n + 1):
        row = []
        for c in range(1, n + 1):
            row.append(mark(cell_name(r, c, n)))
            if c < n:
                a, b = cell_name(r, c, n), cell_name(r, c + 1, n)
                row.append(" " if g.open_between(a, b) else "|")
        lines.append(" ".join(row))
        if r < n:
            seg = []
            for c in range(1, n + 1):
                a, b = cell_name(r, c, n), cell_name(r + 1, c, n)
                seg.append("-" if not g.open_between(a, b) else " ")
            lines.append("   ".join(seg))
    legend = "S start  G goal  X obstacle"
    if stations:
        legend += "  F station"
    if rocks:
        legend += "  R rock"
    return "\n".join(lines) + "\n" + legend + "\n"
