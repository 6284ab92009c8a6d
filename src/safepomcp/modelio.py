"""Line-based text format for POMDP models.

The format is keyword-per-line and order-insensitive apart from the three
header counts, which must precede any row that references them::

    # comment
    states: 3
    actions: 2
    observations: 2
    state 0 left          # optional display names
    action 0 go
    obs 0 ping
    init 0 1.0
    T 0 0 1 0.8           # T <s> <a> <s'> <p>
    Z 1 0 0 0.9           # Z <s'> <a> <o> <p>
    R 0 0 -1.0            # R <s> <a> <r>
    reach 2
    avoid 1
    region 0 west         # optional partition label per state

The serializer emits rows sorted by ids with ``repr``-exact probabilities,
so serialize -> parse -> serialize is a fixed point and equal models produce
byte-identical files.  ``model_hash`` fingerprints that canonical text.
"""

from __future__ import annotations

from pathlib import Path

from .model import (
    DanglingIdError,
    ModelError,
    NonAbsorbingReachError,
    PROB_EPS,
    Pomdp,
    make_pomdp,
)


class ModelSyntaxError(ModelError):
    """A line does not match the grammar."""


def serialize_model(m: Pomdp) -> str:
    lines = [
        f"states: {m.n_states}",
        f"actions: {m.n_actions}",
        f"observations: {m.n_obs}",
    ]
    lines += [f"state {i} {n}" for i, n in enumerate(m.state_names)]
    lines += [f"action {i} {n}" for i, n in enumerate(m.action_names)]
    lines += [f"obs {i} {n}" for i, n in enumerate(m.obs_names)]
    lines += [
        f"init {s} {p!r}" for s, p in zip(m.init_states, m.init_probs)
    ]
    na = m.n_actions
    for s in range(m.n_states):
        for a in range(na):
            succs, probs = m.transitions[s * na + a]
            lines += [f"T {s} {a} {s2} {p!r}" for s2, p in zip(succs, probs)]
    for s2 in range(m.n_states):
        for a in range(na):
            obs, probs = m.observations[s2 * na + a]
            lines += [f"Z {s2} {a} {o} {p!r}" for o, p in zip(obs, probs)]
    for s in range(m.n_states):
        for a in range(na):
            r = m.rewards[s * na + a]
            if r != 0.0:
                lines.append(f"R {s} {a} {r!r}")
    lines += [f"reach {s}" for s in sorted(m.reach)]
    lines += [f"avoid {s}" for s in sorted(m.avoid)]
    if m.partition is not None:
        lines += [f"region {s} {lbl}" for s, lbl in enumerate(m.partition)]
    return "\n".join(lines) + "\n"


def model_hash(m: Pomdp) -> str:
    """Short stable fingerprint of the canonical serialization.

    The model is serialized on the first call only; the value is cached on
    the (immutable) model as ``Pomdp.canonical_hash``.
    """
    return m.canonical_hash


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


class _Parser:
    def __init__(self, text: str):
        self.counts = {"states": None, "actions": None, "observations": None}
        self.names: dict[str, dict[int, str]] = {"state": {}, "action": {}, "obs": {}}
        self.trans: dict[tuple[int, int], dict[int, float]] = {}
        self.obs_fn: dict[tuple[int, int], dict[int, float]] = {}
        self.rewards: dict[tuple[int, int], float] = {}
        self.init: dict[int, float] = {}
        self.reach: set[int] = set()
        self.avoid: set[int] = set()
        self.region: dict[int, str] = {}
        self.trans_lines: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = _strip(raw)
            if line:
                self._line(lineno, line.split())

    def _err(self, lineno: int, msg: str):
        raise ModelSyntaxError(msg, line=lineno)

    def _id(self, lineno: int, kind: str, token: str) -> int:
        try:
            i = int(token)
        except ValueError:
            self._err(lineno, f"expected {kind} id, got {token!r}")
        n = self.counts[kind]
        if n is None:
            self._err(lineno, f"{kind} count must be declared before use")
        if not 0 <= i < n:
            raise DanglingIdError(f"{kind} id {i} out of range [0, {n})", line=lineno)
        return i

    def _prob(self, lineno: int, token: str) -> float:
        try:
            return float(token)
        except ValueError:
            self._err(lineno, f"expected a number, got {token!r}")

    def _line(self, lineno: int, tok: list[str]):
        key = tok[0]
        if key in ("states:", "actions:", "observations:"):
            kind = key[:-1]
            if len(tok) != 2:
                self._err(lineno, f"expected '{key} <count>'")
            if self.counts[kind] is not None:
                self._err(lineno, f"duplicate {kind} count")
            try:
                n = int(tok[1])
            except ValueError:
                self._err(lineno, f"expected an integer count, got {tok[1]!r}")
            if n <= 0:
                self._err(lineno, f"{kind} count must be positive")
            self.counts[kind] = n
        elif key in ("state", "action", "obs"):
            if len(tok) != 3:
                self._err(lineno, f"expected '{key} <id> <name>'")
            kind = {"state": "states", "action": "actions", "obs": "observations"}[key]
            i = self._id(lineno, kind, tok[1])
            if i in self.names[key]:
                self._err(lineno, f"duplicate name for {key} {i}")
            self.names[key][i] = tok[2]
        elif key == "T":
            if len(tok) != 5:
                self._err(lineno, "expected 'T <s> <a> <s2> <p>'")
            s = self._id(lineno, "states", tok[1])
            a = self._id(lineno, "actions", tok[2])
            s2 = self._id(lineno, "states", tok[3])
            row = self.trans.setdefault((s, a), {})
            if s2 in row:
                self._err(lineno, f"duplicate transition entry ({s},{a},{s2})")
            row[s2] = self._prob(lineno, tok[4])
            self.trans_lines.setdefault(s, lineno)
        elif key == "Z":
            if len(tok) != 5:
                self._err(lineno, "expected 'Z <s2> <a> <o> <p>'")
            s2 = self._id(lineno, "states", tok[1])
            a = self._id(lineno, "actions", tok[2])
            o = self._id(lineno, "observations", tok[3])
            row = self.obs_fn.setdefault((s2, a), {})
            if o in row:
                self._err(lineno, f"duplicate observation entry ({s2},{a},{o})")
            row[o] = self._prob(lineno, tok[4])
        elif key == "R":
            if len(tok) != 4:
                self._err(lineno, "expected 'R <s> <a> <r>'")
            s = self._id(lineno, "states", tok[1])
            a = self._id(lineno, "actions", tok[2])
            if (s, a) in self.rewards:
                self._err(lineno, f"duplicate reward entry ({s},{a})")
            self.rewards[s, a] = self._prob(lineno, tok[3])
        elif key == "init":
            if len(tok) != 3:
                self._err(lineno, "expected 'init <s> <p>'")
            s = self._id(lineno, "states", tok[1])
            if s in self.init:
                self._err(lineno, f"duplicate init entry for state {s}")
            self.init[s] = self._prob(lineno, tok[2])
        elif key in ("reach", "avoid"):
            if len(tok) != 2:
                self._err(lineno, f"expected '{key} <s>'")
            s = self._id(lineno, "states", tok[1])
            (self.reach if key == "reach" else self.avoid).add(s)
        elif key == "region":
            if len(tok) != 3:
                self._err(lineno, "expected 'region <s> <label>'")
            s = self._id(lineno, "states", tok[1])
            if s in self.region:
                self._err(lineno, f"duplicate region label for state {s}")
            self.region[s] = tok[2]
        else:
            self._err(lineno, f"unknown keyword {key!r}")


def parse_model(text: str, *, strict_reach: bool = False) -> Pomdp:
    """Parse the text format into a validated :class:`Pomdp`.

    By default a reach state with non-self-loop rows is rewritten to an
    absorbing self-loop with a warning; ``strict_reach=True`` turns that
    into a :class:`NonAbsorbingReachError` carrying the offending line.
    """
    p = _Parser(text)
    for kind, n in p.counts.items():
        if n is None:
            raise ModelSyntaxError(f"missing '{kind}:' count")
    ns = p.counts["states"]
    if p.region and len(p.region) != ns:
        missing = next(s for s in range(ns) if s not in p.region)
        raise ModelError(f"partition is partial: state {missing} has no region label")

    if strict_reach:
        for s in sorted(p.reach):
            for a in range(p.counts["actions"]):
                row = p.trans.get((s, a), {})
                live = {x for x, q in row.items() if q > PROB_EPS}
                if live != {s}:
                    raise NonAbsorbingReachError(
                        f"reach state {s} is not absorbing under action {a}",
                        line=p.trans_lines.get(s),
                    )

    def names_or_count(kind_key: str, count_key: str):
        table = p.names[kind_key]
        n = p.counts[count_key]
        if not table:
            return n
        prefix = {"state": "s", "action": "a", "obs": "o"}[kind_key]
        return tuple(table.get(i, f"{prefix}{i}") for i in range(n))

    return make_pomdp(
        states=names_or_count("state", "states"),
        actions=names_or_count("action", "actions"),
        observations=names_or_count("obs", "observations"),
        transitions=p.trans,
        obs_fn=p.obs_fn,
        rewards=p.rewards,
        init=p.init,
        reach=p.reach,
        avoid=p.avoid,
        partition=[p.region[s] for s in range(ns)] if p.region else None,
        on_nonabsorbing_reach="error" if strict_reach else "rewrite",
    )


def load_model(path: str | Path, *, strict_reach: bool = False) -> Pomdp:
    return parse_model(Path(path).read_text(), strict_reach=strict_reach)


def dump_model(m: Pomdp, path: str | Path) -> None:
    Path(path).write_text(serialize_model(m))
