"""Reference oracles by walking the raw state tree on every call, for
checking the cached enumeration in ``pocketgfn.ligand`` and the oracles in
``pocketgfn.training`` that read it.

Each call applies every legal action of every reachable raw state again
and canonicalizes every raw form it ends in, so it costs seconds at the desk
library's cap 4: usable up to the enumeration guard.
"""

from collections import defaultdict

from pocketgfn.ligand import (
    LigandState,
    Stop,
    apply_action,
    canonical_key,
    initial_state,
    legal_actions,
    stop_is_forced,
)


def enumerate_terminal_states(library, max_nodes: int) -> list[LigandState]:
    """All distinct molecules, one raw form each (the first the depth-first
    walk meets), in sorted canonical-key order."""
    seen_raw = set()
    frontier = [initial_state()]
    canon: dict[str, LigandState] = {}
    while frontier:
        s = frontier.pop()
        for a in legal_actions(s, library, max_nodes):
            if isinstance(a, Stop):
                continue
            child = apply_action(s, a, library, max_nodes)
            key = (child.nodes, child.edges)
            if key in seen_raw:
                continue
            seen_raw.add(key)
            frontier.append(child)
            ckey = canonical_key(child)
            if ckey not in canon:
                canon[ckey] = LigandState(nodes=child.nodes, edges=child.edges, terminal=True)
    return [canon[k] for k in sorted(canon)]


def exact_terminal_distribution(policy, ctx, library, max_nodes: int) -> dict[str, float]:
    """The model's molecule distribution by a depth-by-depth walk that
    multiplies action probabilities along every raw trajectory, one policy
    pass per depth; a forced-stop state passes its mass to its molecule."""
    out: dict[str, float] = defaultdict(float)
    frontier = [(initial_state(), 1.0)]
    while frontier:
        dist = policy.action_distribution([s for s, _ in frontier], ctx, max_nodes)
        children = []
        for b, (s, p) in enumerate(frontier):
            rows = dist.rows(b)
            for action, prob in zip(dist.actions[rows], dist.probs[rows]):
                child = apply_action(s, action, library, max_nodes)
                if child.terminal or stop_is_forced(child, library, max_nodes):
                    out[canonical_key(child)] += p * prob
                else:
                    children.append((child, p * prob))
        frontier = children
    return dict(out)


def target_distribution(pocket, library, max_nodes: int, reward_fn, beta: float) -> dict[str, float]:
    """q^beta / Z over the molecules of :func:`enumerate_terminal_states`."""
    raw = {canonical_key(s): float(reward_fn(pocket, [s])[0]) ** beta for s in enumerate_terminal_states(library, max_nodes)}
    z = sum(raw.values())
    return {k: v / z for k, v in raw.items()}
