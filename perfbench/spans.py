"""Outside-in span tracer for the pocketgfn benchmark.

The tracer never edits ``src/``. It replaces public names in the namespaces
where callers look them up: a ``from``-import binds a name per module, so a
function is replaced in every ``pocketgfn`` module that binds it, and a method
is replaced on its class. ``restore`` puts every original back.

Spans record name, start, end, parent and whether a tape was active at call
time. Tape nodes are attributed by the change in ``len(tape.nodes)`` across a
call; backward time per span comes from timing each recorded node's ``vjp``
in the span's node range. Autodiff primitives are counted and timed but are
not spans, so a layer's self time still holds the primitives it calls.
"""

from __future__ import annotations

import gc
import sys
from collections import defaultdict, namedtuple
from time import perf_counter

import numpy as np

PRIMITIVES = (
    "add", "sub", "neg", "mul", "scale", "square", "matmul", "einsum2", "relu", "tanh", "exp",
    "log", "sqrt", "softmax_rows", "log_softmax_rows", "layer_norm_rows", "concat", "gather_rows",
    "reshape", "permute", "sum_all", "mean_rows",
)

# Spans opened by the benchmark itself (operation roots and infer phases);
# time they hold directly is time no layer span covers.
HARNESS_PREFIX = "bench."
# One measured operation: a training step or an infer cycle. Per-operation
# figures count only spans and primitives inside one.
OP = "bench.op"


# A closed span. Closed spans are tuples of plain values, which the garbage
# collector stops tracking, so a long trace does not slow the program's own
# collections. ``child_s`` is time covered by child spans, collections or
# tracer bookkeeping; ``skip_s`` is the bookkeeping part, which is not
# program time.
Span = namedtuple("Span", "name start end parent taped n_lo n_hi child_s skip_s in_op info")


def span_dur(s: Span) -> float:
    return s.end - s.start


def span_self(s: Span) -> float:
    return s.end - s.start - s.child_s


class _Open:
    __slots__ = ("idx", "name", "start", "parent", "taped", "tape_key", "n_lo", "child_s", "skip_s", "in_op")


class Tracer:
    def __init__(self, ad):
        self._ad = ad
        self._active_tape = ad.active_tape
        self.spans: list[Span | None] = []
        self.bwd_s: dict[int, float] = {}
        self._stack: list[_Open] = []
        self._taped_by_tape: dict[int, list[int]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []
        self._prim_depth = 0
        self._in_op = False
        self._gc_start = 0.0
        self._gc_any_s = 0.0
        # the counters below only run inside an operation
        self.prim_calls = 0
        self.prim_s = 0.0
        self.log_softmax_s = 0.0
        self.tape_nodes = 0
        self.gc_s = 0.0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> _Open:
        tape = self._active_tape()
        if name == OP:
            self._in_op = True
        rec = _Open()
        rec.idx = len(self.spans)
        rec.name = name
        rec.parent = self._stack[-1].idx if self._stack else -1
        rec.taped = tape is not None
        rec.tape_key = id(tape)
        rec.n_lo = len(tape.nodes) if tape is not None else 0
        rec.child_s = 0.0
        rec.skip_s = 0.0
        rec.in_op = self._in_op
        self.spans.append(None)
        self._stack.append(rec)
        # stamp last (and the end first in close): no tracked object is
        # allocated in between, so no collection can fall inside a span's
        # interval and also be charged to its parent
        rec.start = perf_counter()
        return rec

    def close(self, rec: _Open, info=None) -> None:
        end = perf_counter()
        if self._stack.pop() is not rec:
            raise RuntimeError(f"span {rec.name!r} closed out of order")
        if rec.name == OP:
            self._in_op = False
        n_hi = rec.n_lo
        if rec.taped:
            tape = self._active_tape()
            if tape is not None and id(tape) == rec.tape_key:
                n_hi = len(tape.nodes)
                self._taped_by_tape[rec.tape_key].append(rec.idx)
        self.spans[rec.idx] = Span(rec.name, rec.start, end, rec.parent, rec.taped, rec.n_lo, n_hi,
                                   rec.child_s, rec.skip_s, rec.in_op, info)
        if self._stack:
            self._stack[-1].child_s += end - rec.start

    def _charge_top(self, seconds: float, skip: bool) -> None:
        if self._stack:
            top = self._stack[-1]
            top.child_s += seconds
            if skip:
                top.skip_s += seconds

    def _on_gc(self, phase, info) -> None:
        # collections free the tape's reference cycles; a pause is charged to
        # no layer, so it does not inflate the self time of the span it lands in
        if phase == "start":
            self._gc_start = perf_counter()
            return
        dt = perf_counter() - self._gc_start
        self._gc_any_s += dt
        if self._in_op:
            self.gc_s += dt
            self._charge_top(dt, skip=False)

    def _span_wrapper(self, fn, name, name_fn=None, on_result=None):
        tracer = self

        def wrapped(*args, **kwargs):
            span = tracer.open(name_fn(args, kwargs) if name_fn else name)
            info = None
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    info = on_result(args, kwargs, out)
            finally:
                tracer.close(span, info)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> int:
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pocketgfn" or mod_name.startswith("pocketgfn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))
                    hits += 1
        return hits

    def wrap_function(self, fn, name, name_fn=None, on_result=None) -> None:
        if not self._replace_everywhere(fn, self._span_wrapper(fn, name, name_fn, on_result)):
            raise RuntimeError(f"{name}: no pocketgfn module binds {fn.__qualname__}")

    def wrap_method(self, cls, attr, name, on_result=None) -> None:
        fn = vars(cls)[attr]
        setattr(cls, attr, self._span_wrapper(fn, name, on_result=on_result))
        self._undo.append((cls, attr, fn))

    def wrap_primitives(self) -> None:
        for prim in PRIMITIVES:
            fn = getattr(self._ad, prim)
            self._replace_everywhere(fn, self._prim_wrapper(fn, prim == "log_softmax_rows"))

    def _prim_wrapper(self, fn, is_log_softmax):
        tracer = self

        def wrapped(*args, **kwargs):
            # composites (sub, square, mean_rows) call other primitives; only
            # the outermost call counts
            if tracer._prim_depth or not tracer._in_op:
                return fn(*args, **kwargs)
            tracer._prim_depth = 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t
                tracer._prim_depth = 0
                tracer.prim_calls += 1
                tracer.prim_s += dt
                if is_log_softmax:
                    tracer.log_softmax_s += dt

        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_backward(self) -> None:
        real = self._ad.backward
        tracer = self

        def backward(loss):
            t0, gc0 = perf_counter(), tracer._gc_any_s
            tape = loss._tape
            nodes = tape.nodes if tape is not None else []
            times = np.zeros(len(nodes))
            originals = [node.vjp for node in nodes]
            for i, node in enumerate(nodes):
                node.vjp = _timed_vjp(originals[i], times, i)
            # collections during bookkeeping are already charged
            tracer._charge_top(perf_counter() - t0 - (tracer._gc_any_s - gc0), skip=True)
            span = tracer.open("autodiff.backward")
            try:
                real(loss)
            finally:
                tracer.close(span)
            t0, gc0 = perf_counter(), tracer._gc_any_s
            # drop the timing closures now, so the collector that frees the
            # tape's cycles has no more to walk than without the tracer
            for node, vjp in zip(nodes, originals):
                node.vjp = vjp
            if tracer._in_op:
                tracer.tape_nodes += len(nodes)
            cum = np.concatenate([[0.0], np.cumsum(times)])
            for idx in tracer._taped_by_tape.pop(id(tape), []):
                s = tracer.spans[idx]
                tracer.bwd_s[idx] = float(cum[s.n_hi] - cum[s.n_lo])
            tracer._charge_top(perf_counter() - t0 - (tracer._gc_any_s - gc0), skip=True)

        backward.__wrapped__ = real
        self._replace_everywhere(real, backward)

    def start_gc_clock(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append((None, None, self._on_gc))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if owner is None:
                gc.callbacks.remove(original)
            else:
                setattr(owner, attr, original)


def _timed_vjp(vjp, times, i):
    def timed(g):
        t = perf_counter()
        out = vjp(g)
        times[i] = perf_counter() - t
        return out

    return timed


def install(tracer: Tracer, pg) -> None:
    """Wrap every traced layer boundary of the pocketgfn modules in ``pg``."""
    ad, nn, pocket, ligand, trio, pol, rewards, training, cli = (
        pg.autodiff, pg.nn, pg.pocket, pg.ligand, pg.trioformer, pg.policy, pg.rewards, pg.training, pg.cli,
    )
    tracer.wrap_primitives()
    tracer.wrap_backward()
    tracer.start_gc_clock()

    def dist_info(args, kwargs, dist):
        return int(dist.mask.sum()), len(dist.mask)

    def traj_info(args, kwargs, traj):
        max_nodes = args[4] if len(args) > 4 else kwargs["max_nodes"]
        return len(traj.actions), traj.states[-1].n >= max_nodes

    def tri_name(args, kwargs):
        axis = args[2] if len(args) > 2 else kwargs["axis"]
        return "trioformer.tri_pocket" if axis == "pocket" else "trioformer.tri_ligand"

    tracer.wrap_method(pol.PolicyNetwork, "action_distribution", "policy.action_distribution", on_result=dist_info)
    tracer.wrap_method(pol.PolicyNetwork, "log_z", "policy.log_z")
    tracer.wrap_function(pol.log_prob_at, "policy.log_prob_at")
    tracer.wrap_function(pol.sample_action, "policy.sample_action")
    tracer.wrap_function(pocket.encode_pocket, "pocket.encode")
    tracer.wrap_function(trio.trioformer_stack, "trioformer.stack")
    tracer.wrap_function(trio.triangle_update, "trioformer.tri", name_fn=tri_name)
    tracer.wrap_function(trio.pair_transition, "trioformer.transition")
    tracer.wrap_function(trio.biased_cross_attention, "trioformer.cross_attn")
    tracer.wrap_function(ligand.legal_actions, "ligand.legal_actions")
    tracer.wrap_function(ligand.apply_action, "ligand.apply_action")
    tracer.wrap_function(ligand.canonical_key, "ligand.canonical_key")
    tracer.wrap_function(rewards.state_quality, "rewards.state_quality")
    tracer.wrap_function(rewards.docking_score, "rewards.docking_score")
    tracer.wrap_function(rewards.diversity, "rewards.diversity")
    tracer.wrap_function(rewards.fingerprint, "rewards.fingerprint")
    tracer.wrap_function(training.sample_trajectory, "training.rollout", on_result=traj_info)
    tracer.wrap_function(training.shaped_log_reward, "training.shaped_log_reward")
    tracer.wrap_function(training.trajectory_backward_log_prob, "training.backward_log_prob")
    tracer.wrap_function(training.tb_loss_tensor, "training.tb_loss")
    tracer.wrap_function(training.exact_terminal_distribution, "training.exact_distribution")
    tracer.wrap_function(training.target_distribution, "training.target_distribution")
    tracer.wrap_function(training.total_variation, "training.total_variation")
    tracer.wrap_method(nn.Adam, "step", "nn.adam")
    tracer.wrap_method(nn.ParamStore, "zero_grads", "nn.zero_grads")
    tracer.wrap_function(nn.save_checkpoint, "nn.checkpoint_save")
    tracer.wrap_function(nn.load_checkpoint, "nn.checkpoint_load")
    tracer.wrap_function(cli.cmd_sample, "cli.sample")
    tracer.wrap_function(cli.cmd_evaluate, "cli.evaluate")


def summarize(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer numbers; sums are per operation (a training step or an infer cycle)."""
    by = defaultdict(lambda: {"calls": 0, "dur": 0.0, "self": 0.0, "bwd": 0.0, "nodes": 0,
                              "taped_calls": 0, "taped_dur": 0.0})
    calls_all = defaultdict(lambda: [0, 0.0])  # spans outside operations too, for per-call figures
    for i, s in enumerate(tracer.spans):
        dur = span_dur(s)
        calls_all[s.name][0] += 1
        calls_all[s.name][1] += dur
        if not s.in_op:
            continue
        agg = by[s.name]
        agg["calls"] += 1
        agg["dur"] += dur
        agg["self"] += span_self(s)
        agg["bwd"] += tracer.bwd_s.get(i, 0.0)
        agg["nodes"] += s.n_hi - s.n_lo
        if s.taped:
            agg["taped_calls"] += 1
            agg["taped_dur"] += dur

    spans = tracer.spans
    per = 1.0 / max(n_ops, 1)

    def rate(num, den):
        return num / den if den else 0.0

    pol = by["policy.action_distribution"]
    legal = scored = 0
    traj_lens, cap_hits = [], 0
    oracle_states = 0
    sample_draws = 0
    for s in spans:
        if not s.in_op:
            continue
        if s.name == "policy.action_distribution" and s.info is not None:
            legal += s.info[0]
            scored += s.info[1]
            if s.parent >= 0 and spans[s.parent].name == "training.exact_distribution":
                oracle_states += 1
        elif s.name == "training.rollout" and s.info is not None:
            traj_lens.append(s.info[0])
            cap_hits += bool(s.info[1])
            if s.parent >= 0 and spans[s.parent].name == "cli.sample":
                sample_draws += 1

    out = {
        "training.rollout_s": by["training.rollout"]["dur"] * per,
        "training.traj_len_mean": float(np.mean(traj_lens)) if traj_lens else 0.0,
        "training.cap_hit_frac": rate(cap_hits, len(traj_lens)),
        "policy.calls_taped": pol["taped_calls"] * per,
        "policy.calls_untaped": (pol["calls"] - pol["taped_calls"]) * per,
        "policy.fwd_taped_s": pol["taped_dur"] * per,
        "policy.fwd_untaped_s": (pol["dur"] - pol["taped_dur"]) * per,
        "policy.own_s": pol["self"] * per,
        "policy.legal_row_frac": rate(legal, scored),
        "autodiff.tape_nodes": tracer.tape_nodes * per,
        "autodiff.backward_s": by["autodiff.backward"]["dur"] * per,
        "autodiff.backward_us_per_node": 1e6 * rate(by["autodiff.backward"]["dur"], tracer.tape_nodes),
        "autodiff.log_softmax_rows_s": tracer.log_softmax_s * per,
        "autodiff.prim_calls": tracer.prim_calls * per,
        "autodiff.prim_us_per_call": 1e6 * rate(tracer.prim_s, tracer.prim_calls),
    }
    for block in ("stack", "tri_pocket", "tri_ligand", "transition", "cross_attn"):
        agg = by[f"trioformer.{block}"]
        out[f"trioformer.{block}_fwd_s"] = agg["dur"] * per
        out[f"trioformer.{block}_bwd_s"] = agg["bwd"] * per
        out[f"trioformer.{block}_nodes"] = agg["nodes"] * per
    enc = by["pocket.encode"]
    out.update({
        "pocket.encode_calls": enc["calls"] * per,
        "pocket.encode_fwd_s": enc["dur"] * per,
        "pocket.encode_nodes": enc["nodes"] * per,
        "nn.adam_s": by["nn.adam"]["dur"] * per,
        "nn.checkpoint_save_s": rate(calls_all["nn.checkpoint_save"][1], calls_all["nn.checkpoint_save"][0]),
        "nn.checkpoint_load_s": rate(calls_all["nn.checkpoint_load"][1], calls_all["nn.checkpoint_load"][0]),
        "python.gc_s": tracer.gc_s * per,
    })
    for name in ("legal_actions", "apply_action", "canonical_key"):
        agg = by[f"ligand.{name}"]
        out[f"ligand.{name}_s"] = agg["dur"] * per
        out[f"ligand.{name}_calls"] = agg["calls"] * per
    n_oracles = by["training.exact_distribution"]["calls"]
    n_samples = by["cli.sample"]["calls"]
    out.update({
        "ligand.oracle_states": rate(oracle_states, n_oracles),
        "rewards.state_quality_s": by["rewards.state_quality"]["dur"] * per,
        "rewards.diversity_s": by["rewards.diversity"]["dur"] * per,
        "rewards.fingerprint_s": by["rewards.fingerprint"]["dur"] * per,
        "cli.sample_draws": rate(sample_draws, n_samples),
        # phase figures the infer worker fills in from its untraced cycle
        "ligand.oracle_molecules": 0,
        "cli.sample_unique_frac": 0.0,
        "cli.sample_mol_per_s": 0.0,
        "training.oracle_s": 0.0,
        "cli.eval_mol_per_s": 0.0,
    })

    # coverage of an operation: the share of its time, less tracer
    # bookkeeping, that some layer span (or a collection) accounts for
    roots = [i for i, s in enumerate(spans) if s.name == OP]
    uncovered = defaultdict(float)
    skipped = defaultdict(float)
    root_of: dict[int, int] = {}
    for i, s in enumerate(spans):
        if not s.in_op:
            continue
        root_of[i] = i if s.name == OP else root_of[s.parent]
        if s.name.startswith(HARNESS_PREFIX):
            uncovered[root_of[i]] += span_self(s)
            skipped[root_of[i]] += s.skip_s
    coverage = [1.0 - uncovered[i] / (span_dur(spans[i]) - skipped[i]) for i in roots if span_dur(spans[i]) > skipped[i]]
    out["trace.coverage_min"] = min(coverage) if coverage else 0.0
    out["trace.coverage_mean"] = float(np.mean(coverage)) if coverage else 0.0
    out["trace.ops"] = len(roots)
    out["_layers"] = {name: {k: v for k, v in agg.items()} for name, agg in sorted(by.items())}
    return out
