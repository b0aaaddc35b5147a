"""Which spoofsim names the traced run wraps, and the per-layer metrics
derived from the spans they record.

Every wrap target is the module-global name a caller module uses (or a
class attribute), so a span sits at the boundary between two layers.
Span names are "<layer>.<what>"; the layers are the program's modules,
with waveform, channel and scenario grouped as burst synthesis ("synth").
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from tracing import self_times
from workloads import PAPER_GAN_ATTEMPTS, PAPER_GAN_EPOCHS, PAPER_GRID_CELLS

NS = 1e-9


def _batch(x) -> int:
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _macs(net) -> int:
    sizes = net.layer_sizes
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


# Computed, not measured: dense matmul flops from shapes and batch sizes
# (forward and predict 2*B*sum(in*out), backward 4*B*sum(in*out) for the
# weight and input gradients), and Adam traffic as 7 float64 streams per
# parameter (read param, grad, m, v; write param, m, v).
def _forward_hook(counts, args, kwargs, result):
    counts["nn.flops_computed"] += 2 * _batch(args[1]) * _macs(args[0])


def _backward_hook(counts, args, kwargs, result):
    counts["nn.flops_computed"] += 4 * _batch(args[2]) * _macs(args[0])


def _adam_hook(counts, args, kwargs, result):
    counts["nn.adam_bytes_computed"] += 7 * 8 * args[0].n_parameters()


def _condition_hook(counts, args, kwargs, result):
    counts["frontend.condition_rows"] += _batch(args[0])


def _burst_hook(counts, args, kwargs, result):
    counts["synth.bursts"] += 1


def _noise_hook(counts, args, kwargs, result):
    shape = tuple(args[0])
    if len(shape) == 3:  # a batched (bursts, antennas, points) pool
        counts["synth.bursts"] += shape[0]


def _net_counts(counts, role, net):
    counts[f"nn.params.{role}"] = net.n_parameters()
    counts[f"nn.first_layer_weights.{role}"] = net.weights[0].size


def _classifier_hook(counts, args, kwargs, result):
    _net_counts(counts, "classifier", getattr(result, "net", result))


def _gan_hook(counts, args, kwargs, result):
    generator, discriminator, trace = result
    counts["gan.attempts"] += 1
    counts["gan.epochs"] += trace.epochs_run
    counts["gan.converged_attempts"] += bool(trace.converged)
    _net_counts(counts, "generator", generator)
    _net_counts(counts, "discriminator", discriminator)


def _attack_hook(kind):
    def hook(counts, args, kwargs, result):
        counts[f"attacks.{kind}_trials"] += result.n_trials
        counts[f"attacks.{kind}_success"] = result.success_prob
    return hook


ATTACK_KINDS = ("random", "replay", "gan")

# (target, span name, hook)
TARGETS = [
    ("spoofsim.cli:run_experiment", "experiments.run_experiment", None),
    ("spoofsim.experiments:build_version", "experiments.build_version", None),
    ("spoofsim.experiments:save_model", "experiments.save_model", None),
    ("spoofsim.experiments:save_trace_csv", "experiments.save_trace_csv", None),
    ("spoofsim.experiments:build_dataset", "authenticator.build_dataset", None),
    ("spoofsim.experiments:train_classifier", "authenticator.train_classifier",
     _classifier_hook),
    ("spoofsim.experiments:evaluate", "authenticator.evaluate", None),
    ("spoofsim.attacks:classify", "authenticator.classify", None),
    ("spoofsim.experiments:train_spoofer", "gan.train_spoofer", None),
    ("spoofsim.attacks:train_gan", "gan.train_gan", _gan_hook),
    ("spoofsim.gan:_train_epoch", "gan.train_epoch", None),
    ("spoofsim.gan:from_t_probability", "gan.from_t_probability", None),
    ("spoofsim.gan:check_convergence", "gan.check_convergence", None),
    ("spoofsim.gan:scale_to_budget", "gan.scale_to_budget", None),
    ("spoofsim.gan:_scale_backward", "gan.scale_backward", None),
    *[(f"spoofsim.experiments:run_{kind}_attack", f"attacks.{kind}", _attack_hook(kind))
      for kind in ATTACK_KINDS],
    ("spoofsim.scenario:ScenarioConfig.draw_link", "synth.draw_link", None),
    ("spoofsim.authenticator:sample_intended_burst", "synth.sample_intended_burst",
     _burst_hook),
    ("spoofsim.authenticator:sample_waveform_burst", "synth.sample_waveform_burst",
     _burst_hook),
    ("spoofsim.authenticator:random_symbol_phases", "synth.random_symbol_phases", None),
    ("spoofsim.authenticator:features", "synth.features", None),
    ("spoofsim.attacks:sample_replay_burst", "synth.sample_replay_burst", _burst_hook),
    ("spoofsim.attacks:sample_waveform_burst", "synth.sample_waveform_burst", _burst_hook),
    ("spoofsim.attacks:random_symbol_phases", "synth.random_symbol_phases", None),
    ("spoofsim.attacks:generate_spoof_burst", "synth.generate_spoof_burst", None),
    ("spoofsim.attacks:apply_channel", "synth.apply_channel", _burst_hook),
    ("spoofsim.attacks:features", "synth.features", None),
    ("spoofsim.gan:sample_intended_burst", "synth.sample_intended_burst", _burst_hook),
    ("spoofsim.gan:features", "synth.features", None),
    ("spoofsim.gan:_draw_link_batch", "synth.draw_link_batch", None),
    ("spoofsim.gan:complex_awgn", "synth.complex_awgn", _noise_hook),
    ("spoofsim.authenticator:condition_rows", "frontend.condition_rows", _condition_hook),
    ("spoofsim.gan:condition_rows", "frontend.condition_rows", _condition_hook),
    ("spoofsim.gan:condition_rows_vjp", "frontend.condition_rows_vjp", None),
    *[(f"spoofsim.{module}:{op}", f"nn.{op}", hook)
      for module in ("authenticator", "gan")
      for op, hook in (("forward", _forward_hook), ("backward", _backward_hook),
                       ("adam_step", _adam_hook), ("predict", _forward_hook))],
]

ROOT = "experiments.run_experiment"
# Nearest enclosing stage of a synthesis span decides its split.
SYNTH_STAGES = {"authenticator.build_dataset": "dataset", "gan.train_gan": "gan_pool",
                **{f"attacks.{kind}": "attack" for kind in ATTACK_KINDS}}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.startswith("share.") or metric.endswith("_success"):
        return "fraction"
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("us_per_burst", "us"),
                         ("s_per_epoch", "s"), ("_s", "s"),
                         (".s", "s"), ("flops_computed", "flop"), ("bytes_computed", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanIndex:
    """Per-name aggregates plus ancestor lookups over one run's spans."""

    def __init__(self, names, spans):
        self.names = names
        self.spans = spans
        self.span_names = [names[s[0]] for s in spans]
        selfs = self_times(spans)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        for index, (_, start, end, _) in enumerate(spans):
            name = self.span_names[index]
            self.calls[name] += 1
            self.total[name] += (end - start) * NS
            self.self[name] += selfs[index] * NS
        self.selfs = selfs

    def nearest(self, index, wanted):
        """Name of the closest ancestor of span `index` whose name is in `wanted`."""
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.span_names[parent]
            if name in wanted:
                return name
            parent = self.spans[parent][3]
        return None

    def indices(self, name):
        return [i for i, n in enumerate(self.span_names) if n == name]

    def descendants(self, index):
        """Spans opened while span `index` was open (single-threaded program)."""
        end = self.spans[index][2]
        i = index + 1
        while i < len(self.spans) and self.spans[i][1] < end:
            yield i
            i += 1

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for name, value in self.self.items():
            out[layer_of(name)] += value
        return dict(out)


GAN_PHASE_MARKERS = ("gan.train_epoch", "gan.from_t_probability", "gan.check_convergence",
                     "frontend.condition_rows")


def gan_phases(index: SpanIndex) -> dict:
    """Split each GAN training span into real pool and epoch phases (a)-(d).

    Boundaries come from wrapped calls: the real pool ends when it is first
    conditioned; (b) is the discriminator epoch; (c) runs from its end to
    the first discriminator probability of the epoch; (d) ends with the
    epoch's last convergence check; (a) is the rest of the epoch before (b).
    Without those markers only the whole epoch loop is reported.
    """
    out = defaultdict(float)
    have_markers = all(index.calls.get(name) for name in GAN_PHASE_MARKERS)
    for root in index.indices("gan.train_gan"):
        _, t_start, t_end, _ = index.spans[root]
        marks = defaultdict(list)
        for i in index.descendants(root):
            marks[index.span_names[i]].append(index.spans[i][1:3])
        pool_start = min((s for s, _ in marks["synth.sample_intended_burst"]), default=t_start)
        pool_end = marks["frontend.condition_rows"][0][1] if marks["frontend.condition_rows"] \
            else t_start
        out["gan.real_pool_s"] += (pool_end - pool_start) * NS
        out["gan.epoch_loop_s"] += (t_end - pool_end) * NS
        if not have_markers:
            continue
        probs = sorted(s for s, _ in marks["gan.from_t_probability"])
        checks = sorted(e for _, e in marks["gan.check_convergence"])
        epochs = marks["gan.train_epoch"]
        a_start = pool_end
        for k, (b_start, b_end) in enumerate(epochs):
            limit = epochs[k + 1][0] if k + 1 < len(epochs) else t_end
            p = bisect.bisect_right(probs, b_end)
            c = bisect.bisect_left(checks, limit) - 1
            if p == len(probs) or c < 0 or not b_end <= probs[p] <= checks[c] <= limit:
                have_markers = False  # call order changed: keep only the loop total
                break
            d_start, d_end = probs[p], checks[c]
            out["gan.phase_a_s"] += (b_start - a_start) * NS
            out["gan.phase_b_s"] += (b_end - b_start) * NS
            out["gan.phase_c_s"] += (d_start - b_end) * NS
            out["gan.phase_d_s"] += (d_end - d_start) * NS
            a_start = d_end
    if not have_markers:
        for phase in "abcd":
            out.pop(f"gan.phase_{phase}_s", None)
    return dict(out)


def per_layer_metrics(ix: SpanIndex, counts) -> dict:
    """Per-layer counts and times of one traced cell (seconds unless named)."""
    m = {}

    m["experiments.self_s"] = ix.self[ROOT]
    m["experiments.build_version_calls"] = ix.calls["experiments.build_version"]
    m["experiments.build_version_s"] = ix.total["experiments.build_version"]
    m["experiments.save_model_s"] = ix.total["experiments.save_model"]
    m["experiments.save_trace_csv_s"] = ix.total["experiments.save_trace_csv"]

    split = defaultdict(float)
    for i, name in enumerate(ix.span_names):
        if layer_of(name) == "synth":
            stage = SYNTH_STAGES.get(ix.nearest(i, SYNTH_STAGES), "other")
            split[stage] += ix.selfs[i] * NS
    m["synth.bursts"] = counts.get("synth.bursts", 0)
    m["synth.s"] = sum(split.values())
    m["synth.us_per_burst"] = m["synth.s"] / m["synth.bursts"] * 1e6 if m["synth.bursts"] else 0.0
    for stage in ("dataset", "attack", "gan_pool", "other"):
        m[f"synth.{stage}_s"] = split[stage]

    m["frontend.condition_calls"] = ix.calls["frontend.condition_rows"]
    m["frontend.condition_rows"] = counts.get("frontend.condition_rows", 0)
    m["frontend.condition_s"] = ix.self["frontend.condition_rows"]
    m["frontend.vjp_calls"] = ix.calls["frontend.condition_rows_vjp"]
    m["frontend.vjp_s"] = ix.self["frontend.condition_rows_vjp"]

    for op, short in (("forward", "forward"), ("backward", "backward"),
                      ("adam_step", "adam"), ("predict", "predict")):
        m[f"nn.{short}_s"] = ix.self[f"nn.{op}"]
        m[f"nn.{short}_calls"] = ix.calls[f"nn.{op}"]
    for role in ("classifier", "generator", "discriminator"):
        m[f"nn.params.{role}"] = counts.get(f"nn.params.{role}", 0)
        m[f"nn.first_layer_weights.{role}"] = counts.get(f"nn.first_layer_weights.{role}", 0)
    m["nn.flops_computed"] = counts.get("nn.flops_computed", 0)
    m["nn.adam_bytes_computed"] = counts.get("nn.adam_bytes_computed", 0)

    train = ("authenticator.train_classifier",)
    steps = sum(1 for i in ix.indices("nn.adam_step") if ix.nearest(i, train))
    m["authenticator.build_dataset_s"] = ix.total["authenticator.build_dataset"]
    m["authenticator.train_s"] = ix.total["authenticator.train_classifier"]
    m["authenticator.steps"] = steps
    m["authenticator.steps_per_s"] = steps / m["authenticator.train_s"] \
        if m["authenticator.train_s"] else 0.0
    m["authenticator.evaluate_s"] = ix.total["authenticator.evaluate"]

    m["gan.train_s"] = ix.total["gan.train_gan"]
    m["gan.attempts"] = counts.get("gan.attempts", 0)
    m["gan.converged_attempts"] = counts.get("gan.converged_attempts", 0)
    m["gan.epochs"] = counts.get("gan.epochs", 0)
    m.update(gan_phases(ix))  # phases (a)-(d) only where their boundaries were seen
    m.setdefault("gan.real_pool_s", 0.0)
    m.setdefault("gan.epoch_loop_s", 0.0)
    m["gan.s_per_epoch"] = m["gan.epoch_loop_s"] / m["gan.epochs"] if m["gan.epochs"] else 0.0

    attack_names = {f"attacks.{kind}" for kind in ATTACK_KINDS}
    total_trials = 0
    for kind in ATTACK_KINDS:
        seconds = ix.total[f"attacks.{kind}"]
        trials = counts.get(f"attacks.{kind}_trials", 0)
        total_trials += trials
        m[f"attacks.{kind}_s"] = seconds
        m[f"attacks.{kind}_trials_per_s"] = trials / seconds if seconds else 0.0
    m["attacks.s"] = sum(ix.total[name] for name in attack_names)
    m["attacks.trials_per_s"] = total_trials / m["attacks.s"] if m["attacks.s"] else 0.0
    m["attacks.classify_s"] = sum(
        (ix.spans[i][2] - ix.spans[i][1]) * NS
        for i in ix.indices("authenticator.classify") if ix.nearest(i, attack_names))

    cell = ix.total[ROOT]
    for layer, seconds in sorted(ix.layer_self().items()):
        m[f"share.{layer}"] = seconds / cell if cell else 0.0
    return m


def quality(counts) -> dict:
    """Attack success rates the traced cell reported (no better direction)."""
    return {f"attacks.{kind}_success": counts[f"attacks.{kind}_success"]
            for kind in ATTACK_KINDS if f"attacks.{kind}_success" in counts}


def stage_shares(ix: SpanIndex) -> dict:
    """Inclusive time of the root span's direct children, by layer, over the root."""
    roots = set(ix.indices(ROOT))
    cell = ix.total[ROOT]
    out = defaultdict(float)
    for i, (_, start, end, parent) in enumerate(ix.spans):
        if parent in roots:
            out[layer_of(ix.span_names[i])] += (end - start) * NS / cell
    return dict(out)


def design_check(workload, metrics: dict, stages: dict) -> dict:
    """Does the traced cell confirm which layer the workload leans on?"""
    mode, target = workload.expect
    if mode == "self":
        shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
        claimed = sum(shares.get(layer, 0.0) for layer in target)
        others = {k: v for k, v in shares.items() if k not in target}
        label = "+".join(target) + " self time"
    else:
        claimed = stages.get(target, 0.0)
        others = {k: v for k, v in stages.items() if k != target}
        label = f"{target} stage time"
    rival = max(others, key=others.get, default=None)
    holds = rival is None or claimed > others[rival]
    return {"claim": f"{label} is the largest share", "share": claimed,
            "largest_other": rival, "largest_other_share": others.get(rival, 0.0),
            "holds": holds}


def projections(workload, m: dict) -> dict:
    """Computed (not measured) full-table wall times at paper defaults.

    table1: 16 (n_t, n_r) cells of dataset + classifier training + evaluation,
    at this workload's n_r. table3: 64 cells, each adding the worst case
    of 4 GAN attempts x 2000 epochs at this workload's seconds per epoch,
    plus the attack; only where the workload trains a GAN.
    """
    classifier_cell = (m["authenticator.build_dataset_s"] + m["authenticator.train_s"]
                       + m["authenticator.evaluate_s"])
    out = {"projected.table1_h": PAPER_GRID_CELLS["table1"] * classifier_cell / 3600.0,
           "projected.table3_h": None,
           "basis": f"computed from the traced cell at n_r={workload.n_r}; "
                    f"not measured and not gated"}
    if m["gan.attempts"]:
        pool_per_attempt = m["gan.real_pool_s"] / m["gan.attempts"]
        cell = (classifier_cell + m["attacks.s"] + PAPER_GAN_ATTEMPTS
                * (pool_per_attempt + PAPER_GAN_EPOCHS * m["gan.s_per_epoch"]))
        out["projected.table3_h"] = PAPER_GRID_CELLS["table3"] * cell / 3600.0
    return out
