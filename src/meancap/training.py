"""Twin-model training: XE with logit distillation and EMA, then SCST.

The online model learns by gradient; the target model only ever moves as
an exponential moving average of online states and is never part of any
gradient graph.  Both stages share the update step (``_update``), the
stage loop (``_run_stage``), the keyed random streams, and the checkpoint
format, so a resumed run replays the exact remaining trajectory of an
uninterrupted one.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import metrics
from . import tensor as T
from .assignment import BagEmbedder, hungarian, pairing_cost
from .checkpoint import Checkpoint, json_is, save_checkpoint
from .decoding import beam_search, caption_image
from .fastdecode import FastDecoder
from .model import ModelConfig, copy_params, decode_logits, encode, init_params, param_shapes
from .rng import KeyedRng, ROLE_BATCH, ROLE_ONLINE, ROLE_TARGET, generator
from .tokenizer import EOS_ID, PAD_ID, Vocabulary, detokenize_ids, tokenize

PAIRING_STRATEGIES = ("best", "all", "hungarian_best", "hungarian_all")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class TrainingDiverged(RuntimeError):
    """Loss or reward turned non-finite; carries step diagnostics."""

    def __init__(self, step: int, detail: dict):
        super().__init__(f"non-finite value at step {step}: {detail}")
        self.step = step
        self.detail = detail


def noam_lr(step: int, model_dim: int, warmup: int) -> float:
    """Inverse-sqrt schedule with linear warmup; peaks at step == warmup."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    return model_dim ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def adam_update(params: dict, m: dict, v: dict, t: int, lr: float) -> None:
    """Bias-corrected Adam, in place; a missing gradient counts as zero."""
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        p.data = p.data - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)


def ema_update(target: dict, online: dict, momentum: float) -> None:
    """target <- momentum * target + (1 - momentum) * online, parameter-wise."""
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    if momentum == 1.0:
        return
    for name, t_p in target.items():
        if momentum == 0.0:
            t_p.data = online[name].data.copy()
        else:
            t_p.data = momentum * t_p.data + (1.0 - momentum) * online[name].data


@dataclass
class TrainState:
    config: ModelConfig
    online: dict
    target: dict
    m: dict
    v: dict
    step: int = 0
    adam_t: int = 0
    momentum: float = 0.999
    lambda_kd: float = 0.1
    seed: int = 0
    best: dict = None  # the best validation score of this stage, saved as best.ckpt

    def __post_init__(self):
        if set(self.online) != set(self.target):
            raise ValueError("online and target parameter name sets differ")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")
        if not self.lambda_kd >= 0.0:
            raise ValueError(f"lambda_kd must be >= 0, got {self.lambda_kd}")

    @classmethod
    def create(cls, config: ModelConfig, seed: int, dtype=np.float32, **hyper) -> "TrainState":
        """Fresh models; ``hyper`` may set momentum and lambda_kd."""
        online = init_params(config, seed, dtype)
        return cls(
            config=config,
            online=online,
            target=copy_params(online),  # the target starts as an exact copy
            m={n: np.zeros_like(p.data) for n, p in online.items()},
            v={n: np.zeros_like(p.data) for n, p in online.items()},
            seed=seed,
            **hyper,
        )

    def zero_grads(self) -> None:
        for p in self.online.values():
            p.zero_grad()


def _update(state: TrainState, total: T.Tensor, lr: float, detail: dict) -> None:
    """The mean-teacher update both stages end with: a gradient step on the
    online model, then an EMA step of the target.  ``detail`` goes into the
    error if the loss is not finite."""
    if not np.isfinite(total.data):
        raise TrainingDiverged(state.step + 1, detail)
    state.zero_grads()
    T.backward(total)
    state.adam_t += 1
    adam_update(state.online, state.m, state.v, state.adam_t, lr)
    ema_update(state.target, state.online, state.momentum)
    state.step += 1


def sequence_ids(text: str, vocab: Vocabulary, max_length: int) -> list:
    """Caption ids for teacher forcing, truncated to fit the decoder window."""
    ids = tokenize(text, vocab).ids
    if len(ids) > max_length:
        ids = ids[:max_length - 1] + [EOS_ID]
    return ids


def _teacher_forcing(sequences):
    """Right-padded (B, T) decoder inputs, targets and step mask for a batch
    of BOS-led id lists.  The mask comes from the lengths, not from the
    padding id, which a decoder may also emit."""
    steps = np.array([len(s) - 1 for s in sequences])
    ids = np.full((len(sequences), steps.max() + 1), PAD_ID, dtype=np.int64)
    for row, s in zip(ids, sequences):
        row[:len(s)] = s
    mask = (np.arange(steps.max()) < steps[:, None]).astype(np.float64)
    return ids[:, :-1], ids[:, 1:], mask


# ---------------------------------------------------------------------------
# XE stage
# ---------------------------------------------------------------------------


def _xe_weights(mask: np.ndarray, dtype) -> np.ndarray:
    """``sequence_log_prob`` weights of the XE loss for a (B, T) step mask:
    the batch mean of each reference's mean negative log-likelihood."""
    m = mask.astype(dtype)
    valid = m.sum(axis=-1)
    if np.any(valid == 0):
        raise ValueError("XE needs at least one target step in every sequence")
    return -(m / valid[:, None] / len(m))


def xe_step(state: TrainState, batch, lr: float, rng_online: KeyedRng,
            rng_target: KeyedRng) -> dict:
    """One optimizer step of cross-entropy plus logit distillation.

    ``batch`` is a list of (grid, ids).  Each model encodes and decodes the
    whole batch in one pass.  The distillation term compares teacher-forced
    logits of the two models on the same reference; the target pass never
    joins the gradient graph.  It runs first, so that its transient arrays
    are freed before the online graph is built; each model draws its
    dropout from its own stream, so the order changes no draw.
    """
    cfg = state.config
    grids = np.stack([grid for grid, _ in batch])
    inputs, targets, mask = _teacher_forcing([ids for _, ids in batch])
    if state.lambda_kd > 0.0:
        with T.no_grad():
            logits_t = decode_logits(inputs, encode(grids, state.target, cfg, rng=rng_target),
                                     state.target, cfg, rng=rng_target)
    logits_o = decode_logits(inputs, encode(grids, state.online, cfg, rng=rng_online),
                             state.online, cfg, rng=rng_online)
    total = ce = T.sequence_log_prob(logits_o, targets, _xe_weights(mask, logits_o.dtype))
    kd = None
    if state.lambda_kd > 0.0:
        kd = T.masked_mse(logits_t, logits_o, mask)
        total = T.add(ce, T.scale(kd, state.lambda_kd))
        del logits_t
    del logits_o  # no backward reads the logits themselves
    _update(state, total, lr, {"xe_loss": float(total.data), "lr": lr})
    return {"xe_loss": float(ce.data), "kd_loss": None if kd is None else float(kd.data)}


# ---------------------------------------------------------------------------
# SCST stage
# ---------------------------------------------------------------------------


@dataclass
class ScstConfig:
    strategy: str = "best"
    beam_size: int = 5
    learning_rate: float = 5e-6
    lambda_kd: float = 0.1

    def __post_init__(self):
        if self.strategy not in PAIRING_STRATEGIES:
            raise ValueError(f"unknown pairing strategy {self.strategy!r}; pick from {PAIRING_STRATEGIES}")
        if self.beam_size < 2:
            raise ValueError("beam_size must be >= 2: with one hypothesis the baseline removes all signal")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.lambda_kd >= 0.0:
            raise ValueError(f"lambda_kd must be >= 0, got {self.lambda_kd}")


def advantage(rewards) -> list:
    """Reward minus the beam-mean baseline; exactly zero when all tie."""
    rewards = list(rewards)
    if max(rewards) == min(rewards):
        return [0.0] * len(rewards)
    b = sum(rewards) / len(rewards)
    return [r - b for r in rewards]


def distill_pair_logits(target_hyps, online_hyps, online_logits: T.Tensor):
    """Masked MSE between paired hypotheses' per-step logits, averaged over pairs.

    Pair i aligns ``target_hyps[i]`` with ``online_hyps[i]``, whose
    teacher-forced logits, right-padded, are row i of ``online_logits``
    (P, T, N).  Rows align timestep-wise; whichever sequence is longer has
    its extra rows masked out entirely.
    """
    lengths = [min(len(t.logits), len(o.logits)) for t, o in zip(target_hyps, online_hyps)]
    target = np.zeros(online_logits.shape, dtype=online_logits.dtype)
    for rows, h, n in zip(target, target_hyps, lengths):
        rows[:n] = h.logits[:n]
    mask = np.arange(target.shape[1]) < np.array(lengths)[:, None]
    return T.masked_mse(T.Tensor(target), online_logits, mask)


def _pairs(strategy: str, target_beams, online_beams, embedder) -> list:
    """(target hypothesis, online hypothesis number across the batch) pairs.

    "best" strategies pair each image's top target hypothesis, "all" ones
    every one; Hungarian ones pick online partners by a minimum-cost
    assignment, the others by beam rank.
    """
    pairs, offset = [], 0
    for target_beam, online_beam in zip(target_beams, online_beams):
        partner = list(range(len(target_beam)))
        if strategy in ("hungarian_best", "hungarian_all"):
            cost = pairing_cost([h.ids for h in target_beam], [h.ids for h in online_beam], embedder)
            partner = [int(j) for j in hungarian(cost)]
        chosen = range(len(target_beam)) if strategy in ("all", "hungarian_all") else [0]
        pairs += [(target_beam[i], offset + partner[i]) for i in chosen]
        offset += len(online_beam)
    return pairs


def _beams(params, cfg, enc_layers, k):
    """Gradient-free beams, one per image of the (B, G, d) encoder layers."""
    beams = []
    for b in range(enc_layers[0].shape[0]):
        fast = FastDecoder(params, cfg, [T.Tensor(layer.data[b]) for layer in enc_layers])
        beams.append(beam_search(fast.expand, k, cfg.max_length))
    return beams


def scst_step(state: TrainState, batch, scst: ScstConfig, df: metrics.DocumentFrequency,
              vocab: Vocabulary, embedder: BagEmbedder) -> dict:
    """One self-critical step: beam rewards, mean baseline, paired distillation.

    ``batch`` is a list of (grid, reference texts).  Each model encodes the
    batch once and beam-searches each image gradient-free; then all online
    hypotheses are re-scored teacher-forced in one pass inside the gradient
    graph, which the policy and distillation terms share.
    """
    cfg = state.config
    k = scst.beam_size
    grids = np.stack([grid for grid, _ in batch])
    enc_o = encode(grids, state.online, cfg)
    online_beams = _beams(state.online, cfg, enc_o, k)
    top_rewards, baselines, weights = [], [], []
    any_text = False
    for beam, (_, refs) in zip(online_beams, batch):
        captions = [detokenize_ids(h.ids, vocab) for h in beam]
        any_text = any_text or any(captions)
        ref_vectors = metrics.reference_vectors(refs, df)
        rewards = [metrics.reward(c, ref_vectors, df) for c in captions]
        if not all(math.isfinite(r) for r in rewards):
            raise TrainingDiverged(state.step + 1, {"rewards": rewards})
        top_rewards.append(rewards[0])
        baselines.append(sum(rewards) / k)
        # the batch mean of each image's policy loss -sum(a * log p) / k
        weights += [-a / (k * len(batch)) for a in advantage(rewards)]
    if not any_text:
        raise TrainingDiverged(state.step + 1, {"reason": "all hypotheses empty"})

    hyps = [h for beam in online_beams for h in beam]
    inputs, targets, mask = _teacher_forcing([h.ids for h in hyps])
    image = np.repeat(np.arange(len(batch)), [len(beam) for beam in online_beams])
    rows = [T.embedding(layer, image) for layer in enc_o]
    logits = decode_logits(inputs, rows, state.online, cfg)
    total = T.sequence_log_prob(logits, targets, mask * np.array(weights)[:, None])
    kd = None
    if scst.lambda_kd > 0.0:
        with T.no_grad():
            enc_t = encode(grids, state.target, cfg)
        target_beams = _beams(state.target, cfg, enc_t, k)
        pairs = _pairs(scst.strategy, target_beams, online_beams, embedder)
        partners = [j for _, j in pairs]
        kd = distill_pair_logits([t for t, _ in pairs], [hyps[j] for j in partners],
                                 T.embedding(logits, partners))
        total = T.add(total, T.scale(kd, scst.lambda_kd))
    _update(state, total, scst.learning_rate, {"scst_loss": float(total.data)})
    return {
        "reward_mean": sum(top_rewards) / len(top_rewards),
        "baseline": sum(baselines) / len(baselines),
        "kd_loss": None if kd is None else float(kd.data),
    }


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclass
class LoopConfig:
    """Loop bookkeeping shared by both stages.

    ``steps`` is the global step count to stop at, so resuming an
    interrupted run with the same config finishes at the same place.
    """

    steps: int
    batch_size: int = 16
    warmup: int = 1000
    val_every: int = 0  # 0 disables validation entirely
    val_beam: int = 5
    log_path: str = None
    ckpt_dir: str = None

    def __post_init__(self):
        for name in ("steps", "val_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("batch_size", "warmup", "val_beam"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _select_images(samples, batch_size: int, seed: int, step: int) -> list:
    idx = generator(seed, ROLE_BATCH, step, 0).permutation(len(samples))[:batch_size]
    return [samples[int(i)] for i in idx]


def _select_batch(samples, batch_size: int, seed: int, step: int) -> list:
    """Deterministic (sample, reference) picks for one XE step."""
    picked = _select_images(samples, batch_size, seed, step)
    u = generator(seed, ROLE_BATCH, step, 1).random(len(picked))
    return [(s, s.references[int(u_i * len(s.references))]) for s, u_i in zip(picked, u)]


def validate_cider(params, config: ModelConfig, samples, vocab: Vocabulary,
                   beam_size: int, df: metrics.DocumentFrequency) -> float:
    """Corpus CIDEr-D of top-of-beam captions over ``samples``, with the
    document frequencies of their references."""
    candidates, references = [], []
    for s in samples:
        beam = caption_image(params, config, s.features.grid, beam_size)
        candidates.append(detokenize_ids(beam[0].ids, vocab))
        references.append(s.references)
    return metrics.cider_d(candidates, references, df)


def open_log(path, step: int):
    """Open the log for appending, first cutting it at its first record
    past ``step``: a run resumed from an older checkpoint logs those steps
    again, and a torn last line from a crash is dropped the same way.  A
    whole line that is no record with an integer step is a ValueError."""
    if not path:
        return None
    with open(path, "ab+") as fh:
        fh.seek(0)
        kept = 0
        for line_no, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                fh.truncate(kept)
                break
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # also too deep, or an integer too long
                record = None
            if not isinstance(record, dict) or not json_is(record.get("step"), int):
                raise ValueError(f"{path} line {line_no}: not a log record with an integer step")
            if record["step"] > step:
                fh.truncate(kept)
                break
            kept += len(line)
    return open(path, "a", encoding="utf-8")


def _append_log(fh, record: dict) -> None:
    if fh is not None:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()


# the counters and best score TrainState and Checkpoint both hold, under the
# same names; config, the other shared field, converts between ModelConfig and dict
_SHARED = [f.name for f in fields(TrainState)
           if f.name != "config" and f.name in {c.name for c in fields(Checkpoint)}]


def state_to_checkpoint(state: TrainState, vocab: Vocabulary, stage: str) -> Checkpoint:
    return Checkpoint(
        config=asdict(state.config),
        vocab={"tokens": list(vocab.tokens), "merges": [list(m) for m in vocab.merges]},
        stage=stage,
        groups={
            "online": {n: p.data for n, p in state.online.items()},
            "target": {n: p.data for n, p in state.target.items()},
            "adam_m": dict(state.m),
            "adam_v": dict(state.v),
        },
        **{name: getattr(state, name) for name in _SHARED},
    )


def state_from_checkpoint(ckpt: Checkpoint):
    """Rebuild (state, vocab) from a loaded checkpoint, adopting its arrays
    (no update writes one in place); one whose config, parameters, vocabulary,
    stage or best score do not fit together is a ValueError."""
    try:
        config = ModelConfig(**ckpt.config)
    except TypeError as exc:  # a key missing, unknown or of the wrong type
        raise ValueError(f"checkpoint config: {exc}") from None
    tokens, merges = ckpt.vocab.get("tokens"), ckpt.vocab.get("merges")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
            and isinstance(merges, list)
            and all(isinstance(m, list) and len(m) == 2 and all(isinstance(p, str) for p in m)
                    for m in merges)):
        raise ValueError("checkpoint vocab needs tokens as a list of strings and merges as string pairs")
    vocab = Vocabulary(list(tokens), [tuple(m) for m in merges])
    counters = (ckpt.step, ckpt.adam_t, ckpt.seed)
    if not all(json_is(n, int) for n in counters) or not 0 <= ckpt.adam_t <= ckpt.step:
        raise ValueError(f"checkpoint step, adam_t and seed must be integers with "
                         f"0 <= adam_t <= step, got {counters}")
    if ckpt.stage not in ("xe", "scst"):
        raise ValueError(f"unknown checkpoint stage {ckpt.stage!r}")
    cider = ckpt.best.get("cider_target") if isinstance(ckpt.best, dict) else None
    if ckpt.best is not None and not (json_is(cider, float) and math.isfinite(cider)):
        raise ValueError(f"checkpoint best needs a finite cider_target, got {ckpt.best!r}")
    if len(vocab.tokens) != config.vocab_size:
        raise ValueError(f"{len(vocab.tokens)} vocabulary tokens for vocab_size {config.vocab_size}")
    shapes = dict(param_shapes(config))
    for group in ("online", "target", "adam_m", "adam_v"):
        if {n: a.shape for n, a in ckpt.groups.get(group, {}).items()} != shapes:
            raise ValueError(f"checkpoint group {group} does not hold its config's parameters")
    state = TrainState(
        config=config,
        online={n: T.parameter(a) for n, a in ckpt.groups["online"].items()},
        target={n: T.parameter(a) for n, a in ckpt.groups["target"].items()},
        m=dict(ckpt.groups["adam_m"]),  # Adam rebinds its moments in these dicts, not the checkpoint's
        v=dict(ckpt.groups["adam_v"]),
        **{name: getattr(ckpt, name) for name in _SHARED},
    )
    return state, vocab


def prepare_for_scst(state: TrainState, scst: ScstConfig) -> None:
    """Stage transition: fresh optimizer moments for the new objective, and
    no best score, since XE-stage validation scores are not comparable.

    Only this resets ``adam_t`` and only ``_update`` advances it, together
    with ``step``, so an SCST stage began at ``step - adam_t``.  The stage's
    ``scst.lambda_kd`` is recorded by ``train_scst``, which trains with it.
    """
    state.adam_t = 0
    state.best = None
    state.m = {n: np.zeros_like(a) for n, a in state.m.items()}
    state.v = {n: np.zeros_like(a) for n, a in state.v.items()}


def _run_stage(state: TrainState, stage: str, step, val_samples, vocab: Vocabulary,
               loop: LoopConfig) -> dict:
    """The loop both stages share, from state.step + 1 up to loop.steps.

    ``step(number)`` makes one optimizer step and returns its log record
    without "step".  Every ``loop.val_every`` steps both models are scored
    on held-out data, and each new best target score becomes ``state.best``
    and is saved as ``best.ckpt``; ``last.ckpt`` is saved once the loop is
    done.  A run ending off that schedule is scored for ``final_val`` alone,
    so a stop there and a resume write what an uninterrupted run does.
    """
    def save(name):
        if loop.ckpt_dir is None:
            return None
        path = f"{loop.ckpt_dir}/{name}"
        save_checkpoint(path, state_to_checkpoint(state, vocab, stage))
        return path

    def validate():
        return {name: validate_cider(params, state.config, val_samples, vocab, loop.val_beam, val_df)
                for name, params in (("online", state.online), ("target", state.target))}

    validating = bool(val_samples and loop.val_every)
    val_df = metrics.DocumentFrequency([s.references for s in val_samples]) if validating else None
    log_fh = open_log(loop.log_path, state.step)
    first, scores = state.step, None
    try:
        while state.step < loop.steps:
            record = step(state.step + 1)
            _append_log(log_fh, {"step": state.step, **record})
            if validating and state.step % loop.val_every == 0:
                scores = validate()
                _append_log(log_fh, {"event": "val", "step": state.step,
                                     "val_cider_online": scores["online"],
                                     "val_cider_target": scores["target"]})
                if state.best is None or scores["target"] > state.best["cider_target"]:
                    state.best = {"step": state.step, "cider_target": scores["target"],
                                  "cider_online": scores["online"]}
                    save("best.ckpt")
        if validating and state.step > first and state.step % loop.val_every:
            scores = validate()
        last_path = save("last.ckpt")
    finally:
        if log_fh is not None:
            log_fh.close()
    return {"last_path": last_path, "final_val": scores}


def train_xe(state: TrainState, train_samples, val_samples, vocab: Vocabulary,
             loop: LoopConfig) -> dict:
    """XE + distillation stage, from state.step + 1 up to loop.steps."""
    if not train_samples:
        raise ValueError("no training samples")
    rng_online = KeyedRng(state.seed, ROLE_ONLINE)
    rng_target = KeyedRng(state.seed, ROLE_TARGET)

    def step(number):
        picks = _select_batch(train_samples, loop.batch_size, state.seed, number)
        batch = [(s.features.grid, sequence_ids(ref, vocab, state.config.max_length))
                 for s, ref in picks]
        rng_online.begin_step(number)
        rng_target.begin_step(number)
        lr = noam_lr(state.adam_t + 1, state.config.model_dim, loop.warmup)
        report = xe_step(state, batch, lr, rng_online, rng_target)
        return {"lr": lr, "reward_mean": None, "baseline": None, **report}

    return _run_stage(state, "xe", step, val_samples, vocab, loop)


def train_scst(state: TrainState, train_samples, val_samples, vocab: Vocabulary,
               scst: ScstConfig, loop: LoopConfig) -> dict:
    """Self-critical stage; rewards use document frequencies of the
    training references, validation uses the held-out ones."""
    if not train_samples:
        raise ValueError("no training samples")
    state.lambda_kd = scst.lambda_kd  # so the stage's checkpoints name the weight it used
    df = metrics.DocumentFrequency([s.references for s in train_samples])
    embedder = BagEmbedder.from_corpus(
        [tokenize(r, vocab).ids for s in train_samples for r in s.references],
        len(vocab.tokens))

    def step(number):
        batch = [(s.features.grid, s.references)
                 for s in _select_images(train_samples, loop.batch_size, state.seed, number)]
        report = scst_step(state, batch, scst, df, vocab, embedder)
        return {"lr": scst.learning_rate, "xe_loss": None, **report}

    return _run_stage(state, "scst", step, val_samples, vocab, loop)
