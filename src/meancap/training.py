"""Twin-model training: XE with logit distillation and EMA, then SCST.

The online model learns by gradient; the target model only ever moves as
an exponential moving average of online states and is never part of any
gradient graph.  Both stages share the optimizer, the keyed random
streams, and the checkpoint format, so a resumed run replays the exact
remaining trajectory of an uninterrupted one.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from . import tensor as T
from .assignment import BagEmbedder, hungarian, pairing_cost
from .checkpoint import Checkpoint, save_checkpoint
from .decoding import beam_search, caption_image
from .fastdecode import FastDecoder
from .model import ModelConfig, copy_params, decode_logits, encode, init_params
from .rng import KeyedRng, ROLE_BATCH, ROLE_ONLINE, ROLE_TARGET, generator
from .tokenizer import EOS_ID, Vocabulary, detokenize_ids, tokenize

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
    use_ema: bool = True

    def __post_init__(self):
        if set(self.online) != set(self.target):
            raise ValueError("online and target parameter name sets differ")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")

    @classmethod
    def create(cls, config: ModelConfig, seed: int, momentum: float = 0.999,
               lambda_kd: float = 0.1, dtype=np.float32, use_ema: bool = True) -> "TrainState":
        online = init_params(config, seed, dtype)
        return cls(
            config=config,
            online=online,
            target=copy_params(online),  # the target starts as an exact copy
            m={n: np.zeros_like(p.data) for n, p in online.items()},
            v={n: np.zeros_like(p.data) for n, p in online.items()},
            momentum=momentum,
            lambda_kd=lambda_kd,
            seed=seed,
            use_ema=use_ema,
        )

    def zero_grads(self) -> None:
        for p in self.online.values():
            p.zero_grad()


def sequence_ids(text: str, vocab: Vocabulary, max_length: int) -> list:
    """Caption ids for teacher forcing, truncated to fit the decoder window."""
    ids = tokenize(text, vocab).ids
    if len(ids) > max_length:
        ids = ids[:max_length - 1] + [EOS_ID]
    return ids


# ---------------------------------------------------------------------------
# XE stage
# ---------------------------------------------------------------------------


def xe_step(state: TrainState, batch, lr: float, rng_online: KeyedRng,
            rng_target: KeyedRng) -> dict:
    """One optimizer step of cross-entropy plus logit distillation.

    ``batch`` is a list of (grid, ids).  The distillation term compares
    teacher-forced logits of the two models on the same reference; the
    target pass never joins the gradient graph.
    """
    cfg = state.config
    losses, ce_values, kd_values = [], [], []
    for grid, ids in batch:
        enc_o = encode(grid, state.online, cfg, training=True, rng=rng_online)
        logits_o = decode_logits(ids[:-1], enc_o, state.online, cfg,
                                 training=True, rng=rng_online)
        targets = ids[1:]
        valid = np.ones(len(targets))
        ce = T.cross_entropy(logits_o, targets, valid)
        ce_values.append(float(ce.data))
        if state.lambda_kd > 0.0:
            with T.no_grad():
                enc_t = encode(grid, state.target, cfg, training=True, rng=rng_target)
                logits_t = decode_logits(ids[:-1], enc_t, state.target, cfg,
                                         training=True, rng=rng_target)
            kd = T.masked_mse(T.Tensor(logits_t.data), logits_o, valid)
            kd_values.append(float(kd.data))
            losses.append(T.add(ce, T.scale(kd, state.lambda_kd)))
        else:
            losses.append(ce)
    total = T.scale(T.add_n(losses), 1.0 / len(losses))
    if not np.isfinite(total.data):
        raise TrainingDiverged(state.step + 1, {"xe_loss": float(total.data), "lr": lr})
    state.zero_grads()
    T.backward(total)
    state.adam_t += 1
    adam_update(state.online, state.m, state.v, state.adam_t, lr)
    if state.use_ema:
        ema_update(state.target, state.online, state.momentum)
    state.step += 1
    return {
        "xe_loss": sum(ce_values) / len(ce_values),
        "kd_loss": sum(kd_values) / len(kd_values) if kd_values else None,
    }


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


def advantage(rewards) -> list:
    """Reward minus the beam-mean baseline; exactly zero when all tie."""
    rewards = list(rewards)
    if max(rewards) == min(rewards):
        return [0.0] * len(rewards)
    b = sum(rewards) / len(rewards)
    return [r - b for r in rewards]


def distill_pair_logits(hyp_t, hyp_o, online_logits: T.Tensor = None):
    """Masked MSE between two hypotheses' per-step logits.

    Rows align timestep-wise; whichever sequence is longer has its extra
    rows masked out entirely.  Pass ``online_logits`` (a graph tensor of
    the online hypothesis' teacher-forced logits) to make the loss
    differentiable; otherwise both sides are constants.
    """
    t_rows = np.stack(hyp_t.logits)
    o_rows = online_logits if online_logits is not None else T.Tensor(np.stack(hyp_o.logits))
    length = min(t_rows.shape[0], o_rows.shape[0])
    t_slice = T.Tensor(np.ascontiguousarray(t_rows[:length], dtype=o_rows.dtype))
    o_slice = T.slice_rows(o_rows, 0, length)
    return T.masked_mse(t_slice, o_slice, np.ones(length))


def _beam_for(params, cfg, enc_layers, k):
    fast = FastDecoder(params, cfg, enc_layers)
    return beam_search(fast.expand, k, cfg.max_length)


def scst_step(state: TrainState, batch, scst: ScstConfig, df: metrics.DocumentFrequency,
              vocab: Vocabulary, embedder: BagEmbedder) -> dict:
    """One self-critical step: beam rewards, mean baseline, paired distillation.

    ``batch`` is a list of (grid, reference texts).  The chosen online
    hypotheses are re-scored teacher-forced inside the gradient graph (the
    beam itself is decoded gradient-free).
    """
    cfg = state.config
    k = scst.beam_size
    image_losses = []
    top_rewards, baselines, kd_values = [], [], []
    any_text = False
    for grid, refs in batch:
        enc_o = encode(grid, state.online, cfg)
        online_beam = _beam_for(state.online, cfg, enc_o, k)
        captions = [detokenize_ids(h.ids, vocab) for h in online_beam]
        any_text = any_text or any(captions)
        rewards = [metrics.reward(c, refs, df) for c in captions]
        if not all(math.isfinite(r) for r in rewards):
            raise TrainingDiverged(state.step + 1, {"rewards": rewards})
        top_rewards.append(rewards[0])
        baselines.append(sum(rewards) / k)
        adv = advantage(rewards)

        logits_cache = {}

        def online_logits(i):
            if i not in logits_cache:
                h = online_beam[i]
                logits_cache[i] = decode_logits(h.ids[:-1], enc_o, state.online, cfg)
            return logits_cache[i]

        terms = []
        for i, a in enumerate(adv):
            if a != 0.0:
                h = online_beam[i]
                lp = T.sequence_log_prob(online_logits(i), h.ids[1:], np.ones(len(h.ids) - 1))
                terms.append(T.scale(lp, -a / k))

        if scst.lambda_kd > 0.0:
            with T.no_grad():
                enc_t = encode(grid, state.target, cfg)
            target_beam = _beam_for(state.target, cfg, enc_t, k)
            kd = _kd_term(scst, online_beam, target_beam, online_logits, embedder)
            kd_values.append(float(kd.data))
            terms.append(T.scale(kd, scst.lambda_kd))
        if terms:
            image_losses.append(T.add_n(terms) if len(terms) > 1 else terms[0])
    if not any_text:
        raise TrainingDiverged(state.step + 1, {"reason": "all hypotheses empty"})

    state.zero_grads()
    if image_losses:
        # images whose every term vanished contribute exactly zero, so
        # summing the survivors and dividing by the full batch is the mean
        total = T.scale(T.add_n(image_losses), 1.0 / len(batch))
        if not np.isfinite(total.data):
            raise TrainingDiverged(state.step + 1, {"scst_loss": float(total.data)})
        T.backward(total)
    state.adam_t += 1
    adam_update(state.online, state.m, state.v, state.adam_t, scst.learning_rate)
    if state.use_ema:
        ema_update(state.target, state.online, state.momentum)
    state.step += 1
    return {
        "reward_mean": sum(top_rewards) / len(top_rewards),
        "baseline": sum(baselines) / len(baselines),
        "kd_loss": sum(kd_values) / len(kd_values) if kd_values else None,
    }


def _kd_term(scst: ScstConfig, online_beam, target_beam, online_logits, embedder):
    if scst.strategy == "best":
        return distill_pair_logits(target_beam[0], online_beam[0], online_logits(0))
    if scst.strategy == "all":
        k = len(target_beam)
        parts = [distill_pair_logits(target_beam[i], online_beam[i], online_logits(i))
                 for i in range(k)]
        summed = parts[0]
        for p in parts[1:]:
            summed = T.add(summed, p)
        return T.scale(summed, 1.0 / k)
    if scst.strategy in ("hungarian_best", "hungarian_all"):
        cost = pairing_cost([h.ids for h in target_beam], [h.ids for h in online_beam], embedder)
        perm = hungarian(cost)
        if scst.strategy == "hungarian_best":
            j = int(perm[0])
            return distill_pair_logits(target_beam[0], online_beam[j], online_logits(j))
        k = len(target_beam)
        parts = [distill_pair_logits(target_beam[i], online_beam[int(perm[i])],
                                     online_logits(int(perm[i])))
                 for i in range(k)]
        summed = parts[0]
        for p in parts[1:]:
            summed = T.add(summed, p)
        return T.scale(summed, 1.0 / k)
    raise ValueError(f"unknown pairing strategy {scst.strategy!r}")


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
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if self.val_beam < 1:
            raise ValueError(f"val_beam must be >= 1, got {self.val_beam}")


def _select_images(samples, batch_size: int, seed: int, step: int) -> list:
    idx = generator(seed, ROLE_BATCH, step, 0).permutation(len(samples))[:batch_size]
    return [samples[int(i)] for i in idx]


def _select_batch(samples, batch_size: int, seed: int, step: int) -> list:
    """Deterministic (sample, reference) picks for one XE step."""
    picked = _select_images(samples, batch_size, seed, step)
    u = generator(seed, ROLE_BATCH, step, 1).random(len(picked))
    return [(s, s.references[int(u_i * len(s.references))]) for s, u_i in zip(picked, u)]


def validate_cider(params, config: ModelConfig, samples, vocab: Vocabulary,
                   beam_size: int, df: metrics.DocumentFrequency = None) -> float:
    """Corpus CIDEr-D of top-of-beam captions over ``samples``."""
    if df is None:
        df = metrics.DocumentFrequency([s.references for s in samples])
    candidates, references = [], []
    for s in samples:
        beam = caption_image(params, config, s.features.grid, beam_size)
        candidates.append(detokenize_ids(beam[0].ids, vocab))
        references.append(s.references)
    return metrics.cider_d(candidates, references, df).value


def _append_log(fh, record: dict) -> None:
    if fh is not None:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()


def state_to_checkpoint(state: TrainState, vocab: Vocabulary, stage: str,
                        best: dict = None, extra: dict = None) -> Checkpoint:
    return Checkpoint(
        config=state.config.to_dict(),
        vocab_tokens=list(vocab.tokens),
        vocab_merges=list(vocab.merges),
        step=state.step,
        adam_t=state.adam_t,
        seed=state.seed,
        stage=stage,
        momentum=state.momentum,
        lambda_kd=state.lambda_kd,
        use_ema=state.use_ema,
        groups={
            "online": {n: p.data for n, p in state.online.items()},
            "target": {n: p.data for n, p in state.target.items()},
            "adam_m": dict(state.m),
            "adam_v": dict(state.v),
        },
        best=best,
        extra=extra or {},
    )


def state_from_checkpoint(ckpt: Checkpoint):
    """Rebuild (state, vocab) from a loaded checkpoint."""
    config = ModelConfig.from_dict(ckpt.config)
    vocab = Vocabulary(list(ckpt.vocab_tokens), [tuple(m) for m in ckpt.vocab_merges])
    state = TrainState(
        config=config,
        online={n: T.parameter(a.copy()) for n, a in ckpt.groups["online"].items()},
        target={n: T.parameter(a.copy()) for n, a in ckpt.groups["target"].items()},
        m={n: a.copy() for n, a in ckpt.groups["adam_m"].items()},
        v={n: a.copy() for n, a in ckpt.groups["adam_v"].items()},
        step=ckpt.step,
        adam_t=ckpt.adam_t,
        momentum=ckpt.momentum,
        lambda_kd=ckpt.lambda_kd,
        seed=ckpt.seed,
        use_ema=ckpt.use_ema,
    )
    return state, vocab


def prepare_for_scst(state: TrainState, scst: ScstConfig) -> None:
    """Stage transition: fresh optimizer moments for the new objective."""
    state.adam_t = 0
    state.m = {n: np.zeros_like(a) for n, a in state.m.items()}
    state.v = {n: np.zeros_like(a) for n, a in state.v.items()}
    state.lambda_kd = scst.lambda_kd


def _save_stage(state, vocab, stage, best, loop: LoopConfig, extra=None):
    if loop.ckpt_dir is None:
        return None
    path = f"{loop.ckpt_dir}/last.ckpt"
    save_checkpoint(path, state_to_checkpoint(state, vocab, stage, best, extra))
    return path


def _maybe_validate(state, vocab, val_samples, loop: LoopConfig, stage, best,
                    log_fh, val_df, extra=None):
    """Score both models on held-out data; keep the best target checkpoint."""
    online = validate_cider(state.online, state.config, val_samples, vocab,
                            loop.val_beam, val_df)
    target = validate_cider(state.target, state.config, val_samples, vocab,
                            loop.val_beam, val_df)
    _append_log(log_fh, {"event": "val", "step": state.step,
                         "val_cider_online": online, "val_cider_target": target})
    if best is None or target > best["cider_target"]:
        best = {"step": state.step, "cider_target": target, "cider_online": online}
        if loop.ckpt_dir is not None:
            save_checkpoint(f"{loop.ckpt_dir}/best.ckpt",
                            state_to_checkpoint(state, vocab, stage, best, extra))
    return best, {"online": online, "target": target}


def train_xe(state: TrainState, train_samples, val_samples, vocab: Vocabulary,
             loop: LoopConfig, best: dict = None) -> dict:
    """XE + distillation stage, from state.step + 1 up to loop.steps."""
    if not train_samples:
        raise ValueError("no training samples")
    rng_online = KeyedRng(state.seed, ROLE_ONLINE)
    rng_target = KeyedRng(state.seed, ROLE_TARGET)
    val_df = (metrics.DocumentFrequency([s.references for s in val_samples])
              if val_samples else None)
    log_fh = open(loop.log_path, "a") if loop.log_path else None
    scores = None
    try:
        while state.step < loop.steps:
            step = state.step + 1
            picks = _select_batch(train_samples, loop.batch_size, state.seed, step)
            batch = [(s.features.grid, sequence_ids(ref, vocab, state.config.max_length))
                     for s, ref in picks]
            rng_online.begin_step(step)
            rng_target.begin_step(step)
            lr = noam_lr(state.adam_t + 1, state.config.model_dim, loop.warmup)
            report = xe_step(state, batch, lr, rng_online, rng_target)
            _append_log(log_fh, {"step": state.step, "lr": lr,
                                 "xe_loss": report["xe_loss"],
                                 "kd_loss": report["kd_loss"],
                                 "reward_mean": None, "baseline": None})
            at_end = state.step == loop.steps
            if val_samples and loop.val_every and (state.step % loop.val_every == 0 or at_end):
                best, scores = _maybe_validate(state, vocab, val_samples, loop,
                                               "xe", best, log_fh, val_df)
        last_path = _save_stage(state, vocab, "xe", best, loop)
    finally:
        if log_fh is not None:
            log_fh.close()
    return {"state": state, "best": best, "last_path": last_path,
            "final_val": scores}


def train_scst(state: TrainState, train_samples, val_samples, vocab: Vocabulary,
               scst: ScstConfig, loop: LoopConfig, best: dict = None,
               extra: dict = None) -> dict:
    """Self-critical stage; rewards use document frequencies of the
    training references, validation uses the held-out ones."""
    if not train_samples:
        raise ValueError("no training samples")
    df = metrics.DocumentFrequency([s.references for s in train_samples])
    embedder = BagEmbedder.from_corpus(
        [tokenize(r, vocab).ids for s in train_samples for r in s.references],
        len(vocab.tokens))
    val_df = (metrics.DocumentFrequency([s.references for s in val_samples])
              if val_samples else None)
    log_fh = open(loop.log_path, "a") if loop.log_path else None
    scores = None
    try:
        while state.step < loop.steps:
            step = state.step + 1
            batch = [(s.features.grid, s.references)
                     for s in _select_images(train_samples, loop.batch_size,
                                             state.seed, step)]
            report = scst_step(state, batch, scst, df, vocab, embedder)
            _append_log(log_fh, {"step": state.step, "lr": scst.learning_rate,
                                 "xe_loss": None, "kd_loss": report["kd_loss"],
                                 "reward_mean": report["reward_mean"],
                                 "baseline": report["baseline"]})
            at_end = state.step == loop.steps
            if val_samples and loop.val_every and (state.step % loop.val_every == 0 or at_end):
                best, scores = _maybe_validate(state, vocab, val_samples, loop,
                                               "scst", best, log_fh, val_df, extra)
        last_path = _save_stage(state, vocab, "scst", best, loop, extra)
    finally:
        if log_fh is not None:
            log_fh.close()
    return {"state": state, "best": best, "last_path": last_path,
            "final_val": scores}
