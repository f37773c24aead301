"""Encoder-decoder captioner: memory-augmented encoder, causal decoder.

The same architecture is instantiated twice during training (online and
target), so everything here is functional: parameters travel as a named
dict of Tensors whose name set is a pure function of the config.  Every
forward pass takes one image or a batch through the shape of its inputs:
leading axes ride along through each op, and a batch's row i equals the
result for its i-th image or sequence alone, up to float rounding.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .checkpoint import json_is
from .rng import ROLE_INIT, generator, name_key
from .tokenizer import BOS_ID

NEG_INF = -1e9  # additive mask value; exp underflows to exact zero


@dataclass
class ModelConfig:
    vocab_size: int
    feature_dim: int = 32
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    model_dim: int = 64
    feedforward_dim: int = 256
    num_heads: int = 4
    num_memory_slots: int = 8
    dropout_rate: float = 0.1
    max_length: int = 24
    mesh_enabled: bool = False

    def __post_init__(self):
        for f in fields(self):  # a checkpoint header is outside input
            value = getattr(self, f.name)
            if not json_is(value, f.type):
                raise TypeError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        for name in ("feature_dim", "num_encoder_layers", "num_decoder_layers", "model_dim",
                     "feedforward_dim", "num_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.max_length < 2:
            raise ValueError(f"max_length must allow BOS plus one token, got {self.max_length}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if self.num_memory_slots < 0:
            raise ValueError(f"num_memory_slots must be >= 0, got {self.num_memory_slots}")
        if self.vocab_size < 4:
            raise ValueError(f"vocab_size must cover the reserved tokens, got {self.vocab_size}")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def _linear_shapes(prefix, fan_in, fan_out):
    return [(f"{prefix}.weight", (fan_in, fan_out)), (f"{prefix}.bias", (fan_out,))]


def _attention_shapes(prefix, d):
    shapes = []
    for part in ("wq", "wk", "wv", "wo"):
        shapes += _linear_shapes(f"{prefix}.{part}", d, d)
    return shapes


def _norm_shapes(prefix, d):
    return [(f"{prefix}.gain", (d,)), (f"{prefix}.bias", (d,))]


def param_shapes(config: ModelConfig) -> list:
    """Ordered (name, shape) pairs; identical configs give identical lists."""
    d, ff = config.model_dim, config.feedforward_dim
    shapes = [("embed.tokens", (config.vocab_size, d))]
    shapes += _linear_shapes("encoder.input", config.feature_dim, d)
    for i in range(config.num_encoder_layers):
        shapes += _attention_shapes(f"enc{i}.attn", d)
        if config.num_memory_slots > 0:
            shapes.append((f"enc{i}.attn.slots.key", (config.num_memory_slots, d)))
            shapes.append((f"enc{i}.attn.slots.value", (config.num_memory_slots, d)))
        shapes += _norm_shapes(f"enc{i}.norm1", d)
        shapes += _linear_shapes(f"enc{i}.ff.w1", d, ff)
        shapes += _linear_shapes(f"enc{i}.ff.w2", ff, d)
        shapes += _norm_shapes(f"enc{i}.norm2", d)
    for j in range(config.num_decoder_layers):
        shapes += _attention_shapes(f"dec{j}.self", d)
        shapes += _norm_shapes(f"dec{j}.norm1", d)
        shapes += _attention_shapes(f"dec{j}.cross", d)
        if config.mesh_enabled:
            for l in range(config.num_encoder_layers):
                shapes += _linear_shapes(f"dec{j}.mesh{l}.gate", d, d)
        shapes += _norm_shapes(f"dec{j}.norm2", d)
        shapes += _linear_shapes(f"dec{j}.ff.w1", d, ff)
        shapes += _linear_shapes(f"dec{j}.ff.w2", ff, d)
        shapes += _norm_shapes(f"dec{j}.norm3", d)
    shapes += _linear_shapes("output", d, config.vocab_size)
    return shapes


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict:
    """Seeded init keyed by parameter name, not position.

    Keying each draw by the name means a parameter shared between two
    configs (say mesh on/off) starts from the same values under the same
    seed, regardless of what other parameters exist.
    """
    params = {}
    for name, shape in param_shapes(config):
        gen = generator(seed, ROLE_INIT, name_key(name))
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith(".bias"):
            data = np.zeros(shape)
        elif ".slots." in name:
            data = gen.standard_normal(shape) / math.sqrt(config.model_dim)
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            data = gen.uniform(-limit, limit, shape)
        params[name] = T.parameter(data.astype(dtype))
    return params


def copy_params(params: dict) -> dict:
    return {name: T.parameter(p.data.copy()) for name, p in params.items()}


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _linear(x, params, prefix):
    return T.linear(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def _attention(query_in, k, v, params, prefix, config, mask=None):
    """Attention of ``query_in`` rows over keys and values already projected."""
    q = _linear(query_in, params, f"{prefix}.wq")
    return _linear(T.attention(q, k, v, config.num_heads, mask), params, f"{prefix}.wo")


def _sublayer(x, out, params, norm_prefix, config, rng):
    out = T.dropout(out, config.dropout_rate, rng)
    return T.layer_norm(T.add(x, out), params[f"{norm_prefix}.gain"], params[f"{norm_prefix}.bias"])


def _feedforward(x, params, prefix):
    return _linear(T.relu(_linear(x, params, f"{prefix}.w1")), params, f"{prefix}.w2")


@functools.lru_cache(maxsize=128)
def sinusoidal_encoding(length: int, d: int, dtype=np.float64) -> np.ndarray:
    """The (length, d) positional table, computed in float64 and cast to
    ``dtype``, built once per shape and dtype; read-only."""
    pos = np.arange(length)[:, None].astype(np.float64)
    dim = np.arange(0, d, 2).astype(np.float64)
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe = pe.astype(dtype, copy=False)
    pe.flags.writeable = False
    return pe


# ---------------------------------------------------------------------------
# encoder and decoder
# ---------------------------------------------------------------------------


def encode(grid, params, config: ModelConfig, rng=None) -> list:
    """All encoder layer outputs, each (G, model_dim), for a (G, F) grid;
    a (B, G, F) batch of grids gives (B, G, model_dim) outputs.  Dropout
    draws from ``rng`` and runs only when one is given.

    Grid cells carry no positional encoding: the encoder treats them as a
    set, so permuting cells permutes every layer output identically.
    """
    x = T.Tensor(np.asarray(grid, dtype=params["encoder.input.weight"].data.dtype))
    if x.shape[-1] != config.feature_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match config feature_dim {config.feature_dim}")
    x = _linear(x, params, "encoder.input")
    outputs = []
    for i in range(config.num_encoder_layers):
        prefix = f"enc{i}.attn"
        k, v = _linear(x, params, f"{prefix}.wk"), _linear(x, params, f"{prefix}.wv")
        if config.num_memory_slots > 0:
            # every image attends to the same slots: look them up once per image
            n = config.num_memory_slots
            rows = np.broadcast_to(np.arange(n), (*x.shape[:-2], n))
            k = T.concat([k, T.embedding(params[f"{prefix}.slots.key"], rows)], axis=-2)
            v = T.concat([v, T.embedding(params[f"{prefix}.slots.value"], rows)], axis=-2)
        attn = _attention(x, k, v, params, prefix, config)
        x = _sublayer(x, attn, params, f"enc{i}.norm1", config, rng)
        x = _sublayer(x, _feedforward(x, params, f"enc{i}.ff"), params, f"enc{i}.norm2", config, rng)
        outputs.append(x)
    return outputs


def cross_memory(encoder_layers, params, config: ModelConfig) -> list:
    """Entry j: decoder layer j's projected cross-attention (k, v) for each
    encoder layer it attends to, all of them under the mesh, else the last."""
    attended = encoder_layers if config.mesh_enabled else encoder_layers[-1:]
    return [[(_linear(enc, params, f"dec{j}.cross.wk"), _linear(enc, params, f"dec{j}.cross.wv"))
             for enc in attended] for j in range(config.num_decoder_layers)]


def _cross_attend(x, memory, params, j, config):
    # one query projection per encoder layer: a shared one would reorder the gradient sums into x
    outs = [_attention(x, k, v, params, f"dec{j}.cross", config) for k, v in memory]
    if not config.mesh_enabled:
        return outs[0]
    gated = [T.mul(T.sigmoid(_linear(x, params, f"dec{j}.mesh{l}.gate")), c) for l, c in enumerate(outs)]
    return T.scale(functools.reduce(T.add, gated), 1.0 / len(gated))


def decode_layers(token_ids, memory, params, config: ModelConfig, past=None, rng=None):
    """Run the decoder layers on new rows; returns (logits, per-layer rows).

    ``token_ids`` (..., n) holds n new tokens per sequence, each sequence with
    its own ``memory`` rows.  Layer j's self-attention reads ``past[j]``
    (..., t, d), the rows an earlier call returned (t = 0 when ``past`` is
    None), then the new rows.  Only this function places and masks rows: new
    row i sits at position t + i and sees the past rows and new rows 0..i.
    The second result, each layer's rows past then new, is a later ``past``.
    """
    t, n = (0 if past is None else past[0].shape[-2]), np.shape(token_ids)[-1]
    if t + n > config.max_length:
        raise ValueError(f"position {t + n - 1} must stay under max_length {config.max_length}")
    d = config.model_dim
    x = T.scale(T.embedding(params["embed.tokens"], token_ids), math.sqrt(d))
    x = T.add(x, T.Tensor(sinusoidal_encoding(t + n, d, x.dtype)[t:]))
    x = T.dropout(x, config.dropout_rate, rng)
    # a lone new row sees every key: it needs no mask
    mask = np.triu(np.full((n, t + n), NEG_INF, x.dtype), k=t + 1) if n > 1 else None
    rows = []
    for j in range(config.num_decoder_layers):
        kv = x if past is None else T.concat([past[j], x], axis=-2)
        rows.append(kv)
        sa = f"dec{j}.self"
        attn = _attention(x, _linear(kv, params, f"{sa}.wk"), _linear(kv, params, f"{sa}.wv"),
                          params, sa, config, mask=mask)
        x = _sublayer(x, attn, params, f"dec{j}.norm1", config, rng)
        cross = _cross_attend(x, memory[j], params, j, config)
        x = _sublayer(x, cross, params, f"dec{j}.norm2", config, rng)
        x = _sublayer(x, _feedforward(x, params, f"dec{j}.ff"), params, f"dec{j}.norm3", config, rng)
    return _linear(x, params, "output"), rows


def decode_logits(token_ids, encoder_layers, params, config: ModelConfig, rng=None) -> T.Tensor:
    """Teacher-forced logits (T, N): row t scores the token following position t.

    ``token_ids`` is one BOS-led sequence (T,) or a batch (B, T) of them,
    right-padded with any valid id, with (B, ...) encoder layers; a batch
    gives (B, T, N) logits.  Under the causal mask no row sees a later key,
    so a sequence's rows up to its own length never see its padding.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.shape[-1:] == (0,) or np.any(token_ids[..., 0] != BOS_ID):
        raise ValueError("decoder prefix must begin with BOS")
    logits, _ = decode_layers(token_ids, cross_memory(encoder_layers, params, config), params,
                              config, rng=rng)
    return logits

