"""Encoder-decoder captioner: memory-augmented encoder, causal decoder.

The same architecture is instantiated twice during training (online and
target), so everything here is functional: parameters travel as a named
dict of Tensors whose name set is a pure function of the config.  Every
forward pass takes one image or a batch through the shape of its inputs:
leading axes ride along through each op, and a batch's row i equals the
result for its i-th image or sequence alone, up to float rounding.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
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
        if self.model_dim % self.num_heads != 0:
            raise ValueError(f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}")
        if self.num_memory_slots < 0:
            raise ValueError(f"num_memory_slots must be >= 0, got {self.num_memory_slots}")
        if self.vocab_size < 4:
            raise ValueError(f"vocab_size must cover the reserved tokens, got {self.vocab_size}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
    return T.add(T.matmul(x, params[f"{prefix}.weight"]), params[f"{prefix}.bias"])


def _heads_split(x, num_heads):
    """(..., t, d) -> (..., heads, t, d / heads)."""
    *lead, t, d = x.shape
    n = len(lead)
    x = T.reshape(x, (*lead, t, num_heads, d // num_heads))
    return T.transpose(x, (*range(n), n + 1, n, n + 2))


def _heads_join(x):
    """(..., heads, t, head_dim) -> (..., t, d)."""
    *lead, h, t, hd = x.shape
    n = len(lead)
    return T.reshape(T.transpose(x, (*range(n), n + 1, n, n + 2)), (*lead, t, h * hd))


def _attention(query_in, kv_in, params, prefix, config, mask=None, slots=None):
    q = _heads_split(_linear(query_in, params, f"{prefix}.wq"), config.num_heads)
    k = _linear(kv_in, params, f"{prefix}.wk")
    v = _linear(kv_in, params, f"{prefix}.wv")
    if slots is not None:
        # every image attends to the same slots: look them up once per image
        n = config.num_memory_slots
        rows = np.broadcast_to(np.arange(n), (*kv_in.shape[:-2], n))
        k = T.concat([k, T.embedding(params[f"{slots}.key"], rows)], axis=-2)
        v = T.concat([v, T.embedding(params[f"{slots}.value"], rows)], axis=-2)
    k = _heads_split(k, config.num_heads)
    v = _heads_split(v, config.num_heads)
    n = k.data.ndim - 2
    head_dim = config.model_dim // config.num_heads
    scores = T.scale(T.matmul(q, T.transpose(k, (*range(n), n + 1, n))), 1.0 / math.sqrt(head_dim))
    if mask is not None:
        scores = T.add(scores, mask)
    return _linear(_heads_join(T.matmul(T.softmax(scores), v)), params, f"{prefix}.wo")


def _sublayer(x, out, params, norm_prefix, config, training, rng):
    out = T.dropout(out, config.dropout_rate, rng, training)
    return T.layer_norm(T.add(x, out), params[f"{norm_prefix}.gain"], params[f"{norm_prefix}.bias"])


def _feedforward(x, params, prefix):
    return _linear(T.relu(_linear(x, params, f"{prefix}.w1")), params, f"{prefix}.w2")


def causal_mask(t: int, dtype=np.float64) -> T.Tensor:
    m = np.triu(np.full((t, t), NEG_INF, dtype=dtype), k=1)
    return T.tensor(m, dtype=dtype)


def sinusoidal_encoding(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    dim = np.arange(0, d, 2).astype(np.float64)
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


# ---------------------------------------------------------------------------
# encoder and decoder
# ---------------------------------------------------------------------------


def encode(grid, params, config: ModelConfig, training=False, rng=None) -> list:
    """All encoder layer outputs, each (G, model_dim), for a (G, F) grid;
    a (B, G, F) batch of grids gives (B, G, model_dim) outputs.

    Grid cells carry no positional encoding: the encoder treats them as a
    set, so permuting cells permutes every layer output identically.
    """
    if isinstance(grid, T.Tensor):
        x = grid
    else:
        x = T.Tensor(np.asarray(grid, dtype=params["encoder.input.weight"].data.dtype))
    if x.shape[-1] != config.feature_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match config feature_dim {config.feature_dim}")
    x = _linear(x, params, "encoder.input")
    outputs = []
    for i in range(config.num_encoder_layers):
        slots = f"enc{i}.attn.slots" if config.num_memory_slots > 0 else None
        attn = _attention(x, x, params, f"enc{i}.attn", config, slots=slots)
        x = _sublayer(x, attn, params, f"enc{i}.norm1", config, training, rng)
        x = _sublayer(x, _feedforward(x, params, f"enc{i}.ff"), params, f"enc{i}.norm2", config, training, rng)
        outputs.append(x)
    return outputs


def _cross_attend(x, encoder_layers, params, j, config, gate_override):
    if not config.mesh_enabled:
        return _attention(x, encoder_layers[-1], params, f"dec{j}.cross", config)
    num_enc = len(encoder_layers)
    combined = None
    for l, enc_out in enumerate(encoder_layers):
        c = _attention(x, enc_out, params, f"dec{j}.cross", config)
        if gate_override is not None:
            gated = T.scale(c, float(gate_override[l]))
        else:
            gate = T.sigmoid(_linear(x, params, f"dec{j}.mesh{l}.gate"))
            gated = T.mul(gate, c)
        combined = gated if combined is None else T.add(combined, gated)
    return T.scale(combined, 1.0 / num_enc)


def decode_layers(token_ids, positions, encoder_layers, params, config: ModelConfig, mask,
                  past=None, training=False, rng=None, gate_override=None):
    """Run the decoder layers on new rows; returns (logits, per-layer rows).

    Row i embeds ``token_ids[..., i]`` at position ``positions[i]``; leading
    axes of ``token_ids`` index sequences, each with its own encoder rows.
    Decoder layer j's self-attention reads ``past[j]`` (rows from an earlier
    call, or nothing when ``past`` is None) followed by the new rows, and
    the additive ``mask`` (new rows x all rows) says which of them each new
    row may see.  The second result holds each layer's self-attention rows,
    past followed by new: what a later call passes as ``past``.
    """
    positions = np.asarray(positions)
    last = int(positions.max())
    if last >= config.max_length:
        raise ValueError(f"position {last} must stay under max_length {config.max_length}")
    d = config.model_dim
    x = T.scale(T.embedding(params["embed.tokens"], token_ids), math.sqrt(d))
    pe = sinusoidal_encoding(last + 1, d)[positions].astype(x.dtype)
    x = T.add(x, T.Tensor(pe))
    x = T.dropout(x, config.dropout_rate, rng, training)
    rows = []
    for j in range(config.num_decoder_layers):
        kv = x if past is None else T.concat([past[j], x], axis=0)
        rows.append(kv)
        attn = _attention(x, kv, params, f"dec{j}.self", config, mask=mask)
        x = _sublayer(x, attn, params, f"dec{j}.norm1", config, training, rng)
        cross = _cross_attend(x, encoder_layers, params, j, config, gate_override)
        x = _sublayer(x, cross, params, f"dec{j}.norm2", config, training, rng)
        x = _sublayer(x, _feedforward(x, params, f"dec{j}.ff"), params, f"dec{j}.norm3", config, training, rng)
    return _linear(x, params, "output"), rows


def decode_logits(token_ids, encoder_layers, params, config: ModelConfig,
                  training=False, rng=None, gate_override=None) -> T.Tensor:
    """Teacher-forced logits (T, N): row t scores the token following position t.

    ``token_ids`` is one BOS-led sequence (T,) or a batch (B, T) of them,
    right-padded with any valid id, with (B, ...) encoder layers; a batch
    gives (B, T, N) logits.  Under the causal mask no row sees a later key,
    so a sequence's rows up to its own length never see its padding.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.shape[-1:] == (0,) or np.any(token_ids[..., 0] != BOS_ID):
        raise ValueError("decoder prefix must begin with BOS")
    t = token_ids.shape[-1]
    mask = causal_mask(t, dtype=params["embed.tokens"].dtype)
    logits, _ = decode_layers(token_ids, np.arange(t), encoder_layers, params, config, mask,
                              training=training, rng=rng, gate_override=gate_override)
    return logits


def decode_step(prefix_ids, encoder_layers, params, config: ModelConfig,
                gate_override=None) -> T.Tensor:
    """Next-token logits (N,) for a BOS-led prefix; evaluation mode."""
    if len(prefix_ids) >= config.max_length:
        raise ValueError(f"prefix length {len(prefix_ids)} must stay under max_length {config.max_length}")
    logits = decode_logits(prefix_ids, encoder_layers, params, config, gate_override=gate_override)
    return T.slice_rows(logits, logits.shape[0] - 1, logits.shape[0])
