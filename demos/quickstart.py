"""Train a twin captioner on a synthetic desk and read back what it learned.

This is the whole library story in one sitting: build a dataset of colored
objects on a grid, fit the online/target pair with cross-entropy plus
distillation for a few hundred steps, then caption held-out images with both
models and score the captions.  Takes well under a minute on one core.

Run from the repository root:

    python3 demos/quickstart.py
"""

import numpy as np

import meancap.metrics as metrics
import meancap.model as mdl
import meancap.training as tr
from meancap.data import caption_corpus, generate_synthetic_dataset, split_dataset
from meancap.decoding import caption_image
from meancap.tokenizer import build_vocab, detokenize_ids

# --- a desk-sized dataset --------------------------------------------------

samples = generate_synthetic_dataset(seed=4, num_images=60, refs_per_image=4)
train, val, _ = split_dataset(samples, seed=4, val_fraction=0.2)
print(f"dataset: {len(train)} training images, {len(val)} validation images")
print(f"  a reference caption: {train[0].references[0]!r}")

# the vocabulary comes from the closed caption grammar, so it covers every
# word the synthetic references can produce
vocab = build_vocab(caption_corpus())
print(f"  vocabulary: {len(vocab.tokens)} subword tokens")

# --- the twin models -------------------------------------------------------

config = mdl.ModelConfig(vocab_size=len(vocab.tokens), model_dim=32,
                         feedforward_dim=128, num_heads=4,
                         num_encoder_layers=1, num_decoder_layers=1,
                         num_memory_slots=4, dropout_rate=0.1)
state = tr.TrainState.create(config, seed=4, momentum=0.99, lambda_kd=0.1)
print(f"\nmodel: {sum(p.data.size for p in state.online.values()):,} parameters, "
      f"twice (online + averaged target)")

# --- cross-entropy stage ---------------------------------------------------

loop = tr.LoopConfig(steps=800, batch_size=8, warmup=150, val_every=400, val_beam=3)
out = tr.train_xe(state, train, val, vocab, loop)
print(f"after {state.step} XE steps: validation CIDEr-D "
      f"online={out['final_val']['online']:.3f} "
      f"target={out['final_val']['target']:.3f}")

# --- caption the validation set with both models ---------------------------

print("\nsample captions (target model, beam 5):")
for s in val[:4]:
    best = caption_image(state.target, config, s.features.grid, k=5)[0]
    print(f"  image {s.features.image_id:3d}: {detokenize_ids(best.ids, vocab)!r}")
    print(f"             one reference: {s.references[0]!r}")

for name, params in (("online", state.online), ("target", state.target)):
    captions = [detokenize_ids(caption_image(params, config, s.features.grid, 5)[0].ids,
                               vocab)
                for s in val]
    scores = metrics.evaluate_all(captions, [s.references for s in val])
    line = "  ".join(f"{k}={v:.3f}" for k, v in scores.items())
    print(f"\n{name} model on validation: {line}")

print("\nnext: demos/pairing_strategies.py fine-tunes a state like this one "
      "directly on CIDEr-D reward")
