"""Compare the beam-pairing strategies during reward fine-tuning.

After the cross-entropy stage both models decode beams for the same image,
and the distillation term needs to decide which target hypothesis teaches
which online hypothesis.  The library ships four answers:

    best            top target hypothesis -> top online hypothesis
    all             rank i -> rank i, averaged over the beam
    hungarian_best  cheapest bipartite match, then only the pair that
                    contains the top target hypothesis: it and its
                    matched online partner
    hungarian_all   every pair of the cheapest bipartite match

This demo warms one XE state, clones it once per strategy, runs a short
self-critical stretch on each clone, and prints the reward trajectory so
the strategies can be eyeballed side by side.  About a minute on one core.

    python3 demos/pairing_strategies.py
"""

import json
import os
import tempfile

import meancap.model as mdl
import meancap.training as tr
from meancap.data import caption_corpus, generate_synthetic_dataset, split_dataset
from meancap.tokenizer import build_vocab

SCST_STEPS = 25
BATCH = 4

samples = generate_synthetic_dataset(seed=11, num_images=40, refs_per_image=4, max_objects=3)
train, val, _ = split_dataset(samples, seed=11, val_fraction=0.2)
vocab = build_vocab(caption_corpus())
config = mdl.ModelConfig(vocab_size=len(vocab.tokens), model_dim=32,
                         feedforward_dim=64, num_heads=2,
                         num_encoder_layers=1, num_decoder_layers=1,
                         num_memory_slots=2, dropout_rate=0.1)

print(f"warming up: 300 XE steps on {len(train)} images ...")
warm = tr.TrainState.create(config, seed=11, momentum=0.99)
tr.train_xe(warm, train, val, vocab,
            tr.LoopConfig(steps=300, batch_size=8, warmup=100))


def clone(state):
    # round-trip through the checkpoint container to get independent arrays
    fresh, _ = tr.state_from_checkpoint(tr.state_to_checkpoint(state, vocab, "xe"))
    return fresh


print(f"\n{SCST_STEPS} self-critical steps per strategy:")
print(f"{'strategy':>15}  {'reward first->last':>20}  {'baseline last':>14}  "
      f"{'kd mean':>8}")
for strategy in tr.PAIRING_STRATEGIES:
    state = clone(warm)
    scst = tr.ScstConfig(strategy=strategy, beam_size=3,
                         learning_rate=5e-5, lambda_kd=0.1)
    tr.prepare_for_scst(state, scst)
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "log.jsonl")
        tr.train_scst(state, train, val, vocab, scst,
                      tr.LoopConfig(steps=state.step + SCST_STEPS,
                                    batch_size=BATCH, log_path=log))
        with open(log) as fh:
            history = [json.loads(line) for line in fh]
    first, last = history[0], history[-1]
    kd_mean = sum(h["kd_loss"] for h in history) / len(history)
    print(f"{strategy:>15}  "
          f"{first['reward_mean']:8.3f} -> {last['reward_mean']:8.3f}  "
          f"{last['baseline']:14.3f}  {kd_mean:8.3f}")

print("\nreward_mean is the average top-of-beam CIDEr-D; baseline is the "
      "average over whole\nbeams; kd is the masked squared logit gap of the "
      "paired hypotheses.  On a desk\nthis small the reward column converges "
      "the same way for every strategy -- the\npairing choice shows up in the "
      "distillation channel, where averaging over the\nbeam ('all', "
      "'hungarian_all') keeps a larger teaching signal than the single\n"
      "best pair.")
