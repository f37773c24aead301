#!/usr/bin/env bash
# The full pipeline through the command line, start to finish:
#
#   gen-data -> train-xe -> train-scst -> caption -> evaluate
#
# Every run leaves a manifest.json next to its outputs, training appends one
# JSON line per step to train_log.jsonl, and the same config file given twice
# reproduces every output byte for byte.  Roughly a minute on one core.
#
#   bash demos/cli_walkthrough.sh [workdir]

set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
RUN="python3 -m meancap"
echo "working under $WORK"

# --- 1. synthesize a desk-sized dataset -------------------------------------

cat > "$WORK/data.cfg" <<EOF
# colored objects on a feature grid, with held-out splits
seed = 21
out_dir = "$WORK/data"
num_images = 60
refs_per_image = 4
train_fraction = 0.8
val_fraction = 0.2
EOF
$RUN gen-data "$WORK/data.cfg"
echo "gen-data: $(ls "$WORK/data")"

# --- 2. cross-entropy + distillation stage ----------------------------------

cat > "$WORK/xe.cfg" <<EOF
seed = 21
data_dir = "$WORK/data"
out_dir = "$WORK/xe"
steps = 400
batch_size = 8
warmup = 120
val_every = 200
model_dim = 32
feedforward_dim = 128
num_encoder_layers = 1
num_decoder_layers = 1
num_memory_slots = 4
momentum = 0.99
EOF
$RUN train-xe "$WORK/xe.cfg"
echo "train-xe: last logged step:"
tail -n 1 "$WORK/xe/train_log.jsonl"

# --- 3. self-critical stage, resuming the step counter ----------------------
# The model and its vocabulary come from the checkpoint, so this config
# holds only the stage's own keys.

cat > "$WORK/scst.cfg" <<EOF
data_dir = "$WORK/data"
out_dir = "$WORK/scst"
steps = 30
batch_size = 4
strategy = "all"
beam_size = 3
learning_rate = 5e-5
EOF
$RUN train-scst "$WORK/scst.cfg" "$WORK/xe/best.ckpt"
echo "train-scst: last logged step:"
tail -n 1 "$WORK/scst/train_log.jsonl"

# --- 4. caption the held-out images with the averaged model -----------------

$RUN caption "$WORK/scst/last.ckpt" "$WORK/data/features.bin" \
    --model target --beam 5 --out "$WORK/captions.jsonl"
echo "caption: first three hypotheses:"
head -n 3 "$WORK/captions.jsonl"

# --- 5. score the captions against the references ---------------------------

$RUN evaluate "$WORK/captions.jsonl" "$WORK/data/captions.jsonl" \
    --out "$WORK/scores.json"
echo "evaluate:"
cat "$WORK/scores.json"
echo
echo "artifacts kept under $WORK"

# --- 6. fingerprint every artifact ------------------------------------------
# Manifests and configs hold paths and timestamps, so they are left out.
# Diffing this listing between two checkouts shows whether a change kept
# every output byte for byte.

echo "sha256 of each artifact:"
(cd "$WORK" && find . -type f ! -name '*manifest.json' ! -name '*.cfg' -printf '%P\n' \
    | LC_ALL=C sort | xargs sha256sum)
