"""The benchmark's workloads, driven through meancap's public functions.

A workload builds everything it needs from its seed in ``setup``, runs one
unit of work per ``run_unit`` call (an XE step, an SCST step, or one
captioned image), and checks that unit's output in ``check``.  ``reset``
puts the state back where set-up left it, so that a traced pass replays
exactly the units of an untraced one.

The SCST and caption workloads start from a model that set-up pre-trains
from ``FIXTURE_SEED``, not from the workload seed.  A briefly trained model
is needed because an untrained one runs every hypothesis to ``max_length``
(about three times the realistic caption length); fixing its seed keeps the
caption length, and with it the cost of a beam, the same for every workload
seed, while the seed still chooses every image and reference that the
measured units see.
"""

import math
import os
from dataclasses import dataclass, field

from meancap import checkpoint, data, decoding, metrics, model, tensor, tokenizer, training
from meancap.assignment import BagEmbedder
from meancap.rng import ROLE_ONLINE, ROLE_TARGET, KeyedRng

# Bound at import, before any tracer patches the module attributes, so that
# the output checks never add spans of their own.
from meancap.tokenizer import detokenize_ids as _check_detokenize

FIXTURE_SEED = 0
VOCAB_SIZE = 200  # the desk vocabulary of acceptance gate 9
XE_WARMUP = 1000  # Noam warmup of the measured XE steps
LAMBDA_KD = 0.1  # distillation weight of the measured XE and SCST steps
SCST_STRATEGY = "hungarian_all"  # the pairing strategy that runs every SCST layer
# EMA momentum of the fixture pre-training: the target follows the online
# model within the short run, as it would after a long one
PRETRAIN_MOMENTUM = 0.9
# held-out images whose captions are checked against the reference decoder
REFERENCE_IMAGES = 10

# model settings as ModelConfig overrides; the default config is gate 9's
DESK_MODEL = {}
BENCH_MODEL = {"model_dim": 32, "feedforward_dim": 128, "num_heads": 4,
               "num_encoder_layers": 1, "num_decoder_layers": 1,
               "num_memory_slots": 4}
MESH_MODEL = {"mesh_enabled": True}


@dataclass(frozen=True)
class Pretrain:
    """A short XE run on FIXTURE_SEED data, without distillation, that
    yields a captioning model."""

    steps: int = 100
    batch_size: int = 8
    warmup: int = 40
    num_images: int = 250


@dataclass(frozen=True)
class XeSizes:
    model: dict = field(default_factory=lambda: dict(DESK_MODEL))
    num_images: int = 250
    batch_size: int = 16


@dataclass(frozen=True)
class ScstSizes:
    model: dict = field(default_factory=lambda: dict(BENCH_MODEL))
    pretrain: Pretrain = Pretrain()
    num_images: int = 250
    batch_size: int = 4
    beam_size: int = 5


@dataclass(frozen=True)
class CaptionSizes:
    model: dict = field(default_factory=lambda: dict(MESH_MODEL))
    # a default-size step costs about three bench-size ones; 60 steps already
    # bring the top caption down to its trained length
    pretrain: Pretrain = Pretrain(steps=60, warmup=30)
    held_out: int = 100
    beam_size: int = 5


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def beam_problems(beam, vocab) -> list:
    """Reasons a returned beam is wrong; empty when it passes."""
    problems = []
    top = beam[0]
    if not math.isfinite(top.logprob):
        problems.append(f"top hypothesis has non-finite logprob {top.logprob}")
    if not _check_detokenize(top.ids, vocab):
        problems.append("top hypothesis decodes to empty text")
    if any(a.logprob < b.logprob for a, b in zip(beam, beam[1:])):
        problems.append("hypotheses are not sorted by logprob")
    for h in beam:
        # both sides add the same float32 log-softmax entries, so only
        # float32 rounding of the terms may separate them
        tolerance = 1e-6 * len(h.ids) * (1.0 + abs(h.logprob))
        if not abs(h.rescored() - h.logprob) <= tolerance:
            problems.append(f"rescored {h.rescored()} disagrees with logprob {h.logprob}")
    return problems


def same_beam_problems(beam, reference) -> list:
    """Reasons ``beam`` differs from ``reference``; empty when they agree.

    Ids must match exactly.  The two decoders sum the same float32
    log-softmax entries, computed along different paths, so logprobs may
    differ by float32 rounding of the terms only.
    """
    got, want = [h.ids for h in beam], [h.ids for h in reference]
    if got != want:
        return [f"hypotheses {got} differ from the reference decoder's {want}"]
    problems = []
    for h, r in zip(beam, reference):
        tolerance = 1e-6 * len(r.ids) * (1.0 + abs(r.logprob))
        if not abs(h.logprob - r.logprob) <= tolerance:
            problems.append(f"logprob {h.logprob} of {h.ids} differs from the "
                            f"reference decoder's {r.logprob}")
    return problems


def _finite(report: dict) -> list:
    return [f"{k} is not finite: {v}" for k, v in report.items()
            if v is not None and not math.isfinite(v)]


# ---------------------------------------------------------------------------
# shared set-up pieces
# ---------------------------------------------------------------------------


def _write_and_read(samples, workdir) -> list:
    """Round-trip a dataset through the feature and caption files."""
    feats = os.path.join(workdir, "features.bin")
    caps = os.path.join(workdir, "captions.jsonl")
    data.write_features(feats, [s.features for s in samples])
    data.write_captions(caps, samples)
    refs = data.read_captions(caps)
    return [data.CaptionedSample(g, refs[g.image_id]) for g in data.read_features(feats)]


def _pretrain(overrides: dict, plan: Pretrain, workdir) -> str:
    """Train the fixture model and return the path of its checkpoint."""
    samples = data.generate_synthetic_dataset(seed=FIXTURE_SEED, num_images=plan.num_images)
    train, _, _ = data.split_dataset(samples, seed=FIXTURE_SEED)
    vocab = tokenizer.build_vocab(data.caption_corpus(), VOCAB_SIZE)
    cfg = model.ModelConfig(vocab_size=len(vocab.tokens), **overrides)
    state = training.TrainState.create(cfg, seed=FIXTURE_SEED, momentum=PRETRAIN_MOMENTUM,
                                       lambda_kd=0.0)
    loop = training.LoopConfig(steps=plan.steps, batch_size=plan.batch_size,
                               warmup=plan.warmup, ckpt_dir=str(workdir))
    return training.train_xe(state, train, None, vocab, loop)["last_path"]


class Workload:
    name = ""
    unit = ""  # what one run_unit call does, for the report
    min_units = 0  # units a measured run must complete, beyond the runner's minimum

    def __init__(self, seed: int, sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self, workdir) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the state set-up left; stateless workloads need nothing."""

    def run_unit(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list:
        raise NotImplementedError

    def verify(self) -> list:
        """Untimed checks made once after set-up, as (what, problems) pairs."""
        return []

    def fingerprint(self, out):
        """What must come out bit for bit the same when a unit is replayed."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo anything the workload installed for the run."""


# ---------------------------------------------------------------------------
# xe-desk: XE + distillation steps at the default config
# ---------------------------------------------------------------------------


class XeDesk(Workload):
    name = "xe-desk"
    unit = "XE step"

    def setup(self, workdir) -> None:
        sz = self.sizes
        generated = data.generate_synthetic_dataset(seed=self.seed, num_images=sz.num_images)
        samples = _write_and_read(generated, workdir)
        self.train, _, _ = data.split_dataset(samples, seed=self.seed)
        self.vocab = tokenizer.build_vocab(data.caption_corpus(), VOCAB_SIZE)
        cfg = model.ModelConfig(vocab_size=len(self.vocab.tokens), **sz.model)
        state = training.TrainState.create(cfg, seed=self.seed, lambda_kd=LAMBDA_KD)
        self._start = training.state_to_checkpoint(state, self.vocab, "xe")
        self.reset()

    def reset(self) -> None:
        self.state, _ = training.state_from_checkpoint(self._start)
        self.rng_online = KeyedRng(self.state.seed, ROLE_ONLINE)
        self.rng_target = KeyedRng(self.state.seed, ROLE_TARGET)

    def run_unit(self, i: int):
        # the body of training.train_xe's loop, without its log write
        state, cfg = self.state, self.state.config
        step = state.step + 1
        picks = training._select_batch(self.train, self.sizes.batch_size, state.seed, step)
        batch = [(s.features.grid, training.sequence_ids(ref, self.vocab, cfg.max_length))
                 for s, ref in picks]
        self.rng_online.begin_step(step)
        self.rng_target.begin_step(step)
        lr = training.noam_lr(state.adam_t + 1, cfg.model_dim, XE_WARMUP)
        return training.xe_step(state, batch, lr, self.rng_online, self.rng_target)

    def check(self, i: int, out) -> list:
        return _finite(out)

    def fingerprint(self, out):
        return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# scst-pairs: self-critical steps with Hungarian pairing of all beams
# ---------------------------------------------------------------------------


class ScstPairs(Workload):
    name = "scst-pairs"
    unit = "SCST step"

    def __init__(self, seed: int, sizes):
        super().__init__(seed, sizes)
        # scst_step does not return its beams; keep them for the checks
        self._beams = []
        self._beam_search = training.beam_search

        def keep(*args, **kwargs):
            beam = self._beam_search(*args, **kwargs)
            self._beams.append(beam)
            return beam

        training.beam_search = keep

    def close(self) -> None:
        training.beam_search = self._beam_search

    def setup(self, workdir) -> None:
        sz = self.sizes
        path = _pretrain(sz.model, sz.pretrain, workdir)
        generated = data.generate_synthetic_dataset(seed=self.seed, num_images=sz.num_images)
        samples = _write_and_read(generated, workdir)
        self.train, _, _ = data.split_dataset(samples, seed=self.seed)
        # reload the way train-scst does: checkpoint, fresh moments, new lambda
        state, self.vocab = training.state_from_checkpoint(checkpoint.load_checkpoint(path))
        self.scst = training.ScstConfig(strategy=SCST_STRATEGY, beam_size=sz.beam_size,
                                        lambda_kd=LAMBDA_KD)
        training.prepare_for_scst(state, self.scst)
        self.df = metrics.DocumentFrequency([s.references for s in self.train])
        self.embedder = BagEmbedder.from_corpus(
            [tokenizer.tokenize(r, self.vocab).ids for s in self.train for r in s.references],
            len(self.vocab.tokens))
        self._start = training.state_to_checkpoint(state, self.vocab, "scst")
        self.reset()

    def reset(self) -> None:
        self.state, _ = training.state_from_checkpoint(self._start)

    def run_unit(self, i: int):
        # the body of training.train_scst's loop, without its log write
        state = self.state
        self._beams = []
        picked = training._select_images(self.train, self.sizes.batch_size, state.seed,
                                          state.step + 1)
        batch = [(s.features.grid, s.references) for s in picked]
        report = training.scst_step(state, batch, self.scst, self.df, self.vocab, self.embedder)
        return report, self._beams

    def check(self, i: int, out) -> list:
        report, beams = out
        problems = _finite(report)
        expected = 2 * self.sizes.batch_size  # distillation is on: both models search
        if len(beams) != expected:
            problems.append(f"{len(beams)} beams searched, expected {expected}")
        for beam in beams:
            problems += beam_problems(beam, self.vocab)
        return problems

    def fingerprint(self, out):
        report, beams = out
        return (tuple(sorted(report.items())),
                tuple(tuple((tuple(h.ids), h.logprob) for h in beam) for beam in beams))


# ---------------------------------------------------------------------------
# caption-eval: beam-search captions of held-out images, then score them
# ---------------------------------------------------------------------------


class CaptionEval(Workload):
    name = "caption-eval"
    unit = "captioned image"

    def setup(self, workdir) -> None:
        sz = self.sizes
        path = _pretrain(sz.model, sz.pretrain, workdir)
        generated = data.generate_synthetic_dataset(seed=self.seed, num_images=sz.held_out)
        self.images = _write_and_read(generated, workdir)
        state, self.vocab = training.state_from_checkpoint(checkpoint.load_checkpoint(path))
        self.params, self.config = state.target, state.config
        self.first_pass = [None] * len(self.images)
        self.min_units = len(self.images)  # one full pass, so every caption is scored

    def run_unit(self, i: int):
        grid = self.images[i % len(self.images)].features.grid
        beam = decoding.caption_image(self.params, self.config, grid, self.sizes.beam_size)
        return beam, tokenizer.detokenize_ids(beam[0].ids, self.vocab)

    def check(self, i: int, out) -> list:
        beam, text = out
        problems = beam_problems(beam, self.vocab)
        j = i % len(self.images)
        if self.first_pass[j] is None:
            self.first_pass[j] = text
        elif self.first_pass[j] != text:
            problems.append(f"image {j} captioned {text!r}, earlier {self.first_pass[j]!r}")
        return problems

    def verify(self) -> list:
        """Caption the first held-out images with ``caption_image`` and with
        the package's reference decoder (full re-decoding of every prefix,
        no cache); both must return the same beam."""
        k = self.sizes.beam_size
        results = []
        for j, sample in enumerate(self.images[:REFERENCE_IMAGES]):
            grid = sample.features.grid
            beam = decoding.caption_image(self.params, self.config, grid, k)
            with tensor.no_grad():
                enc = model.encode(grid, self.params, self.config)
            expand = decoding.model_expander(self.params, self.config, enc)
            reference = decoding.beam_search(expand, k, self.config.max_length)
            results.append((f"reference decoder on image {j}", same_beam_problems(beam, reference)))
        return results

    def fingerprint(self, out):
        beam, text = out
        return text, tuple((tuple(h.ids), h.logprob) for h in beam)

    def captions(self) -> list:
        """Top captions of the first pass over the held-out images."""
        if any(c is None for c in self.first_pass):
            raise RuntimeError("not every held-out image has been captioned")
        return list(self.first_pass)

    def evaluate(self) -> dict:
        return metrics.evaluate_all(self.captions(), [s.references for s in self.images])


WORKLOADS = {w.name: w for w in (XeDesk, ScstPairs, CaptionEval)}
DEFAULT_SIZES = {"xe-desk": XeSizes(), "scst-pairs": ScstSizes(), "caption-eval": CaptionSizes()}
