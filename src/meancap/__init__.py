"""Desk-scale mean-teacher image captioning.

Twin transformer captioners trained from region features: an online model
learns by cross-entropy plus a masked distillation penalty toward a target
model that is an exponential moving average of the online weights, then the
pair is fine-tuned on CIDEr-D reward with the beams of the two models paired
for continued distillation.

The modules are importable individually and stay dependency-light (numpy
only): ``tensor`` (reverse-mode autodiff), ``rng``, ``tokenizer``, ``data``,
``model``, ``decoding``, ``fastdecode``, ``metrics``, ``assignment``,
``training``, ``checkpoint``, and ``cli``.
"""

__version__ = "0.1.0"
