"""Desk-scale multi-task low-rank-adapter training lab.

A shared frozen backbone carries trainable low-rank adapter pairs and
per-task heads. Training modes range from fully independent per-task models
to joint training to conflict-aware training, where task gradients with
negative inner products are projected onto each other's normal planes before
the update. Synthetic task families with a dialable conflict level make the
optimizer's properties measurable on a laptop.

Everything is imported from its submodule (``ortho_lora.config``,
``ortho_lora.model``, ``ortho_lora.trainer``, ...); the package root
exports nothing but ``__version__``.
"""

__version__ = "0.1.0"
