"""Teacher-forced joint training loop for the dialogue model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import LossSettings, ModelConfig
from .net import BoundExample, DialogueModel
from .numkit import AdamState, Tape, adam_step, backward, clip_global_norm, mean

# the loop reads the model section's epochs, batch_size, lr and grad_clip
TrainSettings = ModelConfig


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_nll: float
    valid_loss: float | None = None


@dataclass
class TrainResult:
    trace: list[EpochRecord] = field(default_factory=list)
    best_valid: float | None = None


def evaluate_loss(model: DialogueModel, examples: list[BoundExample],
                  settings: LossSettings) -> tuple[float, float]:
    """Mean (joint, nll) loss over examples with no recording."""
    if not examples:
        return 0.0, 0.0
    joint = 0.0
    nll = 0.0
    for bound in examples:
        parts = model.example_loss(bound, settings)
        joint += parts.joint.item()
        nll += parts.nll.item()
    return joint / len(examples), nll / len(examples)


def train_dialogue_model(model: DialogueModel, train_examples: list[BoundExample],
                         valid_examples: list[BoundExample] | None,
                         loss_settings: LossSettings, train_settings: TrainSettings,
                         rng: np.random.Generator,
                         log=None) -> TrainResult:
    """Run Adam over shuffled mini-batches of the joint loss.

    The batch loss is the mean of per-example joint losses; gradients are
    clipped to a global norm before each update, and a batch's tape and
    gradients are released before the next batch starts. Validation (when
    provided) runs after every epoch, and the model returns holding the
    parameters of the epoch with the lowest validation loss; without it the
    model holds the final parameters. A non-finite value in the forward or
    backward pass, or a gradient norm that overflows, aborts with the epoch
    and batch id.
    """
    if not train_examples:
        raise ValueError("no training examples")
    params = model.params()
    state = AdamState(params, lr=train_settings.lr)
    result = TrainResult()
    best = None

    for epoch in range(1, train_settings.epochs + 1):
        order = rng.permutation(len(train_examples))
        epoch_joint = 0.0
        epoch_nll = 0.0
        for batch_id, start in enumerate(range(0, len(order), train_settings.batch_size)):
            batch = [train_examples[i] for i in order[start:start + train_settings.batch_size]]
            try:
                with Tape() as tape:
                    parts = [model.example_loss(b, loss_settings) for b in batch]
                    batch_loss = mean([p.joint for p in parts])
                grads = backward(batch_loss, tape, params)
                clip_global_norm(grads, train_settings.grad_clip)
            except FloatingPointError as err:
                raise RuntimeError(
                    f"training stopped at epoch {epoch}, batch {batch_id}: {err}") from err
            adam_step(params, grads, state)
            epoch_joint += batch_loss.item() * len(batch)
            epoch_nll += float(np.mean([p.nll.item() for p in parts])) * len(batch)
            # the gradients and the tape hold the batch's activations: free
            # them before the next batch's forward, so one batch is alive
            del tape, parts, batch_loss, grads

        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_joint / len(train_examples),
            train_nll=epoch_nll / len(train_examples),
        )
        if valid_examples:
            record.valid_loss, _ = evaluate_loss(model, valid_examples, loss_settings)
            if result.best_valid is None or record.valid_loss < result.best_valid:
                result.best_valid = record.valid_loss
                best = [p.data.copy() for p in params]
        result.trace.append(record)
        if log is not None:
            log(record)

    if best is not None:
        for p, snapshot in zip(params, best):
            p.data[...] = snapshot
    return result

