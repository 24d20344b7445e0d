import numpy as np
import pytest

from conftest import gradient_array_refs, toy_expansions
from personagen import trainer
from personagen.corpus import build_vocab, conversation_document, load_personachat
from personagen.net import DialogueModel, LossSettings, bind_example
from personagen.numkit import Factors, Tape
from personagen.trainer import TrainSettings, evaluate_loss, train_dialogue_model


@pytest.fixture(scope="module")
def toy_setup(tmp_path_factory):
    from conftest import toy_dialogue_text

    path = tmp_path_factory.mktemp("trainer") / "dialogues.txt"
    path.write_text(toy_dialogue_text(), encoding="utf-8")
    conversations = load_personachat(path)
    docs = [conversation_document(c) for c in conversations]
    vocab = build_vocab(docs, size_limit=200)
    expansions = toy_expansions()
    examples = []
    for i, conv in enumerate(conversations):
        for ex in conv.examples:
            examples.append(bind_example(ex, vocab, expansions[i]))
    return vocab, examples


def make_model(vocab, seed=0):
    return DialogueModel(vocab, emb_dim=8, hidden=8, hops=2, rng=np.random.default_rng(seed))


def test_loss_decreases(toy_setup):
    vocab, examples = toy_setup
    model = make_model(vocab)
    result = train_dialogue_model(model, examples[:4], None, LossSettings(),
                                  TrainSettings(epochs=8, batch_size=4, lr=0.02),
                                  np.random.default_rng(0))
    assert result.trace[-1].train_loss < result.trace[0].train_loss


def test_deterministic_given_seed(toy_setup):
    vocab, examples = toy_setup

    def run():
        model = make_model(vocab, seed=5)
        result = train_dialogue_model(model, examples[:6], examples[6:8], LossSettings(),
                                      TrainSettings(epochs=3, batch_size=3, lr=0.01),
                                      np.random.default_rng(9))
        return [(r.train_loss, r.valid_loss) for r in result.trace]

    assert run() == run()


def epoch_snapshots(model):
    """A list and a ``log`` callback that appends a copy of the model's
    parameters at the end of each epoch."""
    snapshots = []
    return snapshots, lambda record: snapshots.append([p.data.copy() for p in model.params()])


def test_best_validation_snapshot_kept(toy_setup):
    # the validation loss rises after its best epoch here, so the model
    # must return holding that epoch's parameters, not the last epoch's
    vocab, examples = toy_setup
    model = make_model(vocab, seed=1)
    snapshots, log = epoch_snapshots(model)
    result = train_dialogue_model(model, examples[:6], examples[6:10], LossSettings(),
                                  TrainSettings(epochs=5, batch_size=6, lr=0.1),
                                  np.random.default_rng(1), log=log)
    valid = [r.valid_loss for r in result.trace]
    best = valid.index(min(valid))
    assert result.best_valid == valid[best] and best < len(valid) - 1
    assert all(np.array_equal(p.data, kept) for p, kept in zip(model.params(), snapshots[best]))
    joint, _ = evaluate_loss(model, examples[6:10], LossSettings())
    assert joint == pytest.approx(result.best_valid, abs=1e-9)


def test_no_snapshot_without_validation(toy_setup):
    # the model itself holds the final parameters; copying them all at the
    # end would cost a full parameter copy per call
    vocab, examples = toy_setup
    model = make_model(vocab, seed=2)
    snapshots, log = epoch_snapshots(model)
    result = train_dialogue_model(model, examples[:4], None, LossSettings(),
                                  TrainSettings(epochs=2, batch_size=2, lr=0.02),
                                  np.random.default_rng(2), log=log)
    assert result.best_valid is None
    assert [r.valid_loss for r in result.trace] == [None, None]
    assert all(np.array_equal(p.data, last) for p, last in zip(model.params(), snapshots[-1]))


def test_batch_tape_adds_one_record_to_the_example_losses(toy_setup, monkeypatch):
    # the batch loss is one mean record over the examples' joint losses
    vocab, examples = toy_setup
    model = make_model(vocab, seed=3)
    batch = examples[:3]
    per_example = []
    for bound in batch:
        with Tape() as tape:
            model.example_loss(bound, LossSettings())
        per_example.append(len(tape))
    backward = trainer.backward
    handed = []

    def counting(loss, tape, *rest):
        handed.append(len(tape))
        return backward(loss, tape, *rest)

    monkeypatch.setattr(trainer, "backward", counting)
    train_dialogue_model(model, batch, None, LossSettings(),
                         TrainSettings(epochs=1, batch_size=3, lr=0.01), np.random.default_rng(0))
    assert handed == [sum(per_example) + 1]


def test_a_batch_is_freed_before_the_next_forward(toy_setup, monkeypatch):
    # one batch in memory: no array of a batch's gradients is alive when the
    # next batch's forward (or validation) starts
    vocab, examples = toy_setup
    model = make_model(vocab, seed=4)
    backward, example_loss = trainer.backward, DialogueModel.example_loss
    refs, alive = [], []

    def keeping(loss, tape, *rest):
        grads = backward(loss, tape, *rest)
        refs.extend(gradient_array_refs(grads))
        return grads

    def checking(self, *args):
        if refs:
            alive.append(sum(ref() is not None for ref in refs))
        return example_loss(self, *args)

    monkeypatch.setattr(trainer, "backward", keeping)
    monkeypatch.setattr(DialogueModel, "example_loss", checking)
    train_dialogue_model(model, examples[:6], examples[6:8], LossSettings(),
                         TrainSettings(epochs=2, batch_size=2, lr=0.01), np.random.default_rng(0))
    assert len(alive) == 2 * 6 + 2 * 2 - 2  # every forward after the first batch's
    assert alive == [0] * len(alive)


def test_non_finite_loss_aborts_with_batch_id(toy_setup):
    vocab, examples = toy_setup
    model = make_model(vocab)
    model.embedding.data[:] = np.nan  # poisons the first forward
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train_dialogue_model(model, examples[:2], None, LossSettings(),
                             TrainSettings(epochs=1, batch_size=2, lr=0.01),
                             np.random.default_rng(0))


def test_overflowing_loss_aborts_with_batch_id(toy_setup):
    # finite parameters, but P-BoWs' sum of the output logits over the
    # steps overflows: the op that makes the first non-finite value stops
    # the batch, and the message names it and its input's shape
    vocab, examples = toy_setup
    model = make_model(vocab)
    model.decoder.out.b.data[:] = 1e308
    message = (r"epoch 1, batch 0: sum_ produced non-finite values "
               rf"\(inputs of shapes \(\d+, {len(vocab)}\)\)$")
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=message):
        train_dialogue_model(model, examples[:2], None, LossSettings(),
                             TrainSettings(epochs=1, batch_size=2, lr=0.01),
                             np.random.default_rng(0))


def test_overflowing_gradient_norm_aborts_with_batch_id(toy_setup):
    # finite losses and gradients whose sum of squares overflows: clipping
    # by an infinite norm would scale every gradient to zero and the step
    # would silently do nothing
    vocab, examples = toy_setup
    model = make_model(vocab)
    model.decoder.out.w.data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match="epoch 1, batch 0: global gradient norm is inf"):
        train_dialogue_model(model, examples[:2], None, LossSettings(),
                             TrainSettings(epochs=1, batch_size=2, lr=0.01),
                             np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factored_gradient_aborts_with_batch_id(toy_setup, monkeypatch, bad):
    # a weight gradient kept as factors is checked like a dense one: a bad
    # entry in its g makes the norm non-finite, and nothing is stepped
    vocab, examples = toy_setup
    model = make_model(vocab)
    before = [p.data.copy() for p in model.params()]
    backward = trainer.backward
    poisoned = []

    def poisoning(*args):
        grads = backward(*args)
        factors = [g for g in grads if isinstance(g, Factors)]
        factors[-1].g[0, 0] = bad
        poisoned.append(len(factors))
        return grads

    monkeypatch.setattr(trainer, "backward", poisoning)
    with pytest.raises(RuntimeError, match=f"epoch 1, batch 0: global gradient norm is {bad}"):
        train_dialogue_model(model, examples[:1], None, LossSettings(),
                             TrainSettings(epochs=1, batch_size=1, lr=0.01),
                             np.random.default_rng(0))
    assert poisoned
    assert all(np.array_equal(p.data, b) for p, b in zip(model.params(), before))


def test_gradient_norm_overflow_is_not_called_a_loss(toy_setup):
    # the losses are finite; the message names the value that is not
    vocab, examples = toy_setup
    model = make_model(vocab)
    model.decoder.out.w.data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(RuntimeError) as err:
        train_dialogue_model(model, examples[:2], None, LossSettings(),
                             TrainSettings(epochs=1, batch_size=2, lr=0.01),
                             np.random.default_rng(0))
    assert str(err.value).endswith("epoch 1, batch 0: global gradient norm is inf")
    assert "loss" not in str(err.value)


def test_empty_training_set_rejected(toy_setup):
    vocab, _ = toy_setup
    with pytest.raises(ValueError):
        train_dialogue_model(make_model(vocab), [], None, LossSettings(),
                             TrainSettings(), np.random.default_rng(0))
