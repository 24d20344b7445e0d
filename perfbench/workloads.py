"""The benchmark's three workloads.

Every workload synthesises its corpus text from the seed (``inputs``,
untimed), loads it and builds its state through personagen's public API
(``setup``, timed), then runs rounds of operations. A round is a fixed,
deterministic list of operations that starts from the same state each time,
so every repeat of an operation must give the same output. Operations are
module-attribute calls (``trainer.train_dialogue_model(...)``) so that a
traced run can wrap them where they are looked up.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from personagen import corpus, expansion, metrics, net, topic, trainer
from personagen.stopwords import STOPWORDS, is_stopword

import checks
from synth import CorpusShape, persona_chat_text


@dataclass
class Op:
    """One timed call. ``check`` and ``digest`` run after the clock stops."""

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda out: None
    digest: Callable[[Any], str] = repr


HOPS = 3          # memory hops, the paper's setting
TURN = 3          # mid-conversation examples, whose history holds 7 utterances
BEAM = 2          # named in op kinds and metrics as "beam2"
EXAMPLES = 2      # generate_ref: distinct examples per round
TOPIC_LR = 1e-3


class Workload:
    shape: Any

    def inputs(self, seed: int) -> str:
        """The seed's corpus text. It is benchmark work, so it is made once per
        run, outside the timed set-up."""
        return persona_chat_text(seed, self.shape.corpus, STOPWORDS)


def load_corpus(seed: int, text: str, out_dir: Path) -> list[corpus.Conversation]:
    path = out_dir / f"corpus-{seed}.txt"
    path.write_text(text, encoding="utf-8")
    return corpus.load_personachat(path)


def closest_to_median(items: list, size: Callable[[Any], float], count: int) -> list:
    """The ``count`` items whose size is closest to the median size, in their
    original order; earlier items win ties. Picking by size keeps the cost of
    one operation close to the same on every seed."""
    sizes = [size(item) for item in items]
    middle = statistics.median(sizes)
    ranked = sorted(range(len(items)), key=lambda i: (abs(sizes[i] - middle), i))
    return [items[i] for i in sorted(ranked[:count])]


def example_tokens(example: corpus.DialogueExample) -> int:
    return (sum(map(len, example.persona_sentences)) + sum(map(len, example.history))
            + len(example.response))


def expansion_words(vocab: corpus.Vocabulary, count: int, rng: np.random.Generator) -> list[str]:
    """Stand-in expansion record: ``count`` distinct content words of the vocabulary."""
    content = [i for i in range(len(corpus.RESERVED_TOKENS), len(vocab))
               if not is_stopword(vocab.token(i))]
    return [vocab.token(int(i)) for i in rng.choice(content, size=count, replace=False)]


def dialogue_inputs(seed: int, text: str, vocab_size: int, count: int, expansions: int,
                    out_dir: Path):
    """Corpus -> model vocabulary -> ``count`` bound mid-conversation examples."""
    conversations = load_corpus(seed, text, out_dir)
    documents = [corpus.conversation_document(c) for c in conversations]
    vocab = corpus.build_vocab(documents, vocab_size)
    if len(vocab) != vocab_size:
        raise RuntimeError(f"synthetic corpus gives a {len(vocab)}-entry vocabulary, "
                           f"the workload needs {vocab_size}")
    chosen = closest_to_median([c.examples[TURN] for c in conversations if len(c.examples) > TURN],
                               example_tokens, count)
    rng = np.random.default_rng(seed)
    bound = [net.bind_example(ex, vocab, expansion_words(vocab, expansions, rng)) for ex in chosen]
    return vocab, bound


def digest_tokens(tokens: list[str]) -> str:
    return hashlib.sha256(" ".join(tokens).encode()).hexdigest()


def finite_loss(value: float) -> str | None:
    return None if math.isfinite(value) else f"non-finite loss {value!r}"


# ---------------------------------------------------------------------------
# train_refvocab
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainShape:
    corpus: CorpusShape = CorpusShape()
    vocab: int = 20000
    hidden: int = 128
    emb: int = 64
    steps: int = 3           # one-example train steps per round, each followed by a validation example
    expansions: int = 100


@dataclass
class TrainState:
    model: net.DialogueModel
    train: list[net.BoundExample]
    valid: list[net.BoundExample]
    seed: int


class TrainRefVocab(Workload):
    """Teacher-forced joint training at the paper's 20k vocabulary."""

    name = "train_refvocab"
    primary = "train_step"
    secondary = "valid_example"

    def __init__(self, shape: TrainShape = TrainShape()):
        self.shape = shape
        self.losses = net.LossSettings()
        self.settings = trainer.TrainSettings(epochs=1, batch_size=1)

    def model(self, vocab: corpus.Vocabulary, seed: int) -> net.DialogueModel:
        s = self.shape
        return net.DialogueModel(vocab, s.emb, s.hidden, HOPS, np.random.default_rng(seed))

    def setup(self, seed: int, text: str, out_dir: Path) -> TrainState:
        s = self.shape
        vocab, bound = dialogue_inputs(seed, text, s.vocab, 2 * s.steps, s.expansions, out_dir)
        return TrainState(self.model(vocab, seed), bound[:s.steps], bound[s.steps:], seed)

    def round(self, state: TrainState) -> list[Op]:
        ops = []
        for i, (example, bound) in enumerate(zip(state.train, state.valid)):
            def step(example=example, i=i):
                result = trainer.train_dialogue_model(
                    state.model, [example], None, self.losses, self.settings,
                    np.random.default_rng(state.seed + i))
                return result.trace[0].train_loss

            def validate(bound=bound):
                return trainer.evaluate_loss(state.model, [bound], self.losses)[0]
            ops.append(Op("train_step", f"train_step:{i}", step, finite_loss))
            ops.append(Op("valid_example", f"valid_example:{i}", validate, finite_loss))
        return ops

    def final_checks(self, state: TrainState) -> dict[str, str]:
        # at the initial parameters, which every round starts from
        fresh = self.model(state.model.vocab, state.seed)
        problems = checks.gradient_probe(fresh, state.train[0], self.losses,
                                         np.random.default_rng(state.seed))
        return {"train_step:0": "; ".join(problems)} if problems else {}

    def report(self, state: TrainState, timings: dict, outputs: dict) -> dict:
        steps = timings["train_step"]
        examples = {f"train_step:{i}": example for i, example in enumerate(state.train)}
        tokens = sum(len(examples[key].response_ids) + 1 for key, _ in steps)
        total = sum(seconds for _, seconds in steps)
        return {
            "train_examples_per_s": (len(steps) / total, "1/s"),
            "train_tokens_per_s": (tokens / total, "1/s"),
            "train_step_s": ([seconds for _, seconds in steps], "s"),
            "valid_example_s": ([seconds for _, seconds in timings["valid_example"]], "s"),
            "train_loss_after": (outputs[f"train_step:{len(state.train) - 1}"], "nats"),
        }


# ---------------------------------------------------------------------------
# generate_ref
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerateShape:
    corpus: CorpusShape = CorpusShape()
    vocab: int = 20000
    hidden: int = 512
    emb: int = 300
    max_len: int = 30
    expansions: int = 100


@dataclass
class GenerateState:
    model: net.DialogueModel
    bound: list[net.BoundExample]
    table: corpus.EmbeddingTable
    responses: dict[str, list[str]] = field(default_factory=dict)


class GenerateRef(Workload):
    """Greedy and beam-2 decoding at the full reference shape, then evaluation."""

    name = "generate_ref"
    primary = "greedy"
    secondary = "beam2"

    def __init__(self, shape: GenerateShape = GenerateShape()):
        self.shape = shape

    def setup(self, seed: int, text: str, out_dir: Path) -> GenerateState:
        s = self.shape
        vocab, bound = dialogue_inputs(seed, text, s.vocab, EXAMPLES, s.expansions, out_dir)
        rng = np.random.default_rng(seed)
        model = net.DialogueModel(vocab, s.emb, s.hidden, HOPS, rng)
        vectors = rng.standard_normal((len(vocab), s.emb))
        table = corpus.EmbeddingTable(s.emb, dict(zip(vocab.index_to_token, vectors)))
        return GenerateState(model, bound, table)

    def round(self, state: GenerateState) -> list[Op]:
        s = self.shape
        ops = []
        for i, bound in enumerate(state.bound):
            for kind, mode in (("greedy", "greedy"), ("beam2", "beam")):
                key = f"{kind}:{i}"

                def generate(bound=bound, mode=mode, key=key):
                    tokens = state.model.generate(bound, mode=mode, beam_width=BEAM,
                                                  max_len=s.max_len)
                    state.responses[key] = tokens
                    return tokens
                ops.append(Op(kind, key, generate,
                              lambda out: checks.check_response(out, state.model.vocab, s.max_len),
                              digest_tokens))

        def evaluate():
            # scored on the beam responses, the `personagen eval` default
            candidates = [state.responses[f"beam2:{i}"] for i in range(len(state.bound))]
            references = [b.example.response for b in state.bound]
            persona = [(b.example.persona_sentences, [c]) for b, c in zip(state.bound, candidates)]
            return metrics.evaluate_corpus(candidates, references, state.table, persona).to_record()
        ops.append(Op("eval", "eval", evaluate,
                      lambda out: None if all(map(math.isfinite, out.values()))
                      else f"non-finite evaluation scores {out}"))
        return ops

    def final_checks(self, state: GenerateState) -> dict[str, str]:
        return {}

    def report(self, state: GenerateState, timings: dict, outputs: dict) -> dict:
        decoded = timings["greedy"] + timings["beam2"]
        tokens = sum(len(outputs[key]) for key, _ in decoded)
        return {
            "gen_greedy_s": ([seconds for _, seconds in timings["greedy"]], "s"),
            "gen_beam2_s": ([seconds for _, seconds in timings["beam2"]], "s"),
            "gen_tokens_per_s": (tokens / sum(seconds for _, seconds in decoded), "1/s"),
            "eval_s": ([seconds for _, seconds in timings["eval"]], "s"),
        }


# ---------------------------------------------------------------------------
# topic_expand
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopicShape:
    corpus: CorpusShape = CorpusShape()
    vocab: int = 10000
    topics: int = 50
    hidden: int = 256
    batch: int = 32
    neighbors: int = 20
    max_words: int = 100
    conversations: int = 6   # expanded per round


@dataclass
class TopicState:
    vocab: corpus.Vocabulary
    docs: list[corpus.TfIdfDoc]
    expand_examples: list[corpus.DialogueExample]
    seed: int
    model: topic.TopicModel | None = None
    vectors: dict | None = None


class TopicExpand(Workload):
    """Topic-model training, then persona word expansion in topic space."""

    name = "topic_expand"
    primary = "topic_epoch"
    secondary = "expand"

    def __init__(self, shape: TopicShape = TopicShape()):
        self.shape = shape

    def setup(self, seed: int, text: str, out_dir: Path) -> TopicState:
        s = self.shape
        conversations = load_corpus(seed, text, out_dir)
        documents = [corpus.conversation_document(c) for c in conversations]
        vocab = corpus.build_vocab(documents, s.vocab, remove_stopwords=True)
        if len(vocab) != s.vocab:
            raise RuntimeError(f"synthetic corpus gives a {len(vocab)}-entry topic vocabulary, "
                               f"the workload needs {s.vocab}")
        docs = corpus.compute_tfidf(documents, vocab)
        # expansion cost grows with the number of persona seed words
        def seed_words(example):
            return len({t for s in example.persona_sentences for t in s
                        if not is_stopword(t) and t in vocab})
        chosen = closest_to_median([c.examples[0] for c in conversations], seed_words,
                                   s.conversations)
        return TopicState(vocab, docs, chosen, seed)

    def round(self, state: TopicState) -> list[Op]:
        s = self.shape
        config = topic.TopicTrainConfig(topics=s.topics, hidden=s.hidden, epochs=1,
                                        batch_size=s.batch, lr=TOPIC_LR, seed=state.seed)

        def train():
            state.model, trace = topic.train_topic_model(state.docs, state.vocab, config)
            return trace

        def vectors():
            state.vectors = topic.word_topic_vectors(state.model)
            return len(state.vectors)

        ops = [Op("topic_epoch", "topic_train", train, self._check_trace),
               Op("vectors", "vectors", vectors)]
        for i, example in enumerate(state.expand_examples):
            def run(example=example, i=i):
                return expansion.expand(example, state.vectors, s.neighbors, s.max_words,
                                        source=i).words

            def check(words, example=example):
                weight, tokens = checks.topic_columns(state.model)
                want = checks.expansion_oracle(weight, tokens, example.persona_sentences,
                                               s.neighbors, s.max_words)
                return checks.compare_expansion(words, want)
            ops.append(Op("expand", f"expand:{i}", run, check))
        return ops

    @staticmethod
    def _check_trace(trace) -> str | None:
        bad = [(epoch, loss) for epoch, loss in trace if not math.isfinite(loss)]
        return f"non-finite ELBO at epochs {bad}" if bad else None

    def final_checks(self, state: TopicState) -> dict[str, str]:
        return {}

    def report(self, state: TopicState, timings: dict, outputs: dict) -> dict:
        epochs = [seconds for _, seconds in timings["topic_epoch"]]
        expands = [seconds for _, seconds in timings["expand"]]
        return {
            "topic_epoch_s": (epochs, "s"),
            "topic_docs_per_s": (len(state.docs) * len(epochs) / sum(epochs), "1/s"),
            "topic_elbo_after": (outputs["topic_train"][-1][1], "nats"),
            "expand_conv_s": (expands, "s"),
            "expand_convs_per_s": (len(expands) / sum(expands), "1/s"),
        }


WORKLOADS: dict[str, Callable[[], Any]] = {
    TrainRefVocab.name: TrainRefVocab,
    GenerateRef.name: GenerateRef,
    TopicExpand.name: TopicExpand,
}
