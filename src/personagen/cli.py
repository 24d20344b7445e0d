"""Command-line entry point.

Subcommands: pretrain-topic, expand, train, generate, eval, chat. All
structured outputs are line-delimited JSON records; inputs are UTF-8 text.
Exit codes: 0 success, 1 internal error, 2 user/input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from . import checkpoint as ckpt
from .config import Config
from .corpus import (
    Conversation,
    DialogueExample,
    EmbeddingTable,
    InputFormatError,
    Vocabulary,
    build_vocab,
    compute_tfidf,
    conversation_document,
    detokenize,
    load_embeddings,
    load_personachat,
    tokenize,
)
from .expansion import expand
from .metrics import evaluate_corpus
from .net import BoundExample, DialogueModel, LossSettings, bind_example
from .topic import TopicModel, TopicTrainConfig, train_topic_model, word_topic_vectors
from .trainer import TrainSettings, train_dialogue_model

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


class UserError(Exception):
    """Input or configuration problem attributable to the caller."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UserError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except (FileNotFoundError, PermissionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except ckpt.CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="personagen")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; omitted fields keep defaults")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("pretrain-topic", help="train the topic model over dialogue corpora")
    common(p)
    p.add_argument("--corpus", action="append", default=[],
                   help="extra corpus file (may repeat); added to config paths")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--trace", help="loss trace output path (default: <out>.trace.jsonl)")
    p.set_defaults(handler=cmd_pretrain_topic)

    p = sub.add_parser("expand", help="emit expansion word records per conversation")
    common(p)
    p.add_argument("--topic", required=True, help="topic model checkpoint")
    p.add_argument("--data", required=True, help="dialogue file to expand")
    p.add_argument("--out", required=True, help="records output path (jsonl)")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("train", help="joint training of the dialogue model")
    common(p)
    p.add_argument("--expansions", help="expansion records for the training file")
    p.add_argument("--out", required=True, help="model checkpoint output path")
    p.add_argument("--trace", help="loss trace output path (default: <out>.trace.jsonl)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("generate", help="generate responses for a dialogue file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--expansions")
    p.add_argument("--out", help="responses output path (default: stdout)")
    p.add_argument("--mode", choices=("greedy", "beam"), default="beam")
    p.add_argument("--diagnostics", action="store_true",
                   help="include persona match weights and the last decode step's "
                        "history and memory attention (greedy and beam)")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("eval", help="automatic metrics over a dialogue file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--expansions")
    p.add_argument("--out", help="report output path (default: stdout)")
    p.add_argument("--mode", choices=("greedy", "beam"), default="beam")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("chat", help="interactive session reading utterances from stdin")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--persona", required=True, help="text file, one persona sentence per line")
    p.add_argument("--expansions", help="expansion records; the first record is used")
    p.add_argument("--mode", choices=("greedy", "beam"), default="beam")
    p.set_defaults(handler=cmd_chat)
    return parser


def _load_config(args) -> Config:
    try:
        config = Config.from_file(args.config) if args.config else Config()
    except ValueError as err:  # malformed JSON, unknown keys, out-of-range values
        raise UserError(f"{args.config}: {err}") from err
    if args.seed is not None:
        config.seed = args.seed
    return config


def _read_input(load, path, *args):
    """``load(path, *args)``, with a file that cannot be read, is not UTF-8
    or is malformed reported as a UserError naming the path and, where one
    line is at fault, the line."""
    try:
        return load(path, *args)
    except OSError as err:
        raise UserError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise UserError(f"{_at(path, _undecodable_line(path))}: not UTF-8 text "
                        f"({err.reason})") from err
    except InputFormatError as err:
        raise UserError(f"{_at(path, err.line_no)}: {err.message}") from err


def _at(path, line: int | None) -> str:
    return str(path) if line is None else f"{path}:{line}"


def _undecodable_line(path) -> int | None:
    """The number of the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


def _load_conversations(path) -> list[Conversation]:
    return _read_input(load_personachat, path)


# ---------------------------------------------------------------------------
# pretrain-topic
# ---------------------------------------------------------------------------


def cmd_pretrain_topic(args) -> int:
    config = _load_config(args)
    paths = list(config.paths.topic_corpora) + list(args.corpus)
    if config.paths.train:
        paths.insert(0, config.paths.train)
    if not paths:
        raise UserError("no corpus: set paths.train/paths.topic_corpora in the config or pass --corpus")
    conversations: list[Conversation] = []
    for path in paths:
        conversations.extend(_load_conversations(path))
    if not conversations:
        raise UserError("corpora contain no conversations")
    documents = [conversation_document(c) for c in conversations]
    vocab = build_vocab(documents, config.topic.vocab_size, remove_stopwords=True)
    docs = compute_tfidf(documents, vocab)
    topic_config = TopicTrainConfig(
        topics=config.topic.topics, hidden=config.topic.hidden, epochs=config.topic.epochs,
        batch_size=config.topic.batch_size, lr=config.topic.lr, seed=config.seed,
    )
    model, trace = train_topic_model(docs, vocab, topic_config)
    ckpt.save_checkpoint(
        args.out, "topic", [(n, t.data) for n, t in model.named_params()], vocab,
        config.to_dict(), extra={"topics": model.topics, "hidden": config.topic.hidden},
    )
    trace_path = args.trace or f"{args.out}.trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as handle:
        for epoch, loss in trace:
            handle.write(json.dumps({"epoch": epoch, "loss": loss}) + "\n")
    print(f"wrote {args.out} ({len(docs)} documents, {len(vocab)} vocab entries)")
    return EXIT_OK


def _topic_model_from_checkpoint(loaded: ckpt.Checkpoint) -> TopicModel:
    if loaded.kind != "topic":
        raise UserError(f"checkpoint kind {loaded.kind!r} is not a topic model")
    topics = int(loaded.extra["topics"])
    hidden = int(loaded.extra["hidden"])
    model = TopicModel.create(loaded.vocab, topics, hidden, np.random.default_rng(0))
    ckpt.restore_params(model, loaded.params)
    return model


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    config = _load_config(args)
    loaded = ckpt.load_checkpoint(args.topic)
    model = _topic_model_from_checkpoint(loaded)
    conversations = _load_conversations(args.data)
    vectors = word_topic_vectors(model)
    with open(args.out, "w", encoding="utf-8") as handle:
        for i, conv in enumerate(conversations):
            if conv.examples:
                result = expand(conv.examples[0], vectors,
                                config.expansion.neighbors, config.expansion.max_words, source=i)
                words = [[token, score] for token, score in result.words]
            else:
                words = []
            handle.write(json.dumps({"conversation": i, "words": words}) + "\n")
    print(f"wrote {args.out} ({len(conversations)} records)")
    return EXIT_OK


def load_expansion_records(path) -> dict[int, list[str]]:
    """Expansion tokens by conversation from the JSONL records ``expand``
    writes: ``{"conversation": int, "words": [[token, score], ...]}``."""
    return _read_input(_parse_expansion_records, path)


def _parse_expansion_records(path) -> dict[int, list[str]]:
    records: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as err:
                raise UserError(f"{path}:{number}: expansion record is not JSON ({err})") from err
            if not isinstance(record, dict) or type(record.get("conversation")) is not int:
                raise UserError(f"{path}:{number}: expansion record is not an object "
                                "with an integer \"conversation\"")
            words = record.get("words")
            if not isinstance(words, list) or not all(map(_is_word_pair, words)):
                raise UserError(f"{path}:{number}: \"words\" is not a list of [token, score] pairs")
            records[record["conversation"]] = [token for token, _ in words]
    return records


def _is_word_pair(word) -> bool:
    return (isinstance(word, list) and len(word) == 2 and isinstance(word[0], str)
            and type(word[1]) in (int, float))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _bind_conversations(conversations: list[Conversation], vocab: Vocabulary,
                        expansions: dict[int, list[str]] | None,
                        warn_missing: bool = False) -> list[BoundExample]:
    bound = []
    for i, conv in enumerate(conversations):
        tokens = None if expansions is None else expansions.get(i)
        if expansions is not None and tokens is None and warn_missing:
            print(f"warning: no expansion record for conversation {i}; "
                  "external persona memory will be empty", file=sys.stderr)
        for example in conv.examples:
            bound.append(bind_example(example, vocab, tokens))
    return bound


def _loss_settings(config: Config) -> LossSettings:
    return LossSettings(
        gamma_match=config.losses.gamma_match,
        gamma_bows=config.losses.gamma_bows,
        bows_extra_weight=config.losses.bows_extra_weight,
        match_threshold=config.losses.match_threshold,
    )


def cmd_train(args) -> int:
    config = _load_config(args)
    if not config.paths.train:
        raise UserError("config paths.train is required")
    train_conversations = _load_conversations(config.paths.train)
    valid_conversations = _load_conversations(config.paths.valid) if config.paths.valid else []
    expansions = load_expansion_records(args.expansions) if args.expansions else None

    documents = [conversation_document(c) for c in train_conversations]
    vocab = build_vocab(documents, config.model.vocab_size, remove_stopwords=False)

    pretrained = None
    if config.paths.embeddings:
        pretrained = _read_input(load_embeddings, config.paths.embeddings, vocab)
        if pretrained.dim != config.model.emb_dim:
            print(f"note: using embedding dim {pretrained.dim} from {config.paths.embeddings}",
                  file=sys.stderr)
            config.model.emb_dim = pretrained.dim

    rng = np.random.default_rng(config.seed)
    model = DialogueModel(vocab, config.model.emb_dim, config.model.hidden,
                          config.model.hops, rng, pretrained)
    train_examples = _bind_conversations(train_conversations, vocab, expansions, warn_missing=True)
    valid_examples = _bind_conversations(valid_conversations, vocab, None)

    trace_path = args.trace or f"{args.out}.trace.jsonl"
    records = []

    def log(record):
        records.append(record)
        print(f"epoch {record.epoch}: train {record.train_loss:.4f}"
              + (f", valid {record.valid_loss:.4f}" if record.valid_loss is not None else ""))

    result = train_dialogue_model(
        model, train_examples, valid_examples, _loss_settings(config),
        TrainSettings(epochs=config.model.epochs, batch_size=config.model.batch_size,
                      lr=config.model.lr, grad_clip=config.model.grad_clip),
        rng, log=log,
    )
    ckpt.restore_params(model, result.best_params)
    ckpt.save_checkpoint(
        args.out, "dialogue", [(n, t.data) for n, t in model.named_params()], vocab,
        config.to_dict(), extra={"best_valid": result.best_valid},
    )
    with open(trace_path, "w", encoding="utf-8") as handle:
        for record in result.trace:
            handle.write(json.dumps({
                "epoch": record.epoch, "train_loss": record.train_loss,
                "train_nll": record.train_nll, "valid_loss": record.valid_loss,
            }) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_dialogue_model(args) -> tuple[DialogueModel, Config]:
    """The model in ``--checkpoint``, with the config saved beside it unless
    ``--config`` overrides it."""
    config_cli = _load_config(args)
    loaded = ckpt.load_checkpoint(args.checkpoint)
    if loaded.kind != "dialogue":
        raise UserError(f"checkpoint kind {loaded.kind!r} is not a dialogue model")
    try:
        config = Config.from_dict(loaded.config)
    except ValueError as err:
        raise UserError(f"{args.checkpoint}: saved config: {err}") from err
    model = DialogueModel(loaded.vocab, config.model.emb_dim, config.model.hidden,
                          config.model.hops, np.random.default_rng(0))
    ckpt.restore_params(model, loaded.params)
    return model, config_cli if args.config else config


# ---------------------------------------------------------------------------
# generate / eval / chat
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    model, config = _load_dialogue_model(args)
    conversations = _load_conversations(args.data)
    expansions = load_expansion_records(args.expansions) if args.expansions else None

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        index = 0
        for i, conv in enumerate(conversations):
            tokens = None if expansions is None else expansions.get(i)
            for example in conv.examples:
                bound = bind_example(example, model.vocab, tokens)
                if args.diagnostics:
                    response, diag = model.generate(
                        bound, mode=args.mode, beam_width=config.model.beam,
                        max_len=config.model.max_len, collect_diagnostics=True)
                else:
                    response = model.generate(
                        bound, mode=args.mode, beam_width=config.model.beam,
                        max_len=config.model.max_len)
                    diag = None
                record = {"conversation": i, "example": index, "response": detokenize(response)}
                if diag is not None:
                    record["match_weights"] = diag["match_weights"]
                    if diag["steps"]:
                        record["memory_attention"] = diag["steps"][-1]
                out.write(json.dumps(record) + "\n")
                index += 1
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    model, config = _load_dialogue_model(args)
    conversations = _load_conversations(args.data)
    expansions = load_expansion_records(args.expansions) if args.expansions else None

    table: EmbeddingTable | None = None
    if config.paths.embeddings:
        table = _read_input(load_embeddings, config.paths.embeddings)

    candidates: list[list[str]] = []
    references: list[list[str]] = []
    per_conversation: list[tuple[list[list[str]], list[list[str]]]] = []
    for i, conv in enumerate(conversations):
        tokens = None if expansions is None else expansions.get(i)
        responses = []
        persona = conv.persona_sentences
        for example in conv.examples:
            bound = bind_example(example, model.vocab, tokens)
            response = model.generate(bound, mode=args.mode, beam_width=config.model.beam,
                                      max_len=config.model.max_len)
            candidates.append(response)
            references.append(example.response)
            responses.append(response)
        if conv.examples:
            per_conversation.append((persona, responses))

    report = evaluate_corpus(candidates, references, table, per_conversation)
    line = json.dumps(report.to_record())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
    else:
        print(line)
    return EXIT_OK


def cmd_chat(args) -> int:
    model, config = _load_dialogue_model(args)
    persona_sentences = _read_input(_load_persona, args.persona)
    if not persona_sentences:
        raise UserError(f"{args.persona}: no persona sentences")
    expansion_tokens: list[str] = []
    if args.expansions:
        records = load_expansion_records(args.expansions)
        if records:
            expansion_tokens = records[min(records)]

    history: list[list[str]] = []
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            print("> ", end="", file=sys.stderr, flush=True)
            continue
        history.append(tokenize(line))
        example = DialogueExample(persona_sentences, list(history), ["placeholder"])
        bound = bind_example(example, model.vocab, expansion_tokens)
        response = model.generate(bound, mode=args.mode, beam_width=config.model.beam,
                                  max_len=config.model.max_len)
        print(detokenize(response), flush=True)
        history.append(response)
    return EXIT_OK


def _load_persona(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [tokenize(line) for line in handle if line.strip()]


if __name__ == "__main__":
    sys.exit(main())
