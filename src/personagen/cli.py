"""Command-line entry point.

Subcommands: pretrain-topic, expand, train, generate, eval, chat. All
structured outputs are line-delimited JSON records; inputs are UTF-8 text.
Exit codes: 0 success, 1 internal error or a reader that closed stdout early
(with nothing on stderr), 2 user/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict
from typing import Iterator

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
from .net import BoundExample, DialogueModel, bind_example
from .topic import TopicModel, TopicTrainConfig, train_topic_model, word_topic_vectors
from .trainer import train_dialogue_model

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


class UserError(Exception):
    """Input or configuration problem attributable to the caller."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is left to devnull, so
        # the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except (UserError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ckpt.CheckpointError) as err:
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
    p.add_argument("--valid-expansions",
                   help="expansion records for the validation file (paths.valid)")
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
        try:
            config.check_bounds()
        except ValueError as err:
            raise UserError(f"--seed: {err}") from err
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


def _load_exchanges(path, what: str) -> list[Conversation]:
    """The conversations of ``path``, which must hold at least one exchange
    line: one ``what`` example."""
    conversations = _read_input(load_personachat, path)
    if not any(c.examples for c in conversations):
        raise UserError(f"{path}: no {what} examples (no exchange lines)")
    return conversations


def _write_jsonl(path, records) -> None:
    """One JSON line per record, to ``path``, or to stdout when it is None."""
    out = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        for record in records:
            out.write(json.dumps(record) + "\n")
    finally:
        if path:
            out.close()


def _trace_path(args) -> str:
    """``--trace``, by default ``<out>.trace.jsonl``."""
    return args.trace or f"{args.out}.trace.jsonl"


def _check_outputs(*paths) -> None:
    """Raise UserError unless a file can be made at each of ``paths``: none
    is a directory, and each one's parent is, so that a run does not train
    only to fail at its save."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise UserError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise UserError(f"cannot write {path}: {parent} is not a directory")


# ---------------------------------------------------------------------------
# pretrain-topic
# ---------------------------------------------------------------------------


def cmd_pretrain_topic(args) -> int:
    config = _load_config(args)
    _check_outputs(args.out, _trace_path(args))
    paths = list(config.paths.topic_corpora) + list(args.corpus)
    if config.paths.train:
        paths.insert(0, config.paths.train)
    if not paths:
        raise UserError("no corpus: set paths.train/paths.topic_corpora in the config or pass --corpus")
    conversations: list[Conversation] = []
    for path in paths:
        conversations.extend(_read_input(load_personachat, path))
    if not conversations:
        raise UserError("corpora contain no conversations")
    documents = [conversation_document(c) for c in conversations]
    vocab = build_vocab(documents, config.topic.vocab_size, remove_stopwords=True)
    docs = compute_tfidf(documents, vocab)
    model, trace = train_topic_model(
        docs, vocab, TopicTrainConfig(**asdict(config.topic), seed=config.seed))
    ckpt.save_model(args.out, "topic", model, config.to_dict())
    _write_jsonl(_trace_path(args), ({"epoch": epoch, "loss": loss} for epoch, loss in trace))
    print(f"wrote {args.out} ({len(docs)} documents, {len(vocab)} vocab entries)")
    return EXIT_OK


def _load_model(path, kind: str, build) -> tuple:
    """(model, saved config) of the ``kind`` checkpoint at ``path``, the
    model ``build(vocab, saved config)`` with the saved parameters read
    straight into it."""
    config = None

    def build_saved(loaded: ckpt.Checkpoint):
        nonlocal config
        try:
            config = Config.from_dict(loaded.config)
        except ValueError as err:
            raise UserError(f"{path}: saved config: {err}") from err
        return build(loaded.vocab, config)

    model, _ = ckpt.load_model(path, kind, build_saved)
    return model, config


def _load_topic_model(path) -> TopicModel:
    model, _ = _load_model(path, "topic", lambda vocab, config: TopicModel(
        vocab, config.topic.topics, config.topic.hidden, np.random.default_rng(0)))
    return model


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    config = _load_config(args)
    model = _load_topic_model(args.topic)
    conversations = _read_input(load_personachat, args.data)
    vectors = word_topic_vectors(model)

    def record(i: int, conv: Conversation) -> dict:
        words = []
        if conv.examples:
            result = expand(conv.examples[0], vectors,
                            config.expansion.neighbors, config.expansion.max_words, source=i)
            words = [[token, score] for token, score in result.words]
        return {"conversation": i, "words": words}

    _write_jsonl(args.out, (record(i, conv) for i, conv in enumerate(conversations)))
    print(f"wrote {args.out} ({len(conversations)} records)")
    return EXIT_OK


def load_expansion_records(path) -> dict[int, list[str]] | None:
    """Expansion tokens by conversation from the JSONL records ``expand``
    writes: ``{"conversation": int, "words": [[token, score], ...]}``; None
    when no ``path`` is given."""
    return _read_input(_parse_expansion_records, path) if path else None


def _parse_expansion_records(path) -> dict[int, list[str]]:
    records: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as err:
                raise InputFormatError(number, f"expansion record is not JSON ({err})") from err
            if not isinstance(record, dict) or type(record.get("conversation")) is not int:
                raise InputFormatError(number, "expansion record is not an object "
                                       "with an integer \"conversation\"")
            words = record.get("words")
            if not isinstance(words, list) or not all(map(_is_word_pair, words)):
                raise InputFormatError(number, "\"words\" is not a list of [token, score] pairs")
            if record["conversation"] in records:
                raise InputFormatError(number, "a second expansion record for "
                                       f"conversation {record['conversation']}")
            records[record["conversation"]] = [token for token, _ in words]
    return records


def _is_word_pair(word) -> bool:
    return (isinstance(word, list) and len(word) == 2 and isinstance(word[0], str)
            and type(word[1]) in (int, float))


def _bind_conversations(conversations: list[Conversation], vocab: Vocabulary,
                        expansions: dict[int, list[str]] | None
                        ) -> Iterator[tuple[int, BoundExample]]:
    """(conversation index, bound example) for each example of
    ``conversations`` in order, bound to its conversation's expansion record.
    Warns once for each conversation that ``expansions`` leaves out."""
    for i, conv in enumerate(conversations):
        tokens = None if expansions is None else expansions.get(i)
        if expansions is not None and tokens is None:
            print(f"warning: no expansion record for conversation {i}; "
                  "external persona memory will be empty", file=sys.stderr)
        for example in conv.examples:
            yield i, bind_example(example, vocab, tokens)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = _load_config(args)
    _check_outputs(args.out, _trace_path(args))
    if not config.paths.train:
        raise UserError("config paths.train is required")
    if args.valid_expansions and not config.paths.valid:
        raise UserError("--valid-expansions given but the config sets no paths.valid")
    train_conversations = _load_exchanges(config.paths.train, "training")
    valid_conversations = (_load_exchanges(config.paths.valid, "validation")
                           if config.paths.valid else [])
    expansions = load_expansion_records(args.expansions)
    valid_expansions = load_expansion_records(args.valid_expansions)
    if expansions is not None and config.paths.valid and valid_expansions is None:
        print("warning: --expansions given but not --valid-expansions; validation examples "
              "get an empty external persona memory", file=sys.stderr)

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
    train_examples = [b for _, b in _bind_conversations(train_conversations, vocab, expansions)]
    valid_examples = [b for _, b in _bind_conversations(valid_conversations, vocab,
                                                        valid_expansions)]

    def log(record):
        print(f"epoch {record.epoch}: train {record.train_loss:.4f}"
              + (f", valid {record.valid_loss:.4f}" if record.valid_loss is not None else ""))

    result = train_dialogue_model(model, train_examples, valid_examples, config.losses,
                                  config.model, rng, log=log)
    ckpt.save_model(args.out, "dialogue", model, config.to_dict(),
                    extra={"best_valid": result.best_valid})
    _write_jsonl(_trace_path(args), map(asdict, result.trace))
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_dialogue_model(args) -> tuple[DialogueModel, Config]:
    """The model in ``--checkpoint``, with the config saved beside it unless
    ``--config`` overrides it."""
    config_cli = _load_config(args)
    model, config = _load_model(args.checkpoint, "dialogue", lambda vocab, config: DialogueModel(
        vocab, config.model.emb_dim, config.model.hidden, config.model.hops,
        np.random.default_rng(0)))
    return model, config_cli if args.config else config


# ---------------------------------------------------------------------------
# generate / eval / chat
# ---------------------------------------------------------------------------


def _generated(model: DialogueModel, config: Config, conversations: list[Conversation],
               expansions: dict[int, list[str]] | None, mode: str, diagnostics: bool = False):
    """(conversation index, example, response, diagnostics or None) for each
    example that ``_bind_conversations`` binds, decoded with the config's beam
    width and length."""
    for i, bound in _bind_conversations(conversations, model.vocab, expansions):
        result = model.generate(bound, mode=mode, beam_width=config.model.beam,
                                max_len=config.model.max_len, collect_diagnostics=diagnostics)
        response, diag = result if diagnostics else (result, None)
        yield i, bound.example, response, diag


def cmd_generate(args) -> int:
    model, config = _load_dialogue_model(args)
    conversations = _read_input(load_personachat, args.data)
    expansions = load_expansion_records(args.expansions)

    def records():
        for index, (i, _, response, diag) in enumerate(
                _generated(model, config, conversations, expansions, args.mode, args.diagnostics)):
            yield {"conversation": i, "example": index, "response": detokenize(response),
                   **(diag or {})}

    _write_jsonl(args.out, records())
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.out:
        _check_outputs(args.out)
    model, config = _load_dialogue_model(args)
    conversations = _load_exchanges(args.data, "evaluation")
    expansions = load_expansion_records(args.expansions)

    table: EmbeddingTable | None = None
    if config.paths.embeddings:
        # the metrics look up only candidate (model-vocabulary) and reference tokens
        wanted = set(model.vocab.index_to_token).union(
            token for conv in conversations for example in conv.examples
            for token in example.response)
        table = _read_input(load_embeddings, config.paths.embeddings, wanted)

    candidates: list[list[str]] = []
    references: list[list[str]] = []
    responses: dict[int, list[list[str]]] = {}
    for i, example, response, _ in _generated(model, config, conversations, expansions,
                                              args.mode):
        candidates.append(response)
        references.append(example.response)
        responses.setdefault(i, []).append(response)
    per_conversation = [(conversations[i].persona_sentences, conv_responses)
                        for i, conv_responses in responses.items()]

    report = evaluate_corpus(candidates, references, table, per_conversation)
    _write_jsonl(args.out, [report.to_record()])
    return EXIT_OK


def cmd_chat(args) -> int:
    model, config = _load_dialogue_model(args)
    persona_sentences = _read_input(_load_persona, args.persona)
    if not persona_sentences:
        raise UserError(f"{args.persona}: no persona sentences")
    expansion_tokens = next(iter((load_expansion_records(args.expansions) or {}).values()), [])

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
