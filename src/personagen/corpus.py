"""Dialogue corpus ingestion: tokenization, Persona-Chat files, vocabularies,
tf-idf document vectors, and pretrained word embeddings.

File format expected by :func:`load_personachat`: every line starts with an
integer index and a space. ``<n> your persona: <sentence>`` declares a persona
sentence of the responding speaker; other lines are exchanges
``<n> <partner utterance>\t<target utterance>`` (further tab-separated fields
are ignored). An index of 1 starts a new conversation. Lines beginning with
``partner's persona:`` are recognized and skipped. Files are UTF-8.
"""

from __future__ import annotations

import re
import string
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Container

import numpy as np

from .stopwords import is_stopword

PAD, UNK, SOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<sos>", "<eos>")

_PUNCTUATION = re.compile(f"[{re.escape(string.punctuation)}]")


def tokenize(text: str) -> list[str]:
    """Lowercase, pad each ASCII punctuation character with spaces, then
    whitespace-split, so each punctuation character stands alone. Empty text
    gives an empty list.

    Tokens are interned, so a corpus holds one string per distinct token and
    a pointer per occurrence."""
    padded = _PUNCTUATION.sub(lambda match: f" {match[0]} ", text.lower())
    return list(map(sys.intern, padded.split()))


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


@dataclass
class Vocabulary:
    """Bidirectional token/index map with reserved specials at indices 0-3."""

    index_to_token: list[str]
    token_to_index: dict[str, int]

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        index_to_token = list(RESERVED_TOKENS) + list(tokens)
        token_to_index = {tok: i for i, tok in enumerate(index_to_token)}
        if len(token_to_index) != len(index_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        return cls(index_to_token, token_to_index)

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def token(self, index: int) -> str:
        return self.index_to_token[index]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_index.get(t, UNK) for t in tokens]


@dataclass
class DialogueExample:
    """One training unit: persona sentences, dialogue history, target response."""

    persona_sentences: list[list[str]]
    history: list[list[str]]
    response: list[str]


@dataclass
class Conversation:
    persona_sentences: list[list[str]] = field(default_factory=list)
    utterances: list[list[str]] = field(default_factory=list)
    examples: list[DialogueExample] = field(default_factory=list)


class InputFormatError(ValueError):
    """A malformed input file; ``line_no`` is None when no one line is at fault."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def load_personachat(path) -> list[Conversation]:
    """Parse a Persona-Chat-format file into conversations.

    Each conversation's exchange lines are expanded into one DialogueExample
    per target turn: the example's history contains every utterance before the
    target, in order.
    """
    conversations: list[Conversation] = []
    current: Conversation | None = None

    def flush():
        if current is None:
            return
        if current.utterances and not current.persona_sentences:
            raise InputFormatError(flush_line, "conversation has utterances but no persona lines")
        for t in range(1, len(current.utterances), 2):
            current.examples.append(DialogueExample(
                persona_sentences=current.persona_sentences,
                history=current.utterances[:t],
                response=current.utterances[t],
            ))
        conversations.append(current)

    flush_line = 0
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                raise InputFormatError(line_no, "blank line")
            head, sep, rest = line.partition(" ")
            if not sep or not (head.isascii() and head.isdigit()):
                raise InputFormatError(line_no, f"malformed line index {head!r}")
            if int(head) == 1:
                flush()
                flush_line = line_no
                current = Conversation()
            if current is None:
                raise InputFormatError(line_no, "file does not start with line index 1")
            if rest.startswith("your persona: "):
                sentence = tokenize(rest[len("your persona: "):])
                if sentence:
                    current.persona_sentences.append(sentence)
            elif rest.startswith("partner's persona: "):
                continue
            else:
                parts = rest.split("\t")
                if len(parts) < 2:
                    raise InputFormatError(line_no, "exchange line missing tab separator")
                current.utterances.append(tokenize(parts[0]))
                current.utterances.append(tokenize(parts[1]))
        flush()
    return conversations


def conversation_document(conv: Conversation) -> list[str]:
    """All tokens of one conversation (personas plus utterances), for use as a
    single topic-model document."""
    doc: list[str] = []
    for sentence in conv.persona_sentences:
        doc.extend(sentence)
    for utterance in conv.utterances:
        doc.extend(utterance)
    return doc


def build_vocab(corpus, size_limit: int, remove_stopwords: bool = False) -> Vocabulary:
    """Most frequent tokens up to ``size_limit`` total entries (reserved
    specials included). Ties break lexicographically; stop-words (and
    punctuation tokens) are removed first when flagged."""
    if size_limit <= len(RESERVED_TOKENS):
        raise ValueError(f"size_limit must exceed {len(RESERVED_TOKENS)}")
    counts: dict[str, int] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    if remove_stopwords:
        counts = {t: c for t, c in counts.items() if not is_stopword(t)}
    capacity = size_limit - len(RESERVED_TOKENS)
    # two stable sorts: by token, then by falling count
    ranked = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return Vocabulary.from_tokens(ranked[:capacity])


@dataclass
class TfIdfDoc:
    """Sparse non-negative weight vector over a vocabulary."""

    weights: dict[int, float]


def compute_tfidf(documents: list[list[str]], vocab: Vocabulary) -> list[TfIdfDoc]:
    """weight(w, d) = count(w, d) * log(N / (1 + df(w))), clamped at zero.

    Only tokens present in ``vocab`` contribute; document frequency is taken
    over the documents passed in, so the result depends only on the multiset
    of documents.
    """
    n_docs = len(documents)
    token_to_index = vocab.token_to_index
    doc_counts: list[Counter[int]] = []
    df: Counter[int] = Counter()
    for tokens in documents:
        counts = Counter(map(token_to_index.get, tokens))
        counts.pop(None, None)   # the out-of-vocabulary tokens
        doc_counts.append(counts)
        df.update(counts.keys())
    doc_freq = np.fromiter(df.values(), np.float64, len(df))
    idf = dict(zip(df, np.log(n_docs / (1.0 + doc_freq)).tolist()))
    return [TfIdfDoc({index: weight for index, count in counts.items()
                      if (weight := count * idf[index]) > 0.0})
            for counts in doc_counts]


@dataclass
class EmbeddingTable:
    """token -> fixed-dimension real vector."""

    dim: int
    vectors: dict[str, np.ndarray]


def load_embeddings(path, keep: Container[str] | None = None) -> EmbeddingTable:
    """Read a text embedding file (token followed by its vector components).

    Every line is checked, kept or not: a malformed or non-finite component
    names its line. When ``keep`` is given (a vocabulary or a set of tokens)
    only the tokens in it are kept; tokens missing from the file are simply
    absent from the table.
    """
    dim: int | None = None
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            parts = raw.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                if not values:
                    raise InputFormatError(line_no, "no vector components")
                dim = len(values)
            elif len(values) != dim:
                raise InputFormatError(
                    line_no, f"expected {dim} components, got {len(values)}")
            try:
                vector = np.array(values, dtype=np.float64)
            except ValueError as err:
                raise InputFormatError(line_no, str(err)) from err
            if not np.isfinite(vector).all():
                raise InputFormatError(line_no, f"non-finite component in {token!r}'s vector")
            if keep is None or token in keep:
                vectors[token] = vector
    if dim is None:
        raise InputFormatError(None, "embedding file is empty")
    return EmbeddingTable(dim, vectors)
