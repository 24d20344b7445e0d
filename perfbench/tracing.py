"""Span tracing of personagen's layers, installed from outside the package.

A traced run replaces module attributes at the sites where callers look them
up (``personagen.net.decode_step``, ``personagen.trainer.backward``, ...) with
wrappers that record a span per call: name, start, end, parent span and the
benchmark operation it belongs to. Spans stay in memory and are written as
JSONL when the run ends. A layer's self time is its span time minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

# (module, attribute, span name). A name listed twice is wrapped at both call
# sites; both feed the same span name.
SPAN_SITES: tuple[tuple[str, str, str], ...] = (
    ("personagen.corpus", "load_personachat", "corpus.load_personachat"),
    ("personagen.corpus", "build_vocab", "corpus.build_vocab"),
    ("personagen.corpus", "compute_tfidf", "corpus.compute_tfidf"),
    ("personagen.net", "bind_example", "net.bind_example"),
    ("personagen.trainer", "train_dialogue_model", "trainer.train_dialogue_model"),
    ("personagen.trainer", "evaluate_loss", "trainer.evaluate_loss"),
    ("personagen.trainer", "backward", "numkit.backward"),
    ("personagen.trainer", "adam_step", "numkit.adam_step"),
    ("personagen.trainer", "clip_global_norm", "numkit.clip_global_norm"),
    ("personagen.net.DialogueModel", "example_loss", "trainer.example_loss"),
    ("personagen.net.DialogueModel", "generate", "net.generate"),
    ("personagen.net", "encode_persona", "net.encode_persona"),
    ("personagen.net", "encode_history", "net.encode_history"),
    ("personagen.net", "attend_history", "net.attend_history"),
    ("personagen.net", "decode_step", "net.decode_step"),
    ("personagen.net", "gru_cell", "numkit.gru_cell"),
    ("personagen.numkit.gru", "gru_cell", "numkit.gru_cell"),
    ("personagen.net", "build_memory", "memory.build_memory"),
    ("personagen.net", "persona_information_retrieval", "memory.persona_information_retrieval"),
    ("personagen.net", "multihop", "memory.multihop"),
    ("personagen.net", "nll_loss", "losses.nll_loss"),
    ("personagen.net", "p_match_loss", "losses.p_match_loss"),
    ("personagen.net", "p_bows_loss", "losses.p_bows_loss"),
    ("personagen.topic", "train_topic_model", "topic.train_topic_model"),
    ("personagen.topic", "backward", "topic.backward"),
    ("personagen.topic", "adam_step", "numkit.adam_step"),
    ("personagen.topic", "clip_global_norm", "numkit.clip_global_norm"),
    ("personagen.topic", "word_topic_vectors", "topic.word_topic_vectors"),
    ("personagen.expansion", "expand", "expansion.expand"),
    ("personagen.expansion", "nearest_words", "expansion.nearest_words"),
    ("personagen.metrics", "evaluate_corpus", "metrics.evaluate_corpus"),
)

# Called hundreds of thousands of times per conversation, so counted only:
# a span per call would cost more than the call itself.
COUNT_SITES: tuple[tuple[str, str, str], ...] = (
    ("personagen.expansion", "cosine", "expansion.cosine_calls"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    """Records nested spans and named counts for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = "setup"
        self._open: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self.clock(), 0.0,
                        self._open[-1] if self._open else None, self.op)
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if name == "numkit.backward":
                # the tape is backward's second argument
                self.counts["numkit.tape_records"] += len(args[1])
            return result
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> Callable[[], None]:
        """Wrap every site; returns a function that restores the originals."""
        originals = []
        for sites, make in ((SPAN_SITES, self.span), (COUNT_SITES, self.counter)):
            for module_name, attr, name in sites:
                owner = _resolve(module_name)
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

        def restore():
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
        return restore

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _resolve(dotted: str):
    """A module, or a class inside one (``personagen.net.DialogueModel``)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module_name), attr)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so children are disjoint sub-intervals of
    their parent and their durations add up to the covered part.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + (span.end - span.start)
    return {span.id: (span.end - span.start) - covered.get(span.id, 0.0) for span in spans}


@dataclass
class LayerTotals:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


def layer_totals(spans: list[Span], ops: Callable[[str], bool] = lambda op: True,
                 ) -> dict[str, LayerTotals]:
    """Inclusive time, self time and call count per span name, over the spans
    whose operation id satisfies ``ops``."""
    own = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        if not ops(span.op):
            continue
        entry = totals.setdefault(span.name, LayerTotals())
        entry.total_s += span.end - span.start
        entry.self_s += own[span.id]
        entry.calls += 1
    return totals
