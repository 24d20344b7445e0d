"""Seeded synthetic corpus shaped like Persona-Chat.

Each conversation has 4-5 persona sentences of about 7 tokens and 6-8
exchanges of two utterances of about 12 tokens. Content words are drawn from
a Zipf distribution over a pseudo-word lexicon; about 40 % of all tokens are
stop-words from ``personagen.stopwords.STOPWORDS``. The text is written in
the dialogue-file format that ``personagen.corpus.load_personachat`` reads,
so the program under test only ever sees the generated file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
ZIPF_EXPONENT = 1.0
STOPWORD_SHARE = 0.4


@dataclass(frozen=True)
class CorpusShape:
    conversations: int = 1000
    lexicon: int = 60000


def pseudo_words(count: int, rng: np.random.Generator, stopwords: frozenset[str]) -> list[str]:
    """``count`` distinct three-syllable lowercase words, none a stop-word."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    n = len(syllables)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        for code in rng.choice(n ** 3, size=count - len(words), replace=False):
            word = syllables[code // (n * n)] + syllables[(code // n) % n] + syllables[code % n]
            if word not in seen and word not in stopwords:
                seen.add(word)
                words.append(word)
    return words


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def persona_chat_text(seed: int, shape: CorpusShape, stopwords: frozenset[str]) -> str:
    """Dialogue-file text for ``shape.conversations`` conversations."""
    rng = np.random.default_rng(seed)
    lexicon = pseudo_words(shape.lexicon, rng, stopwords)
    stop_list = sorted(stopwords)
    rng.shuffle(stop_list)
    content_p = _zipf_probs(len(lexicon), ZIPF_EXPONENT)
    stop_p = _zipf_probs(len(stop_list), ZIPF_EXPONENT)

    # draw every sentence length first, then all tokens in two vectorised calls
    layout = []
    total = 0
    for _ in range(shape.conversations):
        persona = rng.integers(5, 10, size=rng.integers(4, 6)).tolist()
        exchanges = rng.integers(8, 17, size=(rng.integers(6, 9), 2)).tolist()
        layout.append((persona, exchanges))
        total += sum(persona) + sum(a + b for a, b in exchanges)
    is_stop = rng.random(total) < STOPWORD_SHARE
    content = rng.choice(len(lexicon), size=total, p=content_p)
    stops = rng.choice(len(stop_list), size=total, p=stop_p)
    tokens = [stop_list[s] if flag else lexicon[c]
              for flag, c, s in zip(is_stop.tolist(), content.tolist(), stops.tolist())]

    lines: list[str] = []
    pos = 0

    def take(n: int) -> str:
        nonlocal pos
        pos += n
        return " ".join(tokens[pos - n:pos])

    for persona, exchanges in layout:
        index = 1
        for n in persona:
            lines.append(f"{index} your persona: {take(n)}")
            index += 1
        for a, b in exchanges:
            lines.append(f"{index} {take(a)}\t{take(b)}")
            index += 1
    return "\n".join(lines) + "\n"
