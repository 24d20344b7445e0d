"""Fixed English stop-word list used for vocabulary filtering and overlap tests.

Pinned here (rather than pulled from a library) so that persona-word sets,
tf-idf vocabularies and Jaccard labels are reproducible across environments.
Punctuation-only tokens are treated as stop tokens as well.
"""

from __future__ import annotations

import string

STOPWORDS = frozenset("""
a about above after again against ain all am an and any are aren as at be
because been before being below between both but by can cannot could couldn
d did didn do does doesn doing don down during each few for from further had
hadn has hasn have haven having he her here hers herself him himself his how
i if in into is isn it its itself just ll m ma me might mightn more most must
mustn my myself need needn no nor not now o of off on once only or other
ought our ours ourselves out over own re s same shall shan she should shouldn
so some such t than that the their theirs them themselves then there these
they this those through to too under until up ve very was wasn we were weren
what when where which while who whom why will with won would wouldn y you
your yours yourself yourselves
""".split())


def is_stopword(token: str) -> bool:
    """True for listed function words and punctuation-only tokens (a
    non-empty token that stripping ASCII punctuation empties)."""
    if token in STOPWORDS:
        return True
    return bool(token) and not token.strip(string.punctuation)


def content_words(sentences: list[list[str]]) -> set[str]:
    """The distinct non-stop-word tokens of ``sentences``: the persona
    content words that P-Match, P-BoWs, expansion and the use ratio read."""
    return {t for s in sentences for t in s if not is_stopword(t)}
