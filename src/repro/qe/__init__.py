"""Quantifier elimination: the substitute for the paper's Theorem 3
(the imported bounded-expansion elimination), see :mod:`.materialize`."""

from .materialize import eliminate_quantifiers, existential_sentence_value

__all__ = ["eliminate_quantifiers", "existential_sentence_value"]
