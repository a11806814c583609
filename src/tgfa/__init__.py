"""tgfa: Tajik-Cyrillic / Perso-Arabic transliteration toolkit.

Script normalization, contextual-marker tokenization, a lattice baseline
transliterator with character n-gram rescoring, corpus utilities, and an
evaluation suite (chrF, chrF++, CER, normalized CER, sequence accuracy).

Import from the submodules (``tgfa.script``, ``tgfa.tokenizer``,
``tgfa.corpus``, ``tgfa.translit``, ``tgfa.metrics``); each module's
``__all__`` is its public API.
"""

__version__ = "0.1.0"
