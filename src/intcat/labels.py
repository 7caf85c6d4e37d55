"""Canonical element labels.

Atoms are strings chosen by the user. Every constructed element is a nested
tuple: ``(x, y)`` for a pair, ``("inl", x)`` / ``("inr", y)`` for coproduct
injections, ``("fam", ((key, value), ...))`` for a function family with its
entries in ``sort_key`` order of the keys (``ambient.family_keys`` keeps that
order per stage), ``("pt", ((index_obj, value), ...))`` for a global element.
Equality of elements is structural equality of labels, so rebuilding a
construction from equal inputs yields identical labels.
"""

from __future__ import annotations

Label = "str | tuple"


def sort_key(label) -> str:
    """Total deterministic order on labels (atoms and tuples alike).

    The ``repr`` of a label, a string or a tuple of labels, is never a
    proper prefix of another label's ``repr``: a string's ends at its
    closing quote and a tuple's at its closing parenthesis. So two tuples
    of labels compare as their first differing entries do, which lets
    ``ambient.family_keys`` sort keys ``(u, x)`` by ``u`` and then by
    ``x`` without the ``repr`` of whole keys."""
    return repr(label)


def fam_in_order(items) -> tuple:
    """Function-family label from (key, value) pairs that already come in
    canonical key order."""
    return ("fam", tuple(items))


def fam_dict(label) -> dict:
    """The family label as a lookup table."""
    assert isinstance(label, tuple) and label[0] == "fam"
    return dict(label[1])
