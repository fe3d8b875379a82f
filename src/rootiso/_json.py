"""The one JSON spelling of every document rootiso prints or writes.

RFC 8259 has no token for a non-finite number, so ``strict`` turns each
non-finite float in nested dicts, lists and tuples into ``None`` (JSON
``null``), and ``dumps`` prints a document that ``strict`` has walked.
``dumps`` passes ``allow_nan=False``, so a non-finite value that reaches
it unwalked raises ValueError instead of printing ``Infinity`` or ``NaN``.
"""

import json
import math


def strict(obj):
    """``obj`` with every non-finite float replaced by None, and every
    tuple by a list (which JSON prints alike)."""
    if isinstance(obj, dict):
        return {k: strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dumps(doc, sort_keys: bool = False) -> str:
    """``doc``, walked by ``strict``, as JSON indented by two spaces, with a
    final newline."""
    return json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"
