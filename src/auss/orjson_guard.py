"""Where orjson's bytes may differ from the json module's, and floats spelled by orjson.

orjson spells most values as ``json.dumps`` does, and a finite float as
``repr`` does: both give the shortest text that reads back as the same
double. The exceptions are few and visible in orjson's output: an
exponent (``1e16`` for ``1e+16``; ``5e-324`` is guarded although both
agree), a float below 1e-4 written out (``0.00001`` for ``1e-05``),
``null`` (also NaN and ±inf), and U+007F or non-ASCII characters written
raw. :func:`hits` finds each of them, so a writer can take orjson's bytes
where none is found and fall back to the json module's spelling where one
is.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterable, Sequence

_EXPONENT = re.compile(rb"e[-0-9]")
_RAW = re.compile(rb"[\x7f-\xff]")
_SPELLED_OUT = (b"null", b"0.0000")


def hits(text: bytes) -> list[int]:
    """Offsets in orjson's ``text`` of every spelling that may differ from json's."""
    found = [match.start() for match in _EXPONENT.finditer(text)]
    if not text.isascii() or b"\x7f" in text:
        found += [match.start() for match in _RAW.finditer(text)]
    for pattern in _SPELLED_OUT:
        at = text.find(pattern)
        while at >= 0:
            found.append(at)
            at = text.find(pattern, at + 1)
    return found


def items_hit(lengths: Iterable[int], found: Iterable[int]) -> set[int]:
    """Indexes of the items, ``lengths`` bytes each and laid end to end,
    that hold an offset in ``found``."""
    ends = list(accumulate(lengths))
    return {bisect_right(ends, at) for at in found}


def spell_floats(values: Sequence[float], spell: Callable[[float], str]) -> list[str]:
    """``[spell(v) for v in values]`` for ``repr`` or ``json.dumps``, which
    agree on a finite float, from one ``orjson.dumps`` of the list: a value
    whose orjson spelling :func:`hits` guards is spelled by ``spell``.
    ``values`` must be Python floats."""
    if not values:
        return []
    import orjson  # imported here so that ``import auss`` does not pay for it

    body = orjson.dumps(values)[1:-1]
    spelled = body.decode("ascii").split(",")
    found = hits(body)
    if found:
        for i in items_hit((len(text) + 1 for text in spelled), found):  # each with its comma
            spelled[i] = spell(values[i])
    return spelled
