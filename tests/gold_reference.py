"""A frozen copy of how ``corpus.parse_gold`` split an '@trigger' tag off an
inference line before it used ``str.rpartition``: one lazy regex.
``test_properties.py`` checks that ``parse_gold`` splits every line alike."""

from __future__ import annotations

import re

_TRIGGER_TAG = re.compile(r"^(.*?)\s*@([\w.:-]+)\s*$")


def split_tag(body: str) -> tuple[str, str | None]:
    """(text, trigger) of an inference line's stripped text after '>>'."""
    m = _TRIGGER_TAG.match(body)
    if m:
        return m.group(1).strip(), m.group(2)
    return body, None
