"""One serializer for every report: a dataclass becomes a JSON-ready dict.

A report's keys are its dataclass fields in declaration order, which is
therefore the key order of ``--json`` output.  A derived verdict that the
dict carries, such as ``ok``, is a field with ``init=False`` set in
``__post_init__``, declared where its key goes.
"""

from __future__ import annotations

from dataclasses import fields


class Report:
    """Mixin for report dataclasses: ``to_dict`` lists the fields in order."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(v):
    """A nested report becomes its dict, a tuple or list a list, a dict key a str."""
    if isinstance(v, Report):
        return v.to_dict()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k if isinstance(k, str) else str(k): _plain(x) for k, x in v.items()}
    return v
