"""Test helpers for pbrlab's immutable records."""


def replace(record, **changes):
    """A copy of `record` with the named fields changed; an unknown field
    raises TypeError, as the record's constructor does."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})
