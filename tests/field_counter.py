"""Count the QNum additions and subtractions a piece of code makes."""

from rectadd.numeric import QNum


def count_field_additions(monkeypatch) -> list:
    """Patch QNum.__add__ and __sub__ to record each call; the returned
    list grows by one per call until the monkeypatch is undone."""
    calls = []
    for name in ("__add__", "__sub__"):
        op = getattr(QNum, name)

        def counting(self, other, op=op):
            calls.append(op)
            return op(self, other)

        monkeypatch.setattr(QNum, name, counting)
    return calls
