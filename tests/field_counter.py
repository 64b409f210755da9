"""Count the QNum operations a piece of code makes."""

from rectadd.numeric import QNum


def count_field_calls(monkeypatch, *names: str) -> list:
    """Patch the named QNum operators to record each call; the returned
    list grows by one per call until the monkeypatch is undone."""
    calls = []
    for name in names:
        op = getattr(QNum, name)

        def counting(self, other, op=op):
            calls.append(op)
            return op(self, other)

        monkeypatch.setattr(QNum, name, counting)
    return calls


def count_field_additions(monkeypatch) -> list:
    """Count QNum additions and subtractions."""
    return count_field_calls(monkeypatch, "__add__", "__sub__")
