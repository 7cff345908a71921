"""OpCounters arithmetic covers every declared counter."""

from dataclasses import fields

from repro.core.counters import OpCounters


def test_add_and_delta_cover_every_counter():
    names = [f.name for f in fields(OpCounters)]
    ones = OpCounters(**{name: 1 for name in names})
    total = OpCounters(**{name: i for i, name in enumerate(names, start=2)})
    total.add(ones)
    assert total.as_dict() == {name: i + 1 for i, name in enumerate(names, start=2)}
    assert total.delta(ones).as_dict() == {
        name: i for i, name in enumerate(names, start=2)
    }
    assert (total + ones).as_dict() == {
        name: i + 2 for i, name in enumerate(names, start=2)
    }
