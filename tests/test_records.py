"""Every frozen record is declared with ``ledger.record``: a frozen slotted
dataclass whose generated ``__init__`` behaves as the plain dataclass one.
Each payload kind's wire form is generated from its fields by ``ledger.payload``."""

from __future__ import annotations

import cProfile
import copy
import dataclasses
import importlib
import inspect
import json
import pickle
import pstats
from pathlib import Path

import pytest

import dice
from dice.channel import BalanceProof
from dice.ledger import (
    AgreementRegistration,
    AttachCheck,
    Block,
    ChannelClose,
    ChannelOpen,
    Issue,
    Redeem,
    Transaction,
    record,
)
from dice.tokenbank import Fixed, Parity, PerUnit

from helpers import record_of

H32 = bytes(range(32))
ISSUE = Issue("H", "w-0000001", 25)

# Per record class, a value for each of its fields.
SAMPLES = {
    Issue: ("H", "w-0000001", 25),
    AgreementRegistration: ("H", "V", ("H",), {"model": "per_unit", "rate": 0.04}),
    AttachCheck: ("w-0000001", "V", "H", True),
    ChannelOpen: ("ch-0000001", "w-0000001", "V", 25, H32, 604_800),
    ChannelClose: ("ch-0000001", 5, 20, 5),
    Redeem: ("V", "H", ("lot-0000001",), 0.2),
    Transaction: (H32, 5, "H", ISSUE, H32),
    Block: (1, H32, H32, "V", 60, H32, (Transaction(H32, 5, "H", ISSUE, H32),), ("H", "V"), {"H": H32}),
    BalanceProof: ("ch-0000001", 1, 1, H32, H32),
    PerUnit: (0.04,),
    Fixed: (100.0, 0.1),
    Parity: (20, 2.0),
}
RECORDS = list(SAMPLES)
ids = pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
PAYLOADS = [Issue, AgreementRegistration, AttachCheck, ChannelOpen, ChannelClose, Redeem]


def plain_twin(cls):
    """``cls``'s fields, declared with ``dataclass(frozen=True, slots=True)`` alone."""
    spec = []
    for f in dataclasses.fields(cls):
        kw = {}
        if f.default is not dataclasses.MISSING:
            kw["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            kw["default_factory"] = f.default_factory
        spec.append((f.name, f.type, dataclasses.field(**kw)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)


def values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def outcome(make):
    """What ``make()`` does: the values it builds, or the error it raises."""
    try:
        return "built", values(make())
    except Exception as exc:   # compared below: either side may raise anything
        return "raised", type(exc), str(exc)


def calls(cls):
    """Argument lists that build, or fail to build, a record of ``cls``."""
    args = SAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    kwargs = dict(zip(names, args))
    return [
        (args, {}),
        ((), kwargs),
        (args[:1], dict(list(kwargs.items())[1:])),
        ((), {}),                               # missing arguments (none for Parity)
        (args[:-1], {}),                        # the last one missing, or defaulted
        (args + (0,), {}),                      # one too many
        (args, {"bogus": 1}),                   # unexpected keyword
        (args, {names[0]: args[0]}),            # given twice
    ]


@ids
def test_construction_matches_the_plain_dataclass(cls):
    twin = plain_twin(cls)
    for args, kwargs in calls(cls):
        ours = outcome(lambda: cls(*args, **kwargs))
        assert ours == outcome(lambda: twin(*args, **kwargs)), (args, kwargs)
    assert outcome(lambda: cls(*SAMPLES[cls])) == ("built", list(SAMPLES[cls]))


@ids
def test_missing_or_unexpected_arguments_raise_type_error(cls):
    args = SAMPLES[cls]
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*args, 0)
    if any(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
           for f in dataclasses.fields(cls)):
        with pytest.raises(TypeError, match="missing"):
            cls()


@ids
def test_signature_fields_repr_eq_and_hash_match_the_plain_dataclass(cls):
    twin = plain_twin(cls)
    args = SAMPLES[cls]
    ours, theirs = cls(*args), twin(*args)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__doc__ == twin.__doc__ or cls is Parity   # Parity has a docstring of its own

    def spec(f):
        return (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only)

    assert [spec(f) for f in dataclasses.fields(cls)] == [spec(f) for f in dataclasses.fields(twin)]
    assert repr(ours) == repr(theirs)
    assert ours == cls(*args) and ours != theirs
    first, marker = dataclasses.fields(cls)[0].name, object()
    changed = dataclasses.replace(ours, **{first: marker})
    assert changed != ours and values(changed) == [marker, *args[1:]]
    assert values(dataclasses.replace(ours)) == values(ours)
    assert outcome(lambda: [hash(ours)]) == outcome(lambda: [hash(theirs)])


@ids
def test_records_are_frozen_and_slotted(cls):
    rec = cls(*SAMPLES[cls])
    assert not hasattr(rec, "__dict__")
    assert cls.__dataclass_params__.frozen
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, f.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, f.name)
    # No slot holds a new name.  (Python 3.11's frozen slotted dataclasses
    # raise TypeError here, not FrozenInstanceError, plain ones included.)
    with pytest.raises((AttributeError, TypeError)):
        rec.bogus = 0
    assert values(rec) == list(SAMPLES[cls])


@ids
def test_pickle_and_deepcopy_round_trip(cls):
    rec = cls(*SAMPLES[cls])
    for copied in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(copied) is cls and copied == rec and copied is not rec


@pytest.mark.parametrize("cls", PAYLOADS, ids=[cls.__name__ for cls in PAYLOADS])
def test_payload_wire_form_round_trips_in_field_order(cls):
    p = cls(*SAMPLES[cls])
    wire = json.loads(p.to_json())
    assert wire == record_of(p)
    assert list(wire) == ["kind", *(f.name for f in dataclasses.fields(cls))]
    assert cls.from_fields(wire) == p


def test_generated_methods_of_two_classes_profile_apart():
    """cProfile keys its stats by (file, line, name), so each class compiles
    its generated methods under a file name of its own."""
    profile = cProfile.Profile()
    profile.runcall(lambda: [p.to_json() for p in (Issue(*SAMPLES[Issue]), ChannelClose(*SAMPLES[ChannelClose]))])
    calls = sorted((file, name, n) for (file, _line, name), (_cc, n, *_) in pstats.Stats(profile).stats.items()
                   if name in ("__init__", "to_json"))
    assert calls == [(f"<generated dice.ledger.{cls}>", name, 1)
                     for cls in ("ChannelClose", "Issue") for name in ("__init__", "to_json")]


def test_block_keys_default_to_none():
    """Only genesis holds a key registry."""
    header = SAMPLES[Block][:6]
    assert Block(*header).keys is None
    keys = {"H": H32}
    assert Block(*header, keys=keys).keys is keys


def test_record_rejects_what_its_init_does_not_generate():
    with pytest.raises(TypeError):
        @record
        class Later:
            a: int

            def __post_init__(self):
                pass
    with pytest.raises(TypeError):
        @record
        class KeywordOnly:
            a: int = dataclasses.field(kw_only=True)
    with pytest.raises(TypeError):
        @record
        class Factory:
            a: dict = dataclasses.field(default_factory=dict)


def test_every_frozen_record_is_declared_with_record():
    """One way to declare an immutable record, and each one is tested above."""
    src = Path(dice.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "@dataclass(frozen=True" in p.read_text()] == []
    frozen = set()
    for path in src.glob("*.py"):
        module = importlib.import_module(f"dice.{path.stem}") if path.stem != "__init__" else dice
        frozen |= {obj for obj in vars(module).values()
                   if isinstance(obj, type) and obj.__module__ == module.__name__
                   and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen}
    assert frozen == set(RECORDS)
