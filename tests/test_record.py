"""The frozen ``Record`` base, held to a frozen dataclass: each record class
is compared with a ``dataclasses.make_dataclass`` mirror built from the
same fields and defaults."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import satqlink
from satqlink import afc, config, geometry, linkbudget, scenario, skr, spindyn
from satqlink.domain import Record, replace


def _arguments(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


_BASELINE = config.scenario_config(config.RunConfig())

# Per record class: the arguments of one valid instance (hashable values, so
# that hashes can be compared), one valid change, and one out-of-domain
# change (None where the class validates nothing).
_CASES = {
    config.RunConfig: ({}, {"eta_mem": 0.5}, None),
    geometry.OrbitalConfig: (_arguments(_BASELINE.orbit), {"altitude": 600.0}, {"altitude": -1.0}),
    linkbudget.OpticalLinkParams: (
        _arguments(_BASELINE.link), {"pointing_jitter_rms": 2e-6}, {"detector_efficiency": 2.0}),
    skr.QKDParams: (_arguments(_BASELINE.qkd), {"mode_count": 7}, {"mode_count": 0}),
    scenario.ScenarioConfig: (
        _arguments(_BASELINE), {"orbit": replace(_BASELINE.orbit, altitude=600.0)}, {"eta_mem": 2.0}),
    scenario.ScenarioResult: (
        {"eta_dual": 4e-5, "eta_buffered": 4.7e-3, "skr_dual": 1.0, "skr_buffered": 2.0,
         "gain": 2.0, "t_buffer": 100.0, "feasible": True},
        {"feasible": False}, None),
    afc.AFCParams: ({}, {"tooth_width": 24e6}, {"tooth_width": 0.0}),
    afc.ControlPulse: ({}, {"duration": 1e-6}, {"duration": -1.0}),
    spindyn.EnsembleParams: (
        _arguments(config.ensemble_params(config.RunConfig(), "paper-literal")),
        {"noble_decay": 1e-6}, {"alkali_decay": math.inf}),
    spindyn.SpinFieldState: (
        {"optical": (0j, 0j), "alkali": (1 + 0j, 0j), "noble": (0j, 0j)},
        {"noble": (0j, 1j)}, {"noble": (0j,)}),
    spindyn.ProtocolSchedule: ({}, {"exchange_window": 4.0}, {"exchange_window": -1.0}),
    spindyn.Trajectory: (
        {"times": (0.0, 1.0), "optical": ((0j,), (0j,)), "alkali": ((1 + 0j,), (0j,)),
         "noble": ((0j,), (1j,))},
        {"times": (0.0, 2.0)}, None),
    spindyn.ProtocolResult: (
        {"times": (0.0,), "radii_over_r": (0.5,), "kymograph_alkali": ((1.0,),),
         "kymograph_noble": ((0.0,),), "eta_mem": 0.9},
        {"eta_mem": 0.8}, None),
}
_CLASSES = list(_CASES)
_VALIDATED = [cls for cls, (_, _, bad) in _CASES.items() if bad is not None]
_WITH_REQUIRED = [cls for cls in _CLASSES if set(cls._fields) - set(vars(cls))]


def _field_nodes() -> dict:
    """Class name -> the annotated assignments, in order, of every Record
    subclass in src/satqlink, read from the source rather than the class."""
    found = {}
    for path in Path(satqlink.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                found[node.name] = [f for f in node.body
                                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return found


def _annotated_fields() -> dict:
    """Class name -> annotated attribute names, in order, of every Record subclass."""
    return {name: [f.target.id for f in fields] for name, fields in _field_nodes().items()}


def test_only_the_run_config_states_the_operating_point():
    # RunConfig's defaults are the baseline operating point, and the packs
    # built from it have none; the three others hold values that no other
    # module states.
    defaulted = {name for name, fields in _field_nodes().items() if any(f.value is not None for f in fields)}
    assert defaulted == {"RunConfig", "ProtocolSchedule", "AFCParams", "ControlPulse"}


def _mirror(cls):
    """A frozen dataclass with the fields and class-value defaults of ``cls``."""
    spec = [(name, object, dataclasses.field(default=vars(cls)[name])) if name in vars(cls)
            else (name, object) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


_MIRRORS = {cls: _mirror(cls) for cls in _CLASSES}


def _pair(cls, **changes):
    """A record of ``cls`` with ``changes`` and its mirror with the same values."""
    record = cls(**{**_CASES[cls][0], **changes})
    return record, _MIRRORS[cls](**{name: getattr(record, name) for name in cls._fields})


def test_every_record_class_is_covered():
    annotated = _annotated_fields()
    assert len(annotated) == 13
    assert sorted(annotated) == sorted(cls.__name__ for cls in _CLASSES)
    for cls in _CLASSES:
        assert cls._fields == tuple(annotated[cls.__name__]), cls.__name__


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls):
    record, mirror = _pair(cls)
    other, mirror_other = _pair(cls, **_CASES[cls][1])
    assert repr(record) == repr(mirror) and repr(other) == repr(mirror_other)
    assert hash(record) == hash(mirror) and hash(other) == hash(mirror_other)
    assert record == _pair(cls)[0] and mirror == _pair(cls)[1]
    assert (record == other) == (mirror == mirror_other) is False
    assert (record != other) == (mirror != mirror_other) is True


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record, _ = _pair(cls)
    for name in cls._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_a_record_never_equals_another_type(cls):
    record, mirror = _pair(cls)
    namespace = {"__annotations__": dict(vars(cls)["__annotations__"]),
                 **{name: vars(cls)[name] for name in cls._fields if name in vars(cls)}}
    twin = type(cls.__name__, (Record,), namespace)(**{n: getattr(record, n) for n in cls._fields})
    assert repr(twin) == repr(record) and hash(twin) == hash(record)
    assert record != twin and twin != record
    assert record != mirror and mirror != record
    assert record != tuple(getattr(record, n) for n in cls._fields)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_or_keyword(cls):
    record, _ = _pair(cls)
    values = [getattr(record, name) for name in cls._fields]
    assert cls(*values) == record
    first = cls._fields[0]
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, values[0])


@pytest.mark.parametrize("cls", _WITH_REQUIRED, ids=lambda c: c.__name__)
def test_a_missing_argument_is_a_type_error(cls):
    values = _CASES[cls][0]
    with pytest.raises(TypeError, match="missing required arguments"):
        cls()
    with pytest.raises(TypeError, match=f"missing required arguments: {cls._fields[-1]}$"):
        cls(**{name: values[name] for name in cls._fields[:-1]})


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_replace_copies_with_changes(cls):
    record, _ = _pair(cls)
    change = _CASES[cls][1]
    assert replace(record, **change) == _pair(cls, **change)[0]
    assert replace(record) == record
    assert record == _pair(cls)[0]  # the original is untouched
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        replace(record, nope=1)


@pytest.mark.parametrize("cls", _VALIDATED, ids=lambda c: c.__name__)
def test_replace_validates_again(cls):
    record, _ = _pair(cls)
    with pytest.raises(ValueError):
        replace(record, **_CASES[cls][2])
    with pytest.raises(ValueError):
        cls(**{**_CASES[cls][0], **_CASES[cls][2]})
