"""The records a scene read builds in bulk take a written ``__init__`` in
place of the one ``@dataclass(frozen=True)`` generates. Each must still behave
as the generated constructor and its ``__post_init__`` made it: the same
normalised fields, ``__eq__``, ``__hash__`` and ``repr``, keywords and
defaults, frozen fields, and ``dataclasses.replace`` and pickle round trips.

The other records that normalise their inputs in ``__post_init__`` are pinned
at the end: each stores the normalised form, not the argument it was given.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from socioplan import (
    CostClearance,
    Costmap,
    ObjectNode,
    RectFootprint,
    Relation,
    RelationKind,
    Trajectory,
    load_scenario,
)
from socioplan.cost_field import OrientedRectFootprint
from socioplan.planner import path_from_cells

from conftest import DATA_DIR

# Record type, raw arguments (built afresh on each call, since some are
# one-shot iterators), the repr of the record they make (ints become floats,
# lists and iterators of numbers become tuples, iterables of labels become
# frozensets) and a change of one field that makes an unequal record.
CASES = {
    "ObjectNode": (
        ObjectNode,
        lambda: (
            ("chair1", "chair", [1, 2, 0], (e for e in (0.5, 0.5, 1))),
            {"affordances": ["sit", "sit"], "attributes": iter(["wooden"])},
        ),
        "ObjectNode(id='chair1', tag='chair', bbox_center=(1.0, 2.0, 0.0), bbox_extent=(0.5, 0.5, 1.0),"
        " affordances=frozenset({'sit'}), attributes=frozenset({'wooden'}))",
        {"attributes": ()},
    ),
    "Relation": (
        Relation,
        lambda: (("next to", "armchair", "bed", RelationKind.SPATIAL), {}),
        "Relation(name='next to', head_id='armchair', tail_id='bed', kind=<RelationKind.SPATIAL: 'spatial'>)",
        {"tail_id": "tv"},
    ),
    "RectFootprint": (
        RectFootprint,
        lambda: (([0, 1], (c for c in (2, 3.5))), {}),
        "RectFootprint(min_xy=(0.0, 1.0), max_xy=(2.0, 3.5))",
        {"max_xy": (2, 4)},
    ),
    "CostClearance": (
        CostClearance,
        lambda: ((3.0, 1.5), {}),
        "CostClearance(cost=3.0, clearance=1.5)",
        {"clearance": 0.0},
    ),
}

records = pytest.mark.parametrize("cls, arguments, expected_repr, change", CASES.values(), ids=CASES.keys())


def build(cls, arguments):
    args, kwargs = arguments()
    return cls(*args, **kwargs)


def generated(cls):
    """``cls``'s fields in a class whose ``__init__``, ``__eq__``, ``__hash__``
    and ``__repr__`` ``@dataclass(frozen=True)`` generates: the reference."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field() if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )


@records
def test_fields_are_normalised_as_before(cls, arguments, expected_repr, change):
    assert repr(build(cls, arguments)) == expected_repr


@records
def test_eq_hash_and_repr_are_the_generated_ones(cls, arguments, expected_repr, change):
    record = build(cls, arguments)
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    reference = generated(cls)(**values)
    assert (repr(record), hash(record)) == (repr(reference), hash(reference))
    assert record == build(cls, arguments) and hash(record) == hash(build(cls, arguments))
    assert record != dataclasses.replace(record, **change)
    assert record != reference  # the generated __eq__ compares classes first


@records
def test_keywords_and_defaults(cls, arguments, expected_repr, change):
    args, kwargs = arguments()
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, args)), **kwargs) == build(cls, arguments)
    defaulted = cls(*arguments()[0])
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert getattr(defaulted, f.name) == f.default


@records
def test_fields_are_frozen(cls, arguments, expected_repr, change):
    record = build(cls, arguments)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    assert repr(record) == expected_repr


@records
def test_replace_and_pickle_round_trips(cls, arguments, expected_repr, change):
    record = build(cls, arguments)
    args, kwargs = arguments()
    names = [f.name for f in dataclasses.fields(cls)]
    # replace passes every field back to __init__ by keyword, raw values normalised again.
    assert dataclasses.replace(record) == record
    assert dataclasses.replace(record, **dict(zip(names, args)), **kwargs) == record
    for copy in (dataclasses.replace(record), pickle.loads(pickle.dumps(record))):
        assert type(copy) is cls and repr(copy) == expected_repr and copy == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, names[0], getattr(copy, names[0]))


def test_costmap_stores_float_origin_and_cell_array():
    costmap = Costmap(origin=[0, 0], resolution=1.0, width=2, height=1, cells=[[1, 2]])
    floats = np.array([[1.0, 2.0]])
    assert costmap == Costmap(origin=(0.0, 0.0), resolution=1.0, width=2, height=1, cells=floats)
    assert path_from_cells(((0, 0), (1, 0)), costmap).total_cost == 1.5


def test_trajectory_stores_float_tuples():
    assert Trajectory([[0, 0, 0]]) == Trajectory(((0.0, 0.0, 0.0),))


def test_oriented_rect_stores_float_tuples():
    rect = OrientedRectFootprint([0, 0], (1, 0), 1, 1)
    assert rect == OrientedRectFootprint((0.0, 0.0), (1.0, 0.0), 1.0, 1.0)


def test_load_scenario_takes_a_str_path():
    path = DATA_DIR / "bedroom_scenario.json"
    assert load_scenario(str(path)) == load_scenario(path)
