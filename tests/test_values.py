"""Each record class of crystalpop behaves as the dataclass it replaced, its
twin in oracles.DATACLASS_TWINS: construction, repr, equality within and
across classes, hashing, order, frozen-ness and the pickle recipe."""

import pickle

import pytest

from crystalpop.classifier import Classification, SweepReport, SweepRow
from crystalpop.crystal import DualCrystal, generate_crystal
from crystalpop.key import DemazureFamily
from crystalpop.perm import CheckReport, Permutation
from crystalpop.poset import BowtieCertificate
from crystalpop.pop import OrbitReport
from crystalpop.tableaux import Partition, Tableau
from oracles import DATACLASS_TWINS

SHAPE = Partition((2, 1), 3)
GRAPH = generate_crystal(Partition((1,), 1))
ROW = ((2, 1), 3, True, "(k)", True, 8, 0.5)

# Constructor arguments of a few instances of each class.
SAMPLES = {
    Partition: [((2, 1), 3), ((2, 1), 2), ((3,), 3), ((), 1)],
    Tableau: [(SHAPE, ((1, 1), (2,))), (SHAPE, ((1, 2), (2,))), (Partition((1,), 1), ((1,),))],
    Permutation: [((2, 1, 3),), ((1, 2, 3),), ((3, 1, 2),), ((),)],
    CheckReport: [(3, []), (3, ["x"]), (0, [])],
    DualCrystal: [(GRAPH, (0, 1)), (GRAPH, (1, 0))],
    BowtieCertificate: [(1, 2, 3, 4), (1, 2, 4, 3), (0, 0, 0, 0)],
    OrbitReport: [((3, 1, 0),), ((0,),)],
    DemazureFamily: [({Permutation((1, 2)): 1}, {Permutation((1, 2)): 0}), ({}, {})],
    Classification: [(SHAPE, True, "(k)"), (SHAPE, False, None), (Partition((1,), 1), True, None)],
    SweepRow: [ROW, ROW[:-1] + (None,), (*ROW[:4], None, None, 0.5, True)],
    SweepReport: [([],), ([SweepRow(*ROW)],)],
}

CLASSES = sorted(DATACLASS_TWINS, key=lambda cls: cls.__name__)


def test_every_record_class_has_a_twin_and_samples():
    assert set(SAMPLES) == set(DATACLASS_TWINS)
    assert len(CLASSES) == 11


def pair(cls):
    twin = DATACLASS_TWINS[cls]
    return [cls(*args) for args in SAMPLES[cls]], [twin(*args) for args in SAMPLES[cls]]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_repr_and_equality_match_the_twin(cls):
    ours, twins = pair(cls)
    assert cls.__match_args__ == DATACLASS_TWINS[cls].__match_args__
    for args, x, t in zip(SAMPLES[cls], ours, twins):
        assert cls(**dict(zip(cls.__match_args__, args))) == x
        assert repr(x) == repr(t)
        assert x != t and t != x and not x == t and x != args
    assert [[a == b for b in ours] for a in ours] == [[a == b for b in twins] for a in twins]


def test_equal_fields_in_two_classes_compare_unequal_as_between_twins():
    classes = (OrbitReport, SweepReport, Permutation)
    for family in (classes, [DATACLASS_TWINS[cls] for cls in classes]):
        records = [cls((1, 2)) for cls in family]
        assert [[a == b for b in records] for a in records] == [
            [a is b for b in records] for a in records]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hash_and_order_match_the_twin(cls):
    ours, twins = pair(cls)
    twin = DATACLASS_TWINS[cls]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    if cls.__hash__ is not None:
        assert list(map(hash, ours)) == list(map(hash, twins))
    positions = range(len(ours))
    try:
        order = sorted(positions, key=twins.__getitem__)
    except TypeError:
        with pytest.raises(TypeError):
            sorted(ours)
    else:
        assert sorted(positions, key=ours.__getitem__) == order
        for a, s in zip(ours, twins):
            assert [(a < b, a <= b, a > b, a >= b) for b in ours] == [
                (s < t, s <= t, s > t, s >= t) for t in twins]


def outcome(action):
    try:
        action()
    except AttributeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment_and_deletion_as_the_twin(cls):
    (x, *_), (t, *_) = pair(cls)
    name = cls.__match_args__[0]
    value = getattr(x, name)
    assert outcome(lambda: setattr(x, name, value)) == outcome(lambda: setattr(t, name, value))
    assert outcome(lambda: setattr(x, "extra", 1)) == outcome(lambda: setattr(t, "extra", 1))
    assert outcome(lambda: delattr(x, "extra")) == outcome(lambda: delattr(t, "extra"))
    assert repr(x) == repr(t)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_records_the_twins_recipe_and_round_trips(cls):
    for x, t in zip(*pair(cls)):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            ours, theirs = x.__reduce_ex__(protocol), t.__reduce_ex__(protocol)
            assert ours[1] == (cls,) and theirs[1] == (DATACLASS_TWINS[cls],)
            assert ours[0] == theirs[0] and ours[2:] == theirs[2:]
        copy = pickle.loads(pickle.dumps(x))
        assert type(copy) is cls and pickle.dumps(copy) == pickle.dumps(x)


def test_cached_properties_survive_freezing():
    w = Permutation((2, 3, 1))
    assert (w.inversion_mask, w.bruhat_ranks) == (w.inversion_mask, w.bruhat_ranks)
    with pytest.raises(AttributeError, match="cannot assign to field 'inversion_mask'"):
        w.inversion_mask = 0
    assert pickle.loads(pickle.dumps(w)).inversion_mask == w.inversion_mask
