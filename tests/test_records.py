"""Every frozen record class keeps the meaning of ``@dataclass(frozen=True)``.

``archcheck._record.record`` builds them all.  The tests walk every record
class of the package and compare it with a twin that ``dataclasses`` builds
from the same fields: repr text, equality and hash values must agree.  The
one addition, that ``tuple`` and ``frozenset`` fields store a tuple and a
frozenset of their argument, is tested on a probe record.  They
also pin the design: ``__init__``, ``__eq__`` and ``__hash__`` come from one
``exec`` per class, each distinct generated source is compiled once, and
``__repr__``, ``__setattr__`` and ``__delattr__`` are one shared function
each.
"""
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from pathlib import Path
from typing import Mapping, Optional

import pytest

import archcheck
from archcheck import _record, blackboard
from archcheck.algebra import (
    BaseSort,
    BoolLit,
    BoundedForall,
    Implies,
    SetSort,
    Var,
    children,
)
from archcheck.blackboard import random_scenario
from archcheck.constraints import Truth, Verdict, _Slices
from archcheck.interfaces import InterfaceInterpretation
from archcheck.model import ArchConfiguration, ComponentSnapshot, make_snapshot
from archcheck.parser.lexer import Token
from archcheck.parser.syntax import Diagnostic, EName, Span

# The resolver's two mutable scopes stay plain ``@dataclass`` classes.
MUTABLE = {"archcheck.parser.resolver.ResolvedBundle", "archcheck.parser.resolver.Env"}
# Record classes whose body defines its own ``__hash__``.
OWN_HASH = {InterfaceInterpretation, ComponentSnapshot}


def _dataclasses() -> dict:
    found = {}
    for info in pkgutil.walk_packages(archcheck.__path__, "archcheck."):
        for value in vars(importlib.import_module(info.name)).values():
            if (isinstance(value, type) and value.__module__ == info.name
                    and dataclasses.is_dataclass(value)):
                found[f"{info.name}.{value.__qualname__}"] = value
    return found


DATACLASSES = _dataclasses()
RECORDS = [cls for name, cls in sorted(DATACLASSES.items()) if name not in MUTABLE]


def _filled(cls):
    """An instance of ``cls`` holding a distinct string in every field,
    made without ``__init__`` so that no ``__post_init__`` check runs."""
    obj = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(obj, f.name, f"<{f.name}>")
    return obj


def _twin(cls):
    """``cls``'s fields in a class that ``dataclass(frozen=True)`` builds."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare, hash=f.hash))
         for f in dataclasses.fields(cls)],
        frozen=True,
    )


def _ids(cls):
    return cls.__qualname__


records = pytest.mark.parametrize("cls", RECORDS, ids=_ids)


def test_every_frozen_dataclass_of_the_package_is_a_record():
    assert set(DATACLASSES) - {f"{c.__module__}.{c.__qualname__}" for c in RECORDS} == MUTABLE
    assert len(RECORDS) > 100
    for name in MUTABLE:
        assert DATACLASSES[name].__setattr__ is object.__setattr__


@records
def test_repr_setattr_and_delattr_are_shared(cls):
    assert cls.__repr__ is _record._repr
    assert cls.__setattr__ is _record._setattr
    assert cls.__delattr__ is _record._delattr


@records
def test_init_eq_and_hash_come_from_one_exec_of_this_class(cls):
    namespace = cls.__init__.__globals__
    assert namespace is not vars(sys.modules[cls.__module__])
    assert cls.__eq__.__globals__ is namespace
    if cls in OWN_HASH:
        assert cls.__hash__ is vars(cls)["__hash__"]
        assert cls.__hash__.__globals__ is vars(sys.modules[cls.__module__])
    else:
        assert cls.__hash__.__globals__ is namespace
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    others = [c for c in RECORDS if c is not cls]
    assert all(c.__init__.__globals__ is not namespace for c in others)


@records
def test_assignment_and_deletion_raise(cls):
    obj = _filled(cls)
    for name in [f.name for f in dataclasses.fields(cls)][:1] + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


@records
def test_equality_hash_and_repr_match_a_dataclasses_twin(cls):
    twin = _twin(cls)
    obj, same = _filled(cls), _filled(cls)
    twin_obj = _filled(twin)
    assert repr(obj) == repr(twin_obj)
    assert obj == same and not obj != same
    assert obj.__eq__(object()) is NotImplemented
    compared = tuple(getattr(obj, f.name) for f in dataclasses.fields(cls) if f.compare)
    if cls not in OWN_HASH:
        assert hash(obj) == hash(same) == hash(twin_obj) == hash(compared)
    for f in dataclasses.fields(cls):
        changed = _filled(cls)
        object.__setattr__(changed, f.name, "<changed>")
        twin_changed = _filled(twin)
        object.__setattr__(twin_changed, f.name, "<changed>")
        assert (obj == changed) is (twin_obj == twin_changed) is (not f.compare)
        if not f.compare and cls not in OWN_HASH:
            assert hash(changed) == hash(obj)
        assert (f"{f.name}=" in repr(obj)) is f.repr


def test_fields_left_out_of_comparison_are_the_expected_ones():
    ignored = {f.name for cls in RECORDS for f in dataclasses.fields(cls) if not f.compare}
    # the indexes and the cached hash that records make for themselves
    made = {"_concrete", "_hash", "by_id", "ids_by_interface", "by_snapshot"}
    assert ignored == {"span", "text", "lines"} | made
    hidden = {f.name for cls in RECORDS for f in dataclasses.fields(cls) if not f.repr}
    assert hidden == {"span", "lines"} | made


@records
def test_fields_keep_declaration_order(cls):
    declared = {}
    for klass in reversed(cls.__mro__):
        if "__dataclass_fields__" in vars(klass):
            declared.update(dict.fromkeys(vars(klass).get("__annotations__", {})))
    assert [f.name for f in dataclasses.fields(cls)] == list(declared)


def test_children_follow_field_order():
    left, right = BoolLit(True), BoolLit(False)
    assert children(Implies(left, right)) == [left, right]
    assert [f.name for f in dataclasses.fields(_Slices)] == ["vars", "source", "body", "sort"]
    sort = SetSort(BaseSort("P"))
    x = Var("x", BaseSort("P"))
    assert children(_Slices(("x",), x, left, sort)) == [x, left]
    assert children(BoundedForall(["x"], x, right)) == [x, right]


def test_default_factory_gives_a_fresh_object_per_instance():
    first, second = ArchConfiguration(set()), ArchConfiguration(set())
    assert first.connection == second.connection
    assert first.connection is not second.connection


def test_replace_keeps_working():
    diag = Diagnostic("error", "E1", "bad", Span(1, 2, 3))
    moved = dataclasses.replace(diag, unit="a.arch")
    assert moved == Diagnostic("error", "E1", "bad", Span(1, 2, 3), "a.arch")
    assert moved.render() == "a.arch:1:2: error[E1]: bad"
    base = random_scenario(random.Random(1), horizon=30)
    longer = dataclasses.replace(base, horizon=60)
    assert longer.horizon == 60
    assert dataclasses.replace(longer, horizon=30) == base


def _snapshot_fields(snap):
    return tuple(getattr(snap, f.name) for f in dataclasses.fields(snap) if f.compare)


def test_a_snapshot_keeps_the_hash_of_its_field_tuple():
    """``ComponentSnapshot`` computes its hash once, as the hash that
    ``record`` generates: equal snapshots built apart hash alike."""
    scenario = random_scenario(random.Random(3), horizon=30)
    snaps = {s for k in blackboard.simulate_blackboard(scenario).trace.steps for s in k.active}
    assert len(snaps) > 10
    for snap in snaps:
        values = {  # each message set and message made anew
            port: [set(m) if type(m) is frozenset else m for m in messages]
            for port, messages in snap.valuation.items()
        }
        apart = make_snapshot(
            snap.id,
            local={p: values[p] for p in snap.local_ports},
            inputs={p: values[p] for p in snap.input_ports},
            outputs={p: values[p] for p in snap.output_ports},
        )
        direct = ComponentSnapshot(
            snap.id, list(snap.local_ports), set(snap.input_ports),
            tuple(snap.output_ports), dict(snap.valuation),
        )
        for other in (apart, direct, dataclasses.replace(snap)):
            assert other is not snap and other == snap
            assert hash(other) == hash(snap) == hash(_snapshot_fields(other))
    changed = dataclasses.replace(snap, id=snap.id + "x")
    assert hash(changed) == hash(_snapshot_fields(changed)) != hash(snap)


def test_a_loaded_snapshot_hashes_by_the_strings_of_its_process():
    """A pickled snapshot is made again when it is loaded, so its hash is
    that of the loading process, whose string hashes may differ."""
    dump = (
        "import pickle, sys\n"
        "from archcheck.model import make_snapshot\n"
        "snap = make_snapshot('ks1', local={'n': {'a'}}, inputs={'i': {('a', 'b')}})\n"
        "sys.stdout.write(pickle.dumps(snap).hex())\n"
    )
    src = str(Path(archcheck.__file__).parent.parent)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"  # not this one's
    done = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
    )
    assert done.returncode == 0, done.stderr
    loaded = pickle.loads(bytes.fromhex(done.stdout))
    here = make_snapshot("ks1", local={"n": {"a"}}, inputs={"i": {("a", "b")}})
    assert loaded == here and hash(loaded) == hash(here) == hash(_snapshot_fields(loaded))
    assert loaded in {here}


def test_hot_records_hash_and_compare_by_their_fields():
    assert Verdict(Truth.VIOLATED, 3) == Verdict(Truth.VIOLATED, 3)
    assert hash(Verdict(Truth.VIOLATED, 3)) == hash((Truth.VIOLATED, 3, None))
    assert hash(SetSort(BaseSort("P"))) == hash((BaseSort("P"),))
    assert SetSort(BaseSort("P")) != BaseSort("P")


# The front end makes one Span and one Token per token, so both are named
# tuples rather than records.
tuples = pytest.mark.parametrize("cls", [Span, Token], ids=_ids)


@tuples
def test_span_and_token_are_immutable(cls):
    obj = cls(*cls._fields)
    for name in [cls._fields[0], "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@tuples
def test_span_and_token_keep_the_repr_equality_and_hash_of_a_record(cls):
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    values = [f"<{name}>" for name in cls._fields]
    obj, same, twin_obj = cls(*values), cls(*values), twin(*values)
    assert repr(obj) == repr(twin_obj)
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(twin_obj) == hash(tuple(values))
    for index, name in enumerate(cls._fields):
        changed = cls(*values[:index], "<changed>", *values[index + 1:])
        assert obj != changed and f"{name}=" in repr(obj)


@tuples
def test_span_and_token_keep_their_field_order(cls):
    expected = {Span: ("line", "column", "end_column"), Token: ("kind", "text", "span")}
    assert cls._fields == tuple(cls.__annotations__) == expected[cls]


def test_a_span_is_the_tuple_of_its_three_ints():
    span = Span(3, 5, 9)
    assert (str(span), repr(span)) == ("3:5", "Span(line=3, column=5, end_column=9)")
    assert span == Span(3, 5, 9) != Span(3, 5, 10)
    assert hash(span) == hash((3, 5, 9))
    # what a record did not do: compare and sort with plain tuples
    assert span == (3, 5, 9)
    assert sorted([Span(3, 6, 7), Span(2, 9, 9), span]) == [(2, 9, 9), (3, 5, 9), (3, 6, 7)]
    with pytest.raises(TypeError):
        dataclasses.fields(Span)
    # nodes still leave their span out of comparison
    assert EName("x", span) == EName("x", Span(1, 1, 2))
    assert Diagnostic("error", "E1", "bad", span) != Diagnostic("error", "E1", "bad", Span(1, 1, 2))


def _made_both_ways(body):
    """One class body made into a record and into a frozen dataclass."""
    return _record.record(body()), dataclasses.dataclass(frozen=True)(body())


def test_record_matches_dataclass_on_every_field_option():
    def body():
        class Item:
            """An item."""

            a: int
            b: str = "b"
            c: list = dataclasses.field(default_factory=list, hash=False)
            d: int = dataclasses.field(default=4, compare=False, repr=False)
            e: dict = dataclasses.field(default_factory=dict, init=False, hash=False)
            f: int = dataclasses.field(init=False, compare=False, repr=False)
            g: int = dataclasses.field(default=0, hash=False)

            def __post_init__(self):
                object.__setattr__(self, "f", self.a * 2)

        return Item

    rec, ref = _made_both_ways(body)
    options = ("name", "type", "default", "default_factory", "init", "repr", "hash", "compare")

    def spec(cls):
        return [[getattr(f, option) for option in options] for f in dataclasses.fields(cls)]

    assert spec(rec) == spec(ref)
    assert rec.__match_args__ == ref.__match_args__
    assert rec.__doc__ == ref.__doc__
    assert str(inspect.signature(rec)) == str(inspect.signature(ref))
    for args in ((1,), (1, "x"), (1, "x", [1]), (2, "y", [], 5)):
        x, y = rec(*args), ref(*args)
        assert repr(x) == repr(y).replace(ref.__qualname__, rec.__qualname__)
        assert hash(x) == hash(y)
        assert x.f == y.f == 2 * args[0]
        assert x == rec(*args) and x != rec(args[0] + 1, *args[1:])
    assert rec(1).c is not rec(1).c and rec(1).e is not rec(1).e
    assert rec(1, g=1) != rec(1, g=2)
    assert hash(rec(1, g=1)) == hash(rec(1, g=2)) == hash(ref(1, g=2))
    with pytest.raises(TypeError):
        rec(1, e={})


def test_record_keeps_what_the_class_body_defines_and_inherits_fields():
    def body():
        class Point:
            x: int
            y: int = 0

            def __repr__(self):
                return f"<{self.x}, {self.y}>"

            def __hash__(self):
                return self.x

        return Point

    rec, ref = _made_both_ways(body)
    assert repr(rec(1, 2)) == repr(ref(1, 2)) == "<1, 2>"
    assert hash(rec(5, 2)) == hash(ref(5, 2)) == 5
    assert rec(1, 2) == rec(1, 2) != rec(1, 3)

    @_record.record
    class Point3(rec):
        z: int = 0

    assert [f.name for f in dataclasses.fields(Point3)] == ["x", "y", "z"]
    assert Point3(1, 2, 3) != rec(1, 2) and Point3(1, 2, 3) == Point3(1, 2, 3)
    assert Point3.__doc__ == "Point3(x: int, y: int = 0, z: int = 0)"


@pytest.mark.parametrize("spell", [str, lambda t: t], ids=["string", "evaluated"])
def test_tuple_and_frozenset_fields_store_a_tuple_and_a_frozenset(spell):
    """The one addition to ``dataclass(frozen=True)``; ``spell`` writes each
    annotation as a string, as the package does, or as the type itself."""
    annotations = {
        "items": tuple[int, ...],
        "names": frozenset[str],
        "maybe": Optional[tuple[int, ...]],
        "table": Mapping[str, int],
        "either": tuple[int, ...] | list[int],
        "rest": tuple[int, ...],
        "made": frozenset[int],
    }
    Probe = _record.record(type("Probe", (), {
        "__annotations__": {name: spell(t) for name, t in annotations.items()},
        "rest": (),
        "made": dataclasses.field(default_factory=frozenset),
    }))

    maybe, table, either = [3], {"k": 1}, [4]
    probe = Probe([1, 2], {"a"}, maybe, table, either, (n for n in (4, 5)), [6, 6])
    assert (probe.items, probe.names, probe.rest, probe.made) == (
        (1, 2), frozenset({"a"}), (4, 5), frozenset({6}))
    assert type(probe.items) is type(probe.rest) is tuple
    assert type(probe.names) is type(probe.made) is frozenset
    assert probe.maybe is maybe and probe.table is table and probe.either is either

    items, names, made = (1,), frozenset({"b"}), frozenset({7})
    kept = Probe(items, names, None, table, either, made=made)
    assert kept.items is items and kept.names is names and kept.made is made
    assert kept.maybe is None and kept.rest == ()
    assert Probe((), [], None, {}, ()).made == frozenset()

    replaced = dataclasses.replace(kept, items=[8], made={9, 9}, maybe=[0])
    assert replaced.items == (8,) and type(replaced.items) is tuple
    assert replaced.made == frozenset({9}) and type(replaced.made) is frozenset
    assert replaced.maybe == [0] and replaced.names is names


def test_importing_the_cli_compiles_one_namespace_per_record():
    """Importing ``archcheck.cli`` runs one ``exec`` per record class, and
    ``dataclasses`` compiles methods only for the two mutable scopes.  (From
    Python 3.13 on, ``dataclasses`` also runs one ``exec`` per class that
    defines no method; it is not counted.)"""
    spy = (
        "import builtins, collections, sys\n"
        "calls = collections.Counter()\n"
        "real = builtins.exec\n"
        "def exec(source, *args):\n"
        "    caller = sys._getframe(1).f_globals.get('__name__')\n"
        "    if caller != 'dataclasses' or '\\n def ' in source:\n"
        "        calls[caller] += 1\n"
        "    return real(source, *args)\n"
        "builtins.exec = exec\n"
        "import archcheck.cli\n"
        "print(calls['archcheck._record'], calls['dataclasses'])\n"
    )
    src = str(Path(archcheck.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", spy], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    ours, theirs = map(int, done.stdout.split())
    assert ours == len(RECORDS)
    assert theirs <= 3 * len(MUTABLE)


def test_importing_the_cli_compiles_each_distinct_record_source_once():
    """Records whose fields have the same names and options generate the same
    source; ``record`` compiles it on the first and reuses the code."""
    spy = (
        "import builtins, sys\n"
        "sources, runs = [], []\n"
        "real_compile, real_exec = builtins.compile, builtins.exec\n"
        "def ours():\n"
        "    return sys._getframe(2).f_globals.get('__name__') == 'archcheck._record'\n"
        "def compile(source, *args, **kwargs):\n"
        "    if ours():\n"
        "        sources.append(source)\n"
        "    return real_compile(source, *args, **kwargs)\n"
        "def exec(code, *args):\n"
        "    if ours():\n"
        "        runs.append(code)\n"
        "    return real_exec(code, *args)\n"
        "builtins.compile, builtins.exec = compile, exec\n"
        "import archcheck.cli\n"
        "print(len(sources), len(set(sources)), len(runs), len(set(map(id, runs))))\n"
    )
    src = str(Path(archcheck.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", spy], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    compiled, distinct, runs, codes = map(int, done.stdout.split())
    assert compiled == distinct == codes
    assert runs == len(RECORDS) > distinct  # some classes share a source

    @_record.record
    class Once:
        first_field_of_this_test: int

    @_record.record
    class Again:
        first_field_of_this_test: int

    assert Once.__init__.__code__ is Again.__init__.__code__
    assert Once.__init__.__globals__ is not Again.__init__.__globals__
    assert Once(1) != Again(1) and Once(1) == Once(1)
