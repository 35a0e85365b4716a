"""Frozen value classes: construction, equality, hashing, repr and immutability."""

import json

import pytest

from braidhom.braid import BraidWord, ConjugationCertificate, RepMatrix, evaluate_word
from braidhom.cli import main
from braidhom.completion import CompletedElement, CompletedVector, Ray, _Line, helix_class
from braidhom.embeddings import (EmbeddingMatrix, InjectivityCertificate, ReducibilityWitness,
                                 embedding_matrix)
from braidhom.homology import (FiniteChainComplex, ModulePresentation, ShapiroVerdict,
                               SpecializationPoint)
from braidhom.pairing import PairingMatrix, delta_pairing
from braidhom.ring import ComplexApprox, Integers, IntegersModP, LaurentRing, Rationals
from braidhom.surfaces import BasisClass, LocalSystem, SurfaceTriad, standard_local_system
from braidhom.values import value_class

RING = LaurentRing(2, Integers())
LINE = LaurentRing(1, Integers())
TRIAD = SurfaceTriad(0, 3, 0, 2)

# One factory per value class; each call builds a fresh instance.
FACTORIES = {
    Integers: lambda: Integers(),
    Rationals: lambda: Rationals(),
    IntegersModP: lambda: IntegersModP(7),
    ComplexApprox: lambda: ComplexApprox(),
    LaurentRing: lambda: LaurentRing(2, Integers(), ["x", "d"]),
    BraidWord: lambda: BraidWord(3, [1, -2]),
    RepMatrix: lambda: evaluate_word(BraidWord(3, (1, -2)), 2),
    ConjugationCertificate: lambda: ConjugationCertificate(False, 1, (0, 1), RING.one),
    SurfaceTriad: lambda: SurfaceTriad(0, 3, 0, 2),
    BasisClass: lambda: BasisClass("in", "relative", [1, 1]),
    LocalSystem: lambda: LocalSystem(RING, RING.var("d")),
    Ray: lambda: Ray([0, 0], [1, 1], [1, -1], "fwd"),
    _Line: lambda: _Line((0,), (1,), ((0, 1, (1,), "bi"),)),
    EmbeddingMatrix: lambda: embedding_matrix(TRIAD, "in", standard_local_system(2)),
    InjectivityCertificate: lambda: InjectivityCertificate(True, ()),
    ReducibilityWitness: lambda: ReducibilityWitness(BasisClass("in", "relative", (2, 0)),
                                                     RING.one, (RING.one,)),
    ModulePresentation: lambda: ModulePresentation("kernel", LINE.one - LINE.var("x")),
    FiniteChainComplex: lambda: FiniteChainComplex(LINE, (1, 1), [[[LINE.one]]]),
    SpecializationPoint: lambda: SpecializationPoint({"x": 2, "d": 3}, Rationals()),
    ShapiroVerdict: lambda: ShapiroVerdict(True, ("k", "0"), ("k", "0")),
    PairingMatrix: lambda: delta_pairing(TRIAD, "in", RING),
}


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_compare_field_values(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    try:
        values = tuple(getattr(a, name) for name in cls.__annotations__)
        expected = hash(values)
    except TypeError:  # a ring element inside: unhashable, as the element is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_instances_are_frozen(cls):
    instance = FACTORIES[cls]()
    for name in (*cls.__annotations__, "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(instance, name, None)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(instance, name)


def test_classes_of_equal_fields_differ():
    assert Integers() != Rationals()
    assert IntegersModP(7) != IntegersModP(5)
    assert LaurentRing(1, Integers()) != LaurentRing(1, Rationals())
    assert BraidWord(3, (1,)) != BraidWord(4, (1,))


@pytest.mark.parametrize("value, text", [
    (Integers(), "Integers()"),
    (IntegersModP(7), "IntegersModP(p=7)"),
    (ComplexApprox(), "ComplexApprox(tolerance=1e-09)"),
    (LaurentRing(1, Integers()), "LaurentRing(rank=1, coefficients=Integers(), variables=('x',))"),
    (BraidWord(3, [1, -2]), "BraidWord(n=3, letters=(1, -2))"),
    (ConjugationCertificate(True),
     "ConjugationCertificate(integral=True, generator=None, position=None, entry=None)"),
    (SurfaceTriad(0, 3, 0, 2),
     "SurfaceTriad(genus=0, inner_circles=3, outer_intervals=0, points=2)"),
    (Ray([0], [2], [1]), "Ray(base=(0,), step=(2,), pattern=(1,), direction='bi')"),
    (SpecializationPoint({"x": 2}, Rationals()),
     "SpecializationPoint(assignments=(('x', Fraction(2, 1)),), field=Rationals())"),
    (ShapiroVerdict(True, ("k", "0"), ("k", "0")),
     "ShapiroVerdict(matches=True, twisted=('k', '0'), untwisted=('k', '0'))"),
    (InjectivityCertificate(True, ()), "InjectivityCertificate(injective=True, vanishing=())"),
    # A repr the class defines itself is kept.
    (ModulePresentation("cokernel", LINE.one - LINE.var("x")), "cokernel: R/(1 - x)"),
])
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("build, message", [
    (lambda: IntegersModP(4), "modulus 4 is not prime"),
    (lambda: ComplexApprox(0), "tolerance must be positive"),
    (lambda: LaurentRing(-1, Integers()), "rank must be non-negative"),
    (lambda: LaurentRing(2, Integers(), ("x", "x")), "variable names must be distinct"),
    (lambda: BraidWord(1), "braid group needs n >= 2 strands, got 1"),
    (lambda: BraidWord(3, (3,)), "letter 3 out of range for n=3"),
    (lambda: SurfaceTriad(0, 0, 0, 1), "need at least one inner boundary circle"),
    (lambda: BasisClass("up", "relative", (1,)),
     "side must be one of ('in', 'out'), got 'up'"),
    (lambda: LocalSystem(RING, RING.one + RING.one), "homogeneity unit must be a unit, got 2"),
    (lambda: Ray((0,), (0,), (1,)), "ray step must be nonzero"),
    (lambda: ModulePresentation("image", LINE.one), "unknown presentation kind: 'image'"),
    (lambda: SpecializationPoint((("x", 1), ("x", 2)), Rationals()),
     "a variable is assigned twice"),
    (lambda: FiniteChainComplex(LINE, (1, 1), [[[LaurentRing(1, Rationals()).one]]]),
     "ring context mismatch: LaurentRing(rank=1, coefficients=Integers(), variables=('x',))"
     " vs LaurentRing(rank=1, coefficients=Rationals(), variables=('x',))"),
])
def test_post_init_errors(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_missing_and_extra_arguments():
    with pytest.raises(TypeError, match=r"IntegersModP.__init__\(\) missing 1 required"):
        IntegersModP()
    with pytest.raises(TypeError, match="unexpected keyword argument 'q'"):
        IntegersModP(q=7)
    assert LaurentRing(rank=1, coefficients=Integers()).variables == ("x",)


def test_completed_values_compare_by_identity():
    ring = LaurentRing(2, Integers(), ("y", "z"))
    a, b = CompletedElement(ring, ring.one), CompletedElement(ring, ring.one)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    triad = SurfaceTriad(0, 2, 0, 1)
    u, v = (helix_class(triad, (1,), (1, 0), (0, 1), ring) for _ in range(2))
    assert isinstance(u, CompletedVector) and u == u and u != v
    assert repr(u).startswith("CompletedVector(triad=SurfaceTriad(genus=0, inner_circles=2, ")


def test_decorating_a_new_class():
    @value_class
    class Point:
        x: int
        y: int = 0

    assert Point(1) == Point(1, 0) != Point(0, 1)
    assert repr(Point(1)) == "test_decorating_a_new_class.<locals>.Point(x=1, y=0)"


@pytest.mark.parametrize("document, stderr", [
    ({"schema": 1, "variables": ["x", "x"], "ranks": [1, 1], "boundaries": [[["1"]]]},
     "error: variable names must be distinct\n"),
    ({"schema": 1, "variables": ["x"], "ranks": [1, 1], "boundaries": [[["1"]]],
      "direction": "sideways"},
     "error: direction must be one of ('homological', 'cohomological')\n"),
    ({"schema": 1, "coefficients": "rationals", "variables": ["x"], "ranks": [1, 1, 1],
      "boundaries": [[["1"]], [["x"]]]},
     "error: boundaries 0 and 1 do not compose to zero\n"),
])
def test_homology_cli_diagnostics(tmp_path, capsys, document, stderr):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(document))
    assert main(["homology", "--complex", str(path), "--at", "x=2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
