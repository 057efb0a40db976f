"""The record contract of the library's data types.

Every record class is immutable, equal to a copy rebuilt through its
constructor, and unequal once a field changes; the hashable ones hash
alike when equal.  `Record` is the package's one immutable-value
mechanism: no other class guards assignment or deletion, and every
slotted class is a record.  What a request imports at start-up is tested
in `test_cli.py` (`TestImportFootprint`)."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from procong import cli, serialize
from procong.cellular import (HomologyAction, cellular_model,
                              torsion_from_cellular)
from procong.chars import NielsenBound, OrbitProjectionTable, builtin_group
from procong.kernel import (Cyclotomic, LaurentPolynomial,
                            NormalizedTorsionClass, PolyMatrix,
                            RationalFunction)
from procong.ntform import (Dilatation, FixedClassRecord, IndexedOrbitTable,
                            InteriorOrbit, NTDecomposition, OrbitRow,
                            ReductionAnnulus, StretchFactor, VertexPiece,
                            _ClassFamily)
from procong.record import Record
from procong.surfgrp import (FiniteRepresentation, GeneratorEndomorphism,
                             SurfacePresentation, mapping_torus)
from procong.torus import Mat2, ModVerdict, SL2Verdict, congruence_sweep
from reference import replace

PHI = StretchFactor((-1, -1, 1), F(3, 2), F(2))
PHI_SQUARED = StretchFactor((1, -3, 1), F(2), F(3))
TORUS = SurfacePresentation.closed(1)
MONODROMY = GeneratorEndomorphism.torus_monodromy(Mat2(2, 1, 1, 1))
MT = mapping_torus(TORUS, MONODROMY)
SURFACE, FLOW = cellular_model(MT)
TRIVIAL = FiniteRepresentation.trivial(MT)
RENAMED = tuple(tuple(name + "'" for name in dim)
                for dim in SURFACE.cell_names)
ROW = OrbitRow(((1, 2),), 2)
ORBITS = OrbitProjectionTable((("o", 1, 0),))
ONE_OVER_1_MINUS_T = RationalFunction(LaurentPolynomial({0: 1}),
                                      LaurentPolynomial({0: 1, 1: -1}))
SRC = Path(__file__).resolve().parent.parent / "src" / "procong"


def _records():
    """(record, field, another value of the field) per record class."""
    return [
        (SL2Verdict(True, Mat2(1, 0, 0, 1), "equal"), "reason", "other"),
        (ModVerdict(5, True, None), "modulus", 6),
        (congruence_sweep(Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2), 4),
         "max_modulus", 5),
        (cli.RunConfig("torus conj", ("2,1;1,1", "1,1;1,2")), "rep", "sign"),
        (cli.Flag("--rep", "rep", "representation"), "help", "other"),
        (cli.COMMANDS["torus conj"], "positionals", ("matrix",)),
        (PHI, "high", F(5, 2)),
        (Dilatation(PHI, 2), "factor", PHI_SQUARED),
        (InteriorOrbit("o", 2, 3, 1), "size", 4),
        (VertexPiece("E", "periodic", -1), "euler", -2),
        (ReductionAnnulus("A", F(1, 2), (None, None)), "twist", F(1, 3)),
        (NTDecomposition((VertexPiece("E", "periodic", -1),), (),
                         {"E": "E"}, {}),
         "pieces", (VertexPiece("E", "periodic", -2),)),
        (FixedClassRecord(1, 1, "interior orbit o", 1), "carrier", "other"),
        (_ClassFamily(1, 1, 1, "interior orbit o"), "classes", 2),
        (ROW, "nielsen", 3),
        (IndexedOrbitTable((ROW,), ("E",)), "remainder", ()),
        (TORUS, "generators", ("x", "y")),
        (MONODROMY, "inverse_images", None),
        (MT, "relators", MT.relators[:-1]),
        (TRIVIAL, "matrices",
         FiniteRepresentation.fibered_character(MT, -1).matrices),
        (SURFACE, "cell_names", RENAMED),
        (FLOW, "surface", replace(SURFACE, cell_names=RENAMED)),
        (HomologyAction.from_monodromy_matrix(((2, 1), (1, 1))), "h2",
         ((-1,),)),
        (torsion_from_cellular(SURFACE, FLOW, TRIVIAL), "acyclic", False),
        (builtin_group("S3"), "name", "S3'"),
        (ORBITS, "rows", (("o", 2, 0),)),
        (NielsenBound(3), "indexed_counts", ((1, 3),)),
        (serialize.Fixture(serialize.KIND_TORUS, Mat2(2, 1, 1, 1)), "payload",
         Mat2(1, 1, 1, 2)),
        (serialize.OrbitProjectionFixture("S3", ORBITS, False), "attained",
         True),
        # the slotted exact values
        (Cyclotomic(5, (1, 2)), "coeffs", (0, 1, 0, 0)),
        (LaurentPolynomial({0: 1, 2: 3}), "terms", {1: 1}),
        (ONE_OVER_1_MINUS_T, "num", LaurentPolynomial({1: 2})),
        (NormalizedTorsionClass(ONE_OVER_1_MINUS_T), "value",
         RationalFunction(LaurentPolynomial({0: 1, 1: 1}))),
        (PolyMatrix.identity(2), "sparse", PolyMatrix.zero(2, 2).sparse),
        (Mat2(2, 1, 1, 1), "d", 2),
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    classes = {type(record) for record, _, _ in RECORDS}
    assert len(classes) == len(RECORDS) == 35
    assert classes == set(Record.__subclasses__())
    # a slotted record carries no instance dict
    assert {type(record) for record, _, _ in RECORDS
            if not hasattr(record, "__dict__")} == {
                Cyclotomic, LaurentPolynomial, RationalFunction,
                NormalizedTorsionClass, PolyMatrix, Mat2}


@pytest.mark.parametrize("record, field, other", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, field, other):
    copy = replace(record)
    assert copy == record and copy is not record
    changed = replace(record, **{field: other})
    assert changed != record and getattr(changed, field) == other
    assert record != record._values(record)
    for name in (field, "unknown"):
        with pytest.raises(AttributeError, match="records are immutable"):
            setattr(record, name, other)
        with pytest.raises(AttributeError, match="records are immutable"):
            delattr(record, name)
    if type(record).__hash__ is not None:
        assert hash(copy) == hash(record)
    else:
        assert isinstance(record, Dilatation)


def test_record_fields_follow_the_constructor():
    assert ModVerdict._fields == ("modulus", "conjugate", "witness")
    assert repr(ModVerdict(5, True, None)) == (
        "ModVerdict(modulus=5, conjugate=True, witness=None)")
    assert repr(OrbitProjectionTable((("o", 1, 0),))) == (
        "OrbitProjectionTable(rows=(('o', 1, 0),))")
    assert OrbitProjectionTable._values(ORBITS) == ((("o", 1, 0),),)
    assert hash(ModVerdict(5, True, None)) == hash((5, True, None))
    with pytest.raises(TypeError):
        replace(ModVerdict(5, True, None), level=5)


def test_record_is_the_one_immutable_value_mechanism():
    # no class but `Record` guards assignment or deletion, and a class
    # that declares __slots__ is a record
    guards, slotted = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name == "Record":
                continue
            names = {target.id for statement in node.body
                     if isinstance(statement, ast.Assign)
                     for target in statement.targets
                     if isinstance(target, ast.Name)}
            names |= {statement.name for statement in node.body
                      if isinstance(statement, ast.FunctionDef)}
            where = f"{path.stem}.{node.name}"
            if names & {"__setattr__", "__delattr__"}:
                guards.append(where)
            bases = {base.id for base in node.bases
                     if isinstance(base, ast.Name)}
            if "__slots__" in names and "Record" not in bases:
                slotted.append(where)
    assert (guards, slotted) == ([], [])
    assert not issubclass(cli.FiberedBundle, Record)
