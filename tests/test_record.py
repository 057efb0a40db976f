"""The record contract of the library's data types.

Every record class is immutable (but `FiberedBundle`, the CLI's mutable
per-fixture cache entry), equal to a copy rebuilt through its constructor,
and unequal once a field changes; the hashable ones hash alike when equal.
What a request imports at start-up is tested in `test_cli.py`
(`TestImportFootprint`)."""

from fractions import Fraction as F

import pytest

from procong import cli, serialize
from procong.cellular import (CellularSelfMap, CellularSurface,
                              CellularTorsion, HomologyAction, cellular_model,
                              torsion_from_cellular)
from procong.chars import (FiniteGroupTable, NielsenBound,
                           OrbitProjectionTable, builtin_group)
from procong.ntform import (Dilatation, FixedClassRecord, IndexedOrbitTable,
                            InteriorOrbit, NTDecomposition, OrbitRow,
                            ReductionAnnulus, StretchFactor, VertexPiece,
                            _ClassFamily)
from procong.record import Record
from procong.surfgrp import (FiniteRepresentation, GeneratorEndomorphism,
                             MappingTorusPresentation, SurfacePresentation,
                             mapping_torus)
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


def _records():
    """(record, field, another value of the field) per record class."""
    return [
        (SL2Verdict(True, Mat2(1, 0, 0, 1), "equal"), "reason", "other"),
        (ModVerdict(5, True, None), "modulus", 6),
        (congruence_sweep(Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2), 4),
         "max_modulus", 5),
        (cli.RunConfig("torus conj", ("2,1;1,1", "1,1;1,2")), "rep", "sign"),
        (cli.FiberedBundle(SURFACE, FLOW, MT), "reps", {"trivial": TRIVIAL}),
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
    ]


RECORDS = _records()


def test_every_record_class_is_covered():
    classes = {type(record) for record, _, _ in RECORDS}
    assert len(classes) == len(RECORDS) == 28
    assert {FiniteGroupTable, CellularSurface, CellularSelfMap,
            CellularTorsion, MappingTorusPresentation} <= classes
    assert all(isinstance(record, Record) for record, _, _ in RECORDS)


@pytest.mark.parametrize("record, field, other", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, field, other):
    copy = replace(record)
    assert copy == record and copy is not record
    changed = replace(record, **{field: other})
    assert changed != record and getattr(changed, field) == other
    assert record != record._values(record)
    if isinstance(record, cli.FiberedBundle):
        # the CLI's cache entry: mutable, so unhashable
        assert type(record).__hash__ is None
        copy.reps = {"trivial": TRIVIAL}
        assert copy == changed
        return
    for name in (field, "unknown"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, name, other)
        with pytest.raises(AttributeError, match="immutable"):
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
