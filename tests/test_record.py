from fractions import Fraction

import pytest

from eisbasis import Basis, BasisElement, QSeries, eisenstein, new_basis, verify_report
from eisbasis.arith import DimensionData, dimension_data
from eisbasis.basis import BasisKind, CuspCombo, Monomial, Product, Single, VerificationReport

FIELDS = {
    DimensionData: ("weight", "dim_cusp", "dim_modular"),
    QSeries: ("weight", "numerators", "denominator"),
    Single: ("weight",),
    Product: ("u", "v"),
    CuspCombo: ("u", "v", "c"),
    Monomial: ("alpha", "beta"),
    BasisElement: ("descriptor", "series"),
    Basis: ("weight", "kind", "precision", "elements"),
    VerificationReport: (
        "weight",
        "kind",
        "element_count",
        "expected_count",
        "determinant",
        "constant_terms_vanish",
    ),
}


# one builder per record class, in FIELDS order; each call builds afresh
EXAMPLES = [
    lambda: dimension_data(36),
    lambda: QSeries(4, [Fraction(1, 240), 1, 9]),
    lambda: Single(12),
    lambda: Product(4, 8),
    lambda: CuspCombo(4, 8, Fraction(-1, 3)),
    lambda: Monomial(3, 0),
    lambda: BasisElement(Single(12), eisenstein(12, 16)),
    lambda: Basis(12, "new-m", 16, new_basis(12, 16).elements),
    lambda: verify_report(new_basis(12, 16)),
]
EXAMPLE_IDS = [cls.__name__ for cls in FIELDS]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_fields_are_the_annotated_names_in_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("build", EXAMPLES, ids=EXAMPLE_IDS)
def test_equal_fields_are_equal_and_hash_alike(build):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in FIELDS[type(a)]))


def test_records_of_different_classes_are_unequal():
    assert Product(4, 8) != Monomial(4, 8)
    assert Product(4, 8) != (4, 8)
    assert Product(4, 8) != Product(8, 4)
    assert Product(4, 8).__eq__(Monomial(4, 8)) is NotImplemented


def test_reprs_name_every_field():
    assert repr(dimension_data(36)) == "DimensionData(weight=36, dim_cusp=3, dim_modular=4)"
    assert repr(Product(4, 8)) == "Product(u=4, v=8)"
    assert repr(CuspCombo(4, 8, Fraction(-1, 3))) == "CuspCombo(u=4, v=8, c=Fraction(-1, 3))"
    assert repr(Monomial(3, 0)) == "Monomial(alpha=3, beta=0)"
    assert repr(Basis(4, "new-s", 16, ())) == (
        "Basis(weight=4, kind=<BasisKind.NEW_S: 'new-s'>, precision=16, elements=())"
    )
    assert repr(verify_report(new_basis(12, 16))) == (
        "VerificationReport(weight=12, kind=<BasisKind.NEW_M: 'new-m'>, element_count=2, "
        "expected_count=2, determinant=Fraction(1, 17472), constant_terms_vanish=None)"
    )
    # QSeries keeps its own repr
    assert repr(eisenstein(4, 8)) == "QSeries(weight=4, precision=8, coeffs=(1/240, 1, 9, 28, ...))"


@pytest.mark.parametrize("build", EXAMPLES, ids=EXAMPLE_IDS)
def test_assignment_and_deletion_raise(build):
    record = build()
    name = FIELDS[type(record)][0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 0
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert record == build()


def test_cached_values_are_kept_without_changing_equality():
    # QSeries.coeffs and Basis._express_system write the instance __dict__
    basis = new_basis(12, 21)
    series = basis.elements[1].series
    series.coeffs
    basis._express_system
    assert "coeffs" in vars(series)
    assert "_express_system" in vars(basis)
    assert series == QSeries(12, series.coeffs)
    assert basis == Basis(12, BasisKind.NEW_M, 21, basis.elements)


@pytest.mark.parametrize(
    "cls, args",
    [(Product, (4,)), (Product, (4, 8, 12)), (Single, ()), (Basis, (12, "new-m", 16))],
    ids=["too-few", "too-many", "none", "basis"],
)
def test_a_wrong_argument_count_is_a_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args)
