import eisbasis

# the names the README documents and the benchmark reads
PUBLIC = [
    "Basis",
    "BasisElement",
    "QSeries",
    "RatMatrix",
    "SpanError",
    "basis_for",
    "classical_basis",
    "cusp_basis",
    "cusp_correction",
    "default_precision",
    "dimension_data",
    "eisenstein",
    "eisenstein_product",
    "express",
    "new_basis",
    "verify_basis",
    "verify_report",
]

# read as eisbasis.<name> by perfbench's workloads and tests
BENCHMARK_READS = [
    "Basis",
    "BasisElement",
    "QSeries",
    "RatMatrix",
    "SpanError",
    "basis_for",
    "default_precision",
    "dimension_data",
    "express",
    "new_basis",
    "verify_report",
]


def test_exports_exactly_the_documented_names():
    assert sorted(eisbasis.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(eisbasis, name) is not None, name
    assert set(BENCHMARK_READS) <= set(eisbasis.__all__)

