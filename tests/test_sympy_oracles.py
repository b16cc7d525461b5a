"""Integer normal forms and cyclotomic polynomials against sympy's."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile.linalg import hermite_row_basis, smith_normal_form
from zonotile.spectral import _cyclotomic

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

entries = st.one_of(st.integers(-9, 9), st.integers(-(10**20), 10**20))


@st.composite
def int_matrices(draw, max_rows: int = 4, max_cols: int = 4) -> list[list[int]]:
    """Small integer matrices, some with dependent rows or zero rows."""
    nc = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=nc, max_size=nc)
    rows = draw(st.lists(row, min_size=1, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([p * x + q * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(int_matrices())
def test_smith_normal_form_matches_sympy(m):
    u, s, v = smith_normal_form(m)
    mat = sympy.Matrix(m)
    assert sympy.Matrix(u) * mat * sympy.Matrix(v) == sympy.Matrix(s)
    assert abs(sympy.Matrix(u).det()) == 1 and abs(sympy.Matrix(v).det()) == 1
    ref = sympy_snf(mat, domain=sympy.ZZ)
    k = min(len(m), len(m[0]))
    assert [s[i][i] for i in range(k)] == [abs(ref[i, i]) for i in range(k)]


def _row_lattice_hnf(rows):
    # the Hermite normal form is canonical for the lattice spanned by the rows
    return hermite_normal_form(sympy.Matrix(rows).T)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(int_matrices(max_rows=5))
def test_hermite_row_basis_matches_sympy(rows):
    basis = hermite_row_basis(rows)
    assert len(basis) == sympy.Matrix(rows).rank()
    if basis:
        assert _row_lattice_hnf(basis) == _row_lattice_hnf(rows)
    for r, row in enumerate(basis):
        lead = next(c for c, x in enumerate(row) if x)
        assert row[lead] > 0
        assert all(not later[c] for later in basis[r + 1 :] for c in range(lead + 1))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 400))
def test_cyclotomic_matches_sympy(n):
    x = sympy.Symbol("x")
    ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert list(_cyclotomic(n)) == [int(c) for c in reversed(ref)]
