"""Sparse exact linear algebra against the dense reference elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_apply, dense_kernel, dense_rref, solve_linear
from prolong.groebner import (
    ExactMatrix,
    _rref,
    apply_matrix,
    kernel_basis,
    matrix_product,
    rank,
)
from prolong.scalars import GF, QQ

FIELDS = {"QQ": QQ, "GF(7)": GF(7)}


def _scalars(field):
    if field.is_rational:
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    else:
        value = st.integers(0, 20)
    # three zero branches out of four: fiber matrices are mostly zeros
    return st.one_of(st.just(0), st.just(0), st.just(0), value)


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(0, 7))
    row = st.lists(_scalars(field), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return ExactMatrix(field, rows, ncols=ncols), rows


def _coerced(field, rows):
    return [[field.coerce(v) for v in row] for row in rows]


field_names = st.sampled_from(sorted(FIELDS))
common = settings(max_examples=150, deadline=None)


@common
@given(st.data(), field_names)
def test_rows_view_is_the_coerced_input(data, name):
    field = FIELDS[name]
    matrix, rows = data.draw(matrices(field))
    assert matrix.rows == _coerced(field, rows)
    assert matrix.nrows == len(rows)


@common
@given(st.data(), field_names)
def test_elimination_matches_dense_reference(data, name):
    field = FIELDS[name]
    matrix, rows = data.draw(matrices(field))
    echelon, pivots = _rref(field, matrix.entries)
    ref_echelon, ref_pivots = dense_rref(field, _coerced(field, rows), matrix.ncols)
    assert pivots == ref_pivots
    zero = field.zero
    assert [[r.get(c, zero) for c in range(matrix.ncols)] for r in echelon] == (
        ref_echelon
    )
    assert rank(matrix) == len(ref_pivots)
    assert kernel_basis(matrix) == dense_kernel(field, rows, matrix.ncols)


@common
@given(st.data(), field_names)
def test_solve_linear_matches_dense_reference(data, name):
    field = FIELDS[name]
    matrix, rows = data.draw(matrices(field))
    rhs = data.draw(st.lists(_scalars(field), min_size=len(rows), max_size=len(rows)))
    n = matrix.ncols
    augmented = _coerced(field, [row + [v] for row, v in zip(rows, rhs)])
    echelon, pivots = dense_rref(field, augmented, n + 1)
    if n in pivots:
        expected = None
    else:
        expected = [field.zero] * n
        for r, c in enumerate(pivots):
            expected[c] = echelon[r][n]
    assert solve_linear(matrix, rhs) == expected


@common
@given(st.data(), field_names)
def test_apply_and_product_match_dense_reference(data, name):
    field = FIELDS[name]
    a, a_rows = data.draw(matrices(field))
    vec = data.draw(st.lists(_scalars(field), min_size=a.ncols, max_size=a.ncols))
    coerced = [field.coerce(v) for v in vec]
    assert apply_matrix(a, vec) == dense_apply(field, a_rows, coerced)
    b, b_rows = data.draw(matrices(field, nrows=a.ncols))
    columns = [[row[j] for row in _coerced(field, b_rows)] for j in range(b.ncols)]
    expected = [
        [dense_apply(field, [row], col)[0] for col in columns]
        for row in a_rows
    ]
    assert matrix_product(a, b).rows == expected


def test_apply_matrix_validates_the_vector():
    m = ExactMatrix(QQ, [[1, 0], [0, 2]])
    with pytest.raises(TypeError):
        apply_matrix(m, [1, True])
    # coerced even where the matching column is all zeros
    with pytest.raises(TypeError):
        apply_matrix(ExactMatrix(QQ, [[1, 0]]), [0, False])
    with pytest.raises(ValueError):
        apply_matrix(m, [1, 2, 3])
