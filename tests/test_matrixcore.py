from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from switchcert import (
    COMPLEX_PAIR,
    DEFECTIVE,
    REAL,
    DimensionMismatch,
    JordanBlockSpec,
    NearDefective,
    ReconstructionMismatch,
    SingularP,
    assemble_jordan,
    complex_block,
    decomposition_from_parts,
    defective_block,
    exp_jordan,
    normalize_columns,
    real_block,
    real_jordan,
    smallest_singular_value,
    spectral_abscissa,
    spectral_norm,
)

import helpers


# ---------------------------------------------------------------------------
# norms and singular values


def test_spectral_norm_matches_svd_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) * 10.0 ** float(rng.integers(-3, 4))
        npt.assert_allclose(
            spectral_norm(m), helpers.svd_spectral_norm(m), rtol=1e-10, atol=1e-12
        )
    for n in range(1, 7):
        stack = rng.standard_normal((40, n, n)) * 10.0 ** rng.integers(-3, 4, (40, 1, 1))
        npt.assert_allclose(
            spectral_norm(stack),
            [helpers.svd_spectral_norm(m) for m in stack],
            rtol=1e-10,
            atol=1e-12,
        )


def test_smallest_singular_matches_svd_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n))
        npt.assert_allclose(
            smallest_singular_value(m),
            helpers.svd_smallest_singular(m),
            rtol=1e-9,
            atol=1e-12,
        )


def test_spectral_norm_close_singular_values(rng):
    # Nearly equal singular values cancel in the 2x2 closed form's
    # discriminant; the result must still match the SVD closely.
    stack = []
    for k in range(200):
        gap = 10.0 ** (-14.0 + 12.0 * k / 199)
        m = helpers.random_orthogonal(rng, 2) @ np.diag([1.0, math.exp(-gap)])
        m *= 10.0 ** float(rng.uniform(-3, 3))
        npt.assert_allclose(spectral_norm(m), helpers.svd_spectral_norm(m), rtol=1e-11)
        stack.append(m)
    npt.assert_allclose(
        spectral_norm(np.array(stack)),
        [helpers.svd_spectral_norm(m) for m in stack],
        rtol=1e-11,
    )


def test_spectral_norm_huge_and_tiny_entries_no_overflow():
    m = np.array([[1e200, 0.0], [0.0, 1e-200]])
    assert spectral_norm(m) == pytest.approx(1e200)
    assert smallest_singular_value(m) == pytest.approx(1e-200)
    assert spectral_norm(np.zeros((2, 2))) == 0.0
    stack = np.array([m, np.zeros((2, 2)), [[np.inf, 1.0], [0.0, 1.0]]])
    npt.assert_allclose(spectral_norm(stack), [1e200, 0.0, np.inf], rtol=1e-15)


def test_inverse_norm_is_reciprocal_smallest_singular(rng):
    # ||A^-1|| = 1 / s_min(A) for invertible A.
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a = helpers.random_invertible(rng, n)
        npt.assert_allclose(
            spectral_norm(np.linalg.inv(a)),
            1.0 / smallest_singular_value(a),
            rtol=1e-9,
        )


def test_contractive_product_forces_small_singular_values(rng):
    # ||A|| >= 1, ||B|| >= 1, ||AB|| < 1 together force s_min < 1 on both.
    for _ in range(100):
        n = int(rng.integers(2, 5))
        u = helpers.random_orthogonal(rng, n)
        v = helpers.random_orthogonal(rng, n)
        w = helpers.random_orthogonal(rng, n)
        a_diag = np.sort(rng.uniform(0.01, 0.9, n))[::-1]
        a_diag[0] = rng.uniform(1.0, 5.0)
        b_diag = 1.0 / a_diag * rng.uniform(0.1, 0.95, n)
        b_diag[-1] = max(b_diag[-1], rng.uniform(1.0, 5.0))
        a = u @ np.diag(a_diag) @ v.T
        b = v @ np.diag(b_diag) @ w.T
        if spectral_norm(a) < 1 or spectral_norm(b) < 1:
            continue
        if spectral_norm(a @ b) >= 1:
            continue
        assert smallest_singular_value(a) < 1
        assert smallest_singular_value(b) < 1


def test_spectral_abscissa_known_values():
    assert spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)
    rotation = np.array([[0.5, -2.0], [2.0, 0.5]])
    assert spectral_abscissa(rotation) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# block specs and exponentials


def test_block_spec_validation():
    with pytest.raises(ValueError):
        JordanBlockSpec("nonsense", 0.0)
    with pytest.raises(ValueError):
        complex_block(1.0, 0.0)  # complex pair needs mu > 0
    with pytest.raises(ValueError):
        defective_block(1.0, 1)  # defective block needs size >= 2
    assert real_block(2.0).dim == 1
    assert complex_block(1.0, 3.0).dim == 2
    assert defective_block(0.5, 3).dim == 3


def test_assemble_jordan_layout():
    blocks = [real_block(-1.0), complex_block(2.0, 3.0), defective_block(0.5, 2)]
    j = assemble_jordan(blocks)
    expected = np.array(
        [
            [-1.0, 0, 0, 0, 0],
            [0, 2.0, 3.0, 0, 0],
            [0, -3.0, 2.0, 0, 0],
            [0, 0, 0, 0.5, 1.0],
            [0, 0, 0, 0, 0.5],
        ]
    )
    npt.assert_allclose(j, expected)


def test_exp_jordan_matches_scipy_expm(rng):
    for _ in range(60):
        blocks = []
        total = 0
        while total < 4:
            kind = rng.choice(["real", "complex", "defective"])
            if kind == "real":
                blocks.append(real_block(float(rng.uniform(-3, 3))))
            elif kind == "complex":
                blocks.append(
                    complex_block(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 4)))
                )
            else:
                blocks.append(defective_block(float(rng.uniform(-2, 2)), 2))
            total += blocks[-1].dim
        t = float(rng.uniform(0.0, 3.0))
        direct = scipy.linalg.expm(assemble_jordan(blocks) * t)
        npt.assert_allclose(exp_jordan(blocks, t), direct, rtol=1e-9, atol=1e-9)
        ts = rng.uniform(0.0, 3.0, 5)
        stack = exp_jordan(blocks, ts)
        assert stack.shape == (5, total, total)
        for t, e in zip(ts, stack):
            direct = scipy.linalg.expm(assemble_jordan(blocks) * t)
            npt.assert_allclose(e, direct, rtol=1e-9, atol=1e-9)


def test_exp_jordan_defective_polynomial_terms():
    blocks = [defective_block(0.0, 3)]
    t = 1.7
    e = exp_jordan(blocks, t)
    npt.assert_allclose(e[0], [1.0, t, t * t / 2.0], rtol=1e-12)
    npt.assert_allclose(np.diag(e), np.ones(3))


# ---------------------------------------------------------------------------
# real Jordan decomposition


def test_real_jordan_reconstructs_random_matrices(rng):
    count = 0
    while count < 150:
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) * rng.uniform(0.5, 3)
        try:
            dec = real_jordan(a)
        except NearDefective:
            continue
        count += 1
        rebuilt = dec.P @ assemble_jordan(dec.blocks) @ dec.P_inv
        npt.assert_allclose(rebuilt, a, rtol=0, atol=1e-7 * spectral_norm(a) + 1e-10)
        # matrix exponential through the decomposition agrees with scipy
        t = float(rng.uniform(0.1, 2.0))
        via_blocks = dec.P @ exp_jordan(dec.blocks, t) @ dec.P_inv
        npt.assert_allclose(
            via_blocks, scipy.linalg.expm(a * t), rtol=1e-6, atol=1e-8
        )


def test_real_jordan_orders_blocks_by_eigenvalue():
    a = np.diag([3.0, -1.0, 0.5])
    dec = real_jordan(a)
    assert [b.lam for b in dec.blocks] == [-1.0, 0.5, 3.0]
    assert all(b.kind == REAL for b in dec.blocks)


def test_real_jordan_complex_pair_detection():
    a = np.array([[1.0, -2.0], [2.0, 1.0]])  # eigenvalues 1 +- 2i
    dec = real_jordan(a)
    assert len(dec.blocks) == 1
    block = dec.blocks[0]
    assert block.kind == COMPLEX_PAIR
    assert block.lam == pytest.approx(1.0)
    assert block.mu == pytest.approx(2.0)
    rebuilt = dec.P @ assemble_jordan(dec.blocks) @ dec.P_inv
    npt.assert_allclose(rebuilt, a, atol=1e-10)


def test_real_jordan_complex_pair_columns_balanced(rng):
    for _ in range(25):
        lam = float(rng.uniform(-1, 1))
        mu = float(rng.uniform(0.5, 3))
        p = helpers.random_invertible(rng, 2)
        a = p @ np.array([[lam, mu], [-mu, lam]]) @ np.linalg.inv(p)
        dec = real_jordan(a)
        norms = np.linalg.norm(dec.P, axis=0)
        assert norms[0] == pytest.approx(norms[1], rel=1e-9)


def test_real_jordan_rejects_defective():
    with pytest.raises(NearDefective):
        real_jordan(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_real_jordan_rejects_near_defective_gap():
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]])
    with pytest.raises(NearDefective):
        real_jordan(a)


def test_real_jordan_unit_norm_real_columns():
    _, mats = helpers.symmetric_saddle_ring()
    for a in mats:
        dec = real_jordan(a)
        npt.assert_allclose(np.linalg.norm(dec.P, axis=0), np.ones(2), rtol=1e-12)


# ---------------------------------------------------------------------------
# decomposition_from_parts / normalize_columns


def test_from_parts_accepts_exact_parts():
    p = np.array([[1.0, 1.0], [0.0, 1.0]])
    blocks = [real_block(-1.0), real_block(2.0)]
    a = p @ np.diag([-1.0, 2.0]) @ np.linalg.inv(p)
    dec = decomposition_from_parts(p, blocks, a)
    npt.assert_allclose(dec.P_inv @ p, np.eye(2), atol=1e-12)
    assert dec.spectral_abscissa == pytest.approx(2.0)


def test_from_parts_rejects_mismatched_matrix():
    p = np.eye(2)
    blocks = [real_block(-1.0), real_block(2.0)]
    with pytest.raises(ReconstructionMismatch):
        decomposition_from_parts(p, blocks, np.diag([-1.0, 2.5]))


def test_from_parts_rejects_singular_basis():
    p = np.array([[1.0, 2.0], [2.0, 4.0]])
    blocks = [real_block(-1.0), real_block(2.0)]
    with pytest.raises(SingularP):
        decomposition_from_parts(p, blocks, np.diag([-1.0, 2.0]))


def test_from_parts_rejects_dimension_mismatch():
    p = np.eye(3)
    blocks = [real_block(-1.0), real_block(2.0)]
    with pytest.raises(DimensionMismatch):
        decomposition_from_parts(p, blocks, np.diag([-1.0, 2.0, 3.0]))


def test_normalize_columns_unit_norm_and_same_matrix(rng):
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        try:
            dec = real_jordan(a)
        except NearDefective:
            continue
        # rescale each Jordan block's columns by a common factor: this is a
        # valid change of basis (scalars commute with the block)
        factors = np.concatenate(
            [np.full(b.dim, rng.uniform(0.5, 4.0)) for b in dec.blocks]
        )
        scaled = normalize_columns(
            decomposition_from_parts(dec.P * factors, dec.blocks, a)
        )
        for block_start, block in _block_spans(scaled.blocks):
            cols = scaled.P[:, block_start : block_start + block.dim]
            if block.kind == REAL:
                assert np.linalg.norm(cols) == pytest.approx(1.0, rel=1e-9)
        rebuilt = scaled.P @ assemble_jordan(scaled.blocks) @ scaled.P_inv
        npt.assert_allclose(rebuilt, a, atol=1e-8 * spectral_norm(a) + 1e-10)


def _block_spans(blocks):
    start = 0
    for block in blocks:
        yield start, block
        start += block.dim
