"""Dense linear-algebra primitives for small state matrices.

This module owns the numeric conventions everything else builds on:

* spectral norms and extreme singular values (exact closed forms for
  n <= 2, LAPACK above that);
* real spectral decompositions ``A = P J P^-1`` where ``J`` is block diagonal
  with 1x1 real-eigenvalue blocks, 2x2 rotation-scaling blocks for complex
  conjugate pairs, and (only when supplied by the caller) real Jordan blocks
  for defective eigenvalues;
* analytic exponentials of the block structure, from which every mode
  exponential in the package is taken (there is no dense ``expm``; the
  tests use scipy's as an independent oracle).

Matrices are plain numpy arrays throughout. All routines are direct dense
methods and are capped at dimension ``MAX_DIM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NearDefective,
    ReconstructionMismatch,
    SingularP,
)

MAX_DIM = 16

#: Jordan block kinds.
REAL = "real-eigenvalue"
COMPLEX_PAIR = "complex-conjugate-pair"
DEFECTIVE = "defective-real"

_KINDS = (REAL, COMPLEX_PAIR, DEFECTIVE)


def as_square_matrix(M, name="matrix"):
    """Return a float copy of ``M`` validated as square, finite, n <= MAX_DIM."""
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {A.shape}")
    n = A.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise DimensionMismatch(f"{name} dimension {n} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def spectral_norm(M):
    """Largest singular value of ``M`` (exact closed form for n <= 2)."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 1:
        return abs(float(A[0, 0]))
    if n == 2:
        # Work on A / max|a_ij| so the squared quantities below cannot
        # overflow; singular values scale linearly with the factor.
        scale = float(np.max(np.abs(A)))
        if scale == 0.0:
            return 0.0
        if not math.isfinite(scale):
            return math.inf
        B = A / scale
        f2 = float(B[0, 0] ** 2 + B[0, 1] ** 2 + B[1, 0] ** 2 + B[1, 1] ** 2)
        det = float(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
        disc = max((0.5 * f2) ** 2 - det * det, 0.0)
        if disc < 1e-8 * (0.5 * f2) ** 2:
            # Close singular values cancel in the difference of squares; use
            # f2 - 2|det| = (b00 -+ b11)^2 + (b01 +- b10)^2 (sign of det).
            sg = 1.0 if det >= 0.0 else -1.0
            gap = float((B[0, 0] - sg * B[1, 1]) ** 2 + (B[0, 1] + sg * B[1, 0]) ** 2)
            disc = 0.25 * gap * (f2 + 2.0 * abs(det))
        return scale * math.sqrt(0.5 * f2 + math.sqrt(disc))
    return float(np.linalg.svd(A, compute_uv=False)[0])


def smallest_singular_value(M):
    """Smallest singular value of ``M``.

    For n == 2 this uses s_min = |det| / s_max, which avoids the cancellation
    of the direct closed form for nearly singular matrices.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 1:
        return abs(float(A[0, 0]))
    if n == 2:
        scale = float(np.max(np.abs(A)))
        if scale == 0.0 or not math.isfinite(scale):
            return 0.0 if scale == 0.0 else math.inf
        B = A / scale
        smax = spectral_norm(B)
        if smax == 0.0:
            return 0.0
        det = float(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
        return scale * abs(det) / smax
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def spectral_abscissa(A):
    """Largest real part over the eigenvalues of ``A``."""
    A = as_square_matrix(A)
    return float(np.linalg.eigvals(A).real.max())


@dataclass(frozen=True)
class JordanBlockSpec:
    """One block of a real Jordan structure.

    ``kind`` is one of :data:`REAL` (1x1, ``mu == 0``), :data:`COMPLEX_PAIR`
    (2x2 block [[lam, mu], [-mu, lam]], ``mu > 0``) or :data:`DEFECTIVE`
    (``size`` x ``size`` real Jordan block with ones on the superdiagonal).
    """

    kind: str
    lam: float
    mu: float = 0.0
    size: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError("block eigenvalue parts must be finite")
        if self.kind == REAL:
            if self.size != 1 or self.mu != 0.0:
                raise ValueError("real-eigenvalue block needs size 1, mu 0")
        elif self.kind == COMPLEX_PAIR:
            if self.size != 2:
                raise ValueError("complex-conjugate-pair block has size 2")
            if self.mu <= 0.0:
                raise ValueError("complex-conjugate-pair block needs mu > 0")
        else:
            if self.size < 2:
                raise ValueError("defective-real block needs size >= 2")
            if self.mu != 0.0:
                raise ValueError("defective-real block needs mu 0")

    @property
    def dim(self):
        """Number of state dimensions the block occupies."""
        if self.kind == REAL:
            return 1
        return 2 if self.kind == COMPLEX_PAIR else self.size


def real_block(lam):
    return JordanBlockSpec(REAL, float(lam))


def complex_block(lam, mu):
    return JordanBlockSpec(COMPLEX_PAIR, float(lam), float(mu), 2)


def defective_block(lam, size):
    return JordanBlockSpec(DEFECTIVE, float(lam), 0.0, int(size))


def _block_matrix(b):
    if b.kind == REAL:
        return np.array([[b.lam]])
    if b.kind == COMPLEX_PAIR:
        return np.array([[b.lam, b.mu], [-b.mu, b.lam]])
    return b.lam * np.eye(b.size) + np.diag(np.ones(b.size - 1), 1)


def _block_exp(b, t):
    if b.kind == REAL:
        return np.array([[math.exp(b.lam * t)]])
    if b.kind == COMPLEX_PAIR:
        e = math.exp(b.lam * t)
        c, s = math.cos(b.mu * t), math.sin(b.mu * t)
        return e * np.array([[c, s], [-s, c]])
    m = b.size
    U = np.zeros((m, m))
    for j in range(m):
        np.fill_diagonal(U[:, j:], t**j / math.factorial(j))
    return math.exp(b.lam * t) * U


def _block_diag(mats):
    out = np.zeros((sum(len(m) for m in mats),) * 2)
    offset = 0
    for m in mats:
        out[offset : offset + len(m), offset : offset + len(m)] = m
        offset += len(m)
    return out


def assemble_jordan(blocks):
    """Block-diagonal J matrix for a block list."""
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    return _block_diag([_block_matrix(b) for b in blocks])


def exp_jordan(blocks, t):
    """exp(J t) assembled analytically from the block structure."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if all(b.kind == REAL for b in blocks):
        return np.diag(np.exp(np.array([b.lam for b in blocks]) * t))
    return _block_diag([_block_exp(b, t) for b in blocks])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real spectral factorization ``A = P J P^-1``.

    ``blocks`` determines ``J`` (see :func:`assemble_jordan`); ``source`` is
    the matrix the factorization reproduces. Arrays are stored read-only.
    """

    P: np.ndarray
    blocks: tuple
    source: np.ndarray
    P_inv: np.ndarray
    condition_number: float

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def spectral_abscissa(self):
        return max(b.lam for b in self.blocks)

    def jordan_matrix(self):
        return assemble_jordan(self.blocks)


def _freeze(A):
    A = np.ascontiguousarray(A, dtype=float)
    A.setflags(write=False)
    return A


def _assemble_decomposition(P, blocks, source):
    P_inv = np.linalg.inv(P)
    cond = spectral_norm(P) * spectral_norm(P_inv)
    return SpectralDecomposition(
        P=_freeze(P),
        blocks=tuple(blocks),
        source=_freeze(source),
        P_inv=_freeze(P_inv),
        condition_number=float(cond),
    )


def _reconstruction_residual(dec):
    J = assemble_jordan(dec.blocks)
    return spectral_norm(dec.P @ J @ dec.P_inv - dec.source)


def _equalize_pair(u, w):
    """Rescale the real/imaginary column pair to equal (unit) norms.

    Multiplying a complex eigenvector by ``r e^{i theta}`` rotates and scales
    the plane spanned by (u, w) while preserving the 2x2 block form; theta is
    chosen so both real columns end up with the same Euclidean norm.
    """
    theta = 0.5 * math.atan2(float(u @ u - w @ w), 2.0 * float(u @ w))
    c, s = math.cos(theta), math.sin(theta)
    u2 = c * u - s * w
    w2 = s * u + c * w
    scale = math.sqrt(np.linalg.norm(u2) * np.linalg.norm(w2))
    if scale == 0.0:
        raise SingularP("degenerate complex eigenvector pair")
    return u2 / scale, w2 / scale


def real_jordan(A, gap_tol=None):
    """Compute a real spectral decomposition of ``A`` with unit-norm columns.

    Eigenvalues must be simple: if the minimum pairwise eigenvalue gap falls
    below ``gap_tol`` (default ``1e-6 * ||A||``) the matrix is treated as
    numerically defective and :class:`NearDefective` is raised — supply the
    block structure through :func:`decomposition_from_parts` in that case.

    Blocks are ordered by ascending real part (then rotation rate), columns
    are normalized to unit Euclidean norm, and the reconstruction residual is
    validated against ``1e-8 * ||A||``.
    """
    A = as_square_matrix(A, "A")
    n = A.shape[0]
    norm_a = spectral_norm(A)
    if gap_tol is None:
        gap_tol = 1e-6 * norm_a
    w, V = np.linalg.eig(A)
    if n >= 2:
        gap = min(
            abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n)
        )
        if gap < gap_tol:
            raise NearDefective(
                "minimum eigenvalue gap %.3g below tolerance %.3g; supply an "
                "explicit block structure" % (gap, gap_tol)
            )
    imag_tol = 1e-12 * max(1.0, float(np.abs(w).max()))
    used = np.zeros(n, dtype=bool)
    entries = []
    for i in range(n):
        if used[i]:
            continue
        lam = w[i]
        if abs(lam.imag) <= imag_tol:
            used[i] = True
            v = V[:, i].real.copy()
            nv = np.linalg.norm(v)
            if nv == 0.0:
                raise SingularP("zero eigenvector returned by eig")
            v /= nv
            if v[int(np.argmax(np.abs(v)))] < 0:
                v = -v
            entries.append(((lam.real, 0.0), real_block(lam.real), [v]))
        else:
            if lam.imag < 0:
                lam = lam.conjugate()
                vec = np.conj(V[:, i])
            else:
                vec = V[:, i]
            target = lam.conjugate()
            j = min(
                (jj for jj in range(n) if not used[jj] and jj != i),
                key=lambda jj: abs(w[jj] - target),
            )
            used[i] = used[j] = True
            u, wv = _equalize_pair(vec.real.copy(), vec.imag.copy())
            entries.append(
                ((lam.real, lam.imag), complex_block(lam.real, lam.imag), [u, wv])
            )
    entries.sort(key=lambda e: e[0])
    blocks = tuple(e[1] for e in entries)
    P = np.column_stack([col for e in entries for col in e[2]])
    if smallest_singular_value(P) <= 1e-12:
        raise NearDefective("eigenvector matrix numerically singular")
    dec = _assemble_decomposition(P, blocks, A)
    if _reconstruction_residual(dec) > 1e-8 * norm_a + 1e-12:
        raise ReconstructionMismatch(
            "eigendecomposition failed the reconstruction check"
        )
    return dec


def decomposition_from_parts(P, blocks, A, tol=1e-6):
    """Build a decomposition from a user-supplied basis and block structure.

    Columns are stored exactly as given (no re-normalization). ``P`` must be
    invertible and ``P J P^-1`` must reproduce ``A`` within ``tol * ||A||``.
    """
    P = as_square_matrix(P, "P")
    A = as_square_matrix(A, "A")
    blocks = tuple(blocks)
    n = A.shape[0]
    if P.shape[0] != n:
        raise DimensionMismatch("P and A dimensions differ")
    total = sum(b.dim for b in blocks)
    if total != n:
        raise DimensionMismatch(
            f"blocks span dimension {total}, expected {n}"
        )
    if smallest_singular_value(P) <= 1e-12:
        raise SingularP("P is singular to working precision")
    dec = _assemble_decomposition(P, blocks, A)
    residual = _reconstruction_residual(dec)
    if residual > tol * spectral_norm(A) + 1e-14:
        raise ReconstructionMismatch(
            "P J P^-1 differs from A by %.3g (tolerance %.3g)"
            % (residual, tol * spectral_norm(A))
        )
    return dec


def normalize_columns(dec):
    """Return an equivalent decomposition with unit-norm columns.

    Size-1 blocks are normalized per column; complex pairs through the
    norm-equalizing rotation (exact); defective blocks by a single common
    factor (geometric mean of the column norms), since per-column scalings
    would not commute with the block.
    """
    P = np.array(dec.P)
    offset = 0
    for b in dec.blocks:
        d = b.dim
        cols = P[:, offset : offset + d]
        if b.kind == REAL:
            cols /= np.linalg.norm(cols[:, 0])
        elif b.kind == COMPLEX_PAIR:
            u2, w2 = _equalize_pair(cols[:, 0].copy(), cols[:, 1].copy())
            cols[:, 0] = u2
            cols[:, 1] = w2
        else:
            norms = np.linalg.norm(cols, axis=0)
            cols /= math.exp(float(np.mean(np.log(norms))))
        offset += d
    return _assemble_decomposition(P, dec.blocks, dec.source)
