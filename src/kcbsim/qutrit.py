"""Exact linear algebra for a single spin-1 (qutrit) system.

States are complex amplitude triples over the basis (|+1>, |0>, |-1>),
stored as numpy arrays of shape (3,). Operators are 3x3 complex arrays.
All values are immutable by convention: functions return fresh arrays and
never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotUnit, ZeroVector

# Tolerances: algebraic identities at 1e-12, constructed geometry at 1e-10.
ATOL = 1e-12
GEOMETRY_ATOL = 1e-10

KET_PLUS = np.array([1.0, 0.0, 0.0], dtype=complex)
KET_ZERO = np.array([0.0, 1.0, 0.0], dtype=complex)
KET_MINUS = np.array([0.0, 0.0, 1.0], dtype=complex)

IDENTITY = np.eye(3, dtype=complex)


def make_state(c_plus: complex, c_zero: complex, c_minus: complex) -> np.ndarray:
    """Build a normalized state from amplitudes on (|+1>, |0>, |-1>).

    Raises ZeroVector if the amplitudes are numerically all zero.
    """
    amps = np.array([c_plus, c_zero, c_minus], dtype=complex)
    if not np.all(np.isfinite(amps.view(float))):
        raise NonFinite("state amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm < 1e-14:
        raise ZeroVector("cannot normalize the zero vector")
    return amps / norm


def rot_a(theta: float) -> np.ndarray:
    """Real rotation by half-angle theta/2 in the {|+1>, |0>} block.

    |+1> -> cos(theta/2)|+1> - sin(theta/2)|0>,
    |0>  -> sin(theta/2)|+1> + cos(theta/2)|0>,  |-1> untouched.

    The sign is load-bearing: it is the unique choice under which the
    pentagram pulse recipe closes and the pulse-prepared symmetry-axis
    state matches its explicit amplitudes (certified in the pentagram
    module). Do not flip it.
    """
    return _block_rotation(theta, 0, 1)


def rot_b(theta: float) -> np.ndarray:
    """Same rotation as rot_a but in the {|0>, |-1>} block; |+1> untouched."""
    return _block_rotation(theta, 1, 2)


def _block_rotation(theta: float, i: int, j: int) -> np.ndarray:
    if not math.isfinite(theta):
        raise NonFinite(f"rotation angle must be finite, got {theta!r}")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    m = np.eye(3, dtype=complex)
    m[i, i] = c
    m[i, j] = s
    m[j, i] = -s
    m[j, j] = c
    return m


def dagger(op: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return np.asarray(op).conj().T


def compose(ops) -> np.ndarray:
    """Compose operators given in application order (first entry acts first).

    compose([A, B, C]) returns the matrix C @ B @ A, and compose([]) a fresh
    identity, the empty product.
    """
    ops = list(ops)
    if not ops:
        return IDENTITY.copy()
    total = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        total = np.asarray(op, dtype=complex) @ total
    return total


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard spin-1 matrices (S_x, S_y, S_z) with hbar = 1.

    They satisfy [S_x, S_y] = i S_z (cyclically) and
    S_x^2 + S_y^2 + S_z^2 = 2 I.
    """
    r = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, r, 0], [r, 0, r], [0, r, 0]], dtype=complex)
    sy = np.array([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]], dtype=complex)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz


def as_direction(vec) -> np.ndarray:
    """Validate a real unit 3-vector, raising NotUnit otherwise."""
    n = np.asarray(vec, dtype=float)
    if n.shape != (3,):
        raise NotUnit(f"direction must be a real 3-vector, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > ATOL:
        raise NotUnit(f"direction must be unit length, |n| = {np.linalg.norm(n)!r}")
    return n


def cartesian_embed(n) -> np.ndarray:
    """m = 0 eigenstate of the spin component along the unit direction n.

    Uses the vector correspondence |x> = (|-1> - |+1>)/sqrt(2),
    |y> = i(|-1> + |+1>)/sqrt(2), |z> = |0>, under which the embedding of
    n is annihilated by n . S. The global phase is fixed by making the
    largest-magnitude amplitude real and positive.
    """
    nx, ny, nz = as_direction(n)
    r = 1.0 / math.sqrt(2.0)
    psi = np.array(
        [(-nx + 1j * ny) * r, nz + 0j, (nx + 1j * ny) * r],
        dtype=complex,
    )
    return fix_phase(psi)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b>."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def fix_phase(psi: np.ndarray) -> np.ndarray:
    """Canonical global phase: largest-magnitude amplitude real-positive."""
    psi = np.asarray(psi, dtype=complex)
    k = int(np.argmax(np.abs(psi)))
    mag = abs(psi[k])
    if mag < 1e-14:
        raise ZeroVector("cannot fix the phase of the zero vector")
    return psi * (psi[k].conjugate() / mag)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = GEOMETRY_ATOL) -> bool:
    """True when two normalized states coincide up to a global phase."""
    return abs(abs(overlap(a, b)) - 1.0) < tol
