"""Exact linear algebra for a single spin-1 (qutrit) system, in plain Python.

States are complex amplitude triples over the basis (|+1>, |0>, |-1>),
stored as 3-tuples of complex. Operators are 3-tuples of row 3-tuples.
Two primitives, `apply` (operator on state) and `matmul` (operator
product), do all the algebra; the functions accept any 3-sequence (numpy
arrays included) and return tuples, which `np.asarray` converts.
The module loads no numpy, so that `kcbsim exact` and `validate` start
without it.
"""

from __future__ import annotations

import math

from .errors import NonFinite, NotUnit, ZeroVector

# Tolerances: algebraic identities at 1e-12, constructed geometry at 1e-10.
ATOL = 1e-12
GEOMETRY_ATOL = 1e-10

KET_PLUS = (1 + 0j, 0j, 0j)
KET_ZERO = (0j, 1 + 0j, 0j)
KET_MINUS = (0j, 0j, 1 + 0j)

IDENTITY = (KET_PLUS, KET_ZERO, KET_MINUS)


def _finite(amps) -> bool:
    return all(math.isfinite(c.real) and math.isfinite(c.imag) for c in amps)


def make_state(c_plus: complex, c_zero: complex, c_minus: complex) -> tuple:
    """Build a normalized state from amplitudes on (|+1>, |0>, |-1>).

    The norm is one hypot over the six real and imaginary parts, so that
    finite amplitudes whose squares overflow still normalize; where the
    norm itself passes the float range, the parts are first scaled by an
    exact power of two. Raises NonFinite on a NaN or infinite amplitude,
    ZeroVector if the amplitudes are numerically all zero.
    """
    amps = (complex(c_plus), complex(c_zero), complex(c_minus))
    if not _finite(amps):
        raise NonFinite("state amplitudes must be finite")
    parts = [part for c in amps for part in (c.real, c.imag)]
    norm = math.hypot(*parts)
    if math.isinf(norm):
        parts = [part / 4.0 for part in parts]
        norm = math.hypot(*parts)
    if norm < 1e-14:
        raise ZeroVector("cannot normalize the zero vector")
    unit = [part / norm for part in parts]
    return tuple(complex(re, im) for re, im in zip(unit[0::2], unit[1::2]))


def rot_a(theta: float) -> tuple:
    """Real rotation by half-angle theta/2 in the {|+1>, |0>} block.

    |+1> -> cos(theta/2)|+1> - sin(theta/2)|0>,
    |0>  -> sin(theta/2)|+1> + cos(theta/2)|0>,  |-1> untouched.

    The sign is load-bearing: it is the unique choice under which the
    pentagram pulse recipe closes and the pulse-prepared symmetry-axis
    state matches its explicit amplitudes (certified in the pentagram
    module). Do not flip it.
    """
    return _block_rotation(theta, 0, 1)


def rot_b(theta: float) -> tuple:
    """Same rotation as rot_a but in the {|0>, |-1>} block; |+1> untouched."""
    return _block_rotation(theta, 1, 2)


def _block_rotation(theta: float, i: int, j: int) -> tuple:
    if not math.isfinite(theta):
        raise NonFinite(f"rotation angle must be finite, got {theta!r}")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    m = [list(row) for row in IDENTITY]
    m[i][i] = complex(c)
    m[i][j] = complex(s)
    m[j][i] = complex(-s)
    m[j][j] = complex(c)
    return tuple(tuple(row) for row in m)


def apply(op, psi) -> tuple:
    """The state op|psi>."""
    p0, p1, p2 = psi
    return tuple(r[0] * p0 + r[1] * p1 + r[2] * p2 for r in op)


def matmul(a, b) -> tuple:
    """The operator product a b (b acts first)."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return tuple(
        (
            r0 * b00 + r1 * b10 + r2 * b20,
            r0 * b01 + r1 * b11 + r2 * b21,
            r0 * b02 + r1 * b12 + r2 * b22,
        )
        for r0, r1, r2 in a
    )


def dagger(op) -> tuple:
    """Hermitian adjoint."""
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*op))


def compose(ops) -> tuple:
    """Compose operators given in application order (first entry acts first).

    compose([A, B, C]) returns the matrix C B A, and compose([]) the
    identity, the empty product.
    """
    ops = list(ops)
    if not ops:
        return IDENTITY
    total = tuple(tuple(row) for row in ops[0])
    for op in ops[1:]:
        total = matmul(op, total)
    return total


def spin_operators() -> tuple[tuple, tuple, tuple]:
    """Standard spin-1 matrices (S_x, S_y, S_z) with hbar = 1.

    They satisfy [S_x, S_y] = i S_z (cyclically) and
    S_x^2 + S_y^2 + S_z^2 = 2 I.
    """
    r = 1.0 / math.sqrt(2.0)
    z, x, y = 0j, complex(r), 1j * r
    sx = ((z, x, z), (x, z, x), (z, x, z))
    sy = ((z, -y, z), (y, z, -y), (z, y, z))
    sz = ((1 + 0j, z, z), (z, z, z), (z, z, -1 + 0j))
    return sx, sy, sz


def as_direction(vec) -> tuple[float, float, float]:
    """Validate a real unit 3-vector: NonFinite on a NaN or infinite
    component, NotUnit on any other shape or length."""
    try:
        n = tuple(float(x) for x in vec)
    except (TypeError, ValueError):
        raise NotUnit(f"direction must be a real 3-vector, got {vec!r}") from None
    if len(n) != 3:
        raise NotUnit(f"direction must be a real 3-vector, got {len(n)} components")
    if not all(math.isfinite(x) for x in n):
        raise NonFinite(f"direction components must be finite, got {n!r}")
    norm = math.hypot(*n)
    if not abs(norm - 1.0) <= ATOL:
        raise NotUnit(f"direction must be unit length, |n| = {norm!r}")
    return n


def cartesian_embed(n) -> tuple:
    """m = 0 eigenstate of the spin component along the unit direction n.

    Uses the vector correspondence |x> = (|-1> - |+1>)/sqrt(2),
    |y> = i(|-1> + |+1>)/sqrt(2), |z> = |0>, under which the embedding of
    n is annihilated by n . S. The global phase is fixed by making the
    largest-magnitude amplitude real and positive.
    """
    nx, ny, nz = as_direction(n)
    r = 1.0 / math.sqrt(2.0)
    psi = ((-nx + 1j * ny) * r, complex(nz), (nx + 1j * ny) * r)
    return fix_phase(psi)


def overlap(a, b) -> complex:
    """Inner product <a|b>."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return complex(a0.conjugate() * b0 + a1.conjugate() * b1 + a2.conjugate() * b2)


def fix_phase(psi) -> tuple:
    """Canonical global phase: largest-magnitude amplitude real-positive.
    Raises NonFinite on a NaN or infinite amplitude."""
    psi = tuple(complex(c) for c in psi)
    if not _finite(psi):
        raise NonFinite("state amplitudes must be finite")
    mags = [math.hypot(c.real, c.imag) for c in psi]
    k = mags.index(max(mags))
    if mags[k] < 1e-14:
        raise ZeroVector("cannot fix the phase of the zero vector")
    phase = psi[k].conjugate() / mags[k]
    return tuple(c * phase for c in psi)


def states_equal_up_to_phase(a, b, tol: float = GEOMETRY_ATOL) -> bool:
    """True when two normalized states coincide up to a global phase."""
    return abs(abs(overlap(a, b)) - 1.0) < tol
