"""Spectral calculus on Hermitian matrices.

Everything on the quantum side of the library reduces to three primitives:
an eigendecomposition, scalar functions applied through it, and entrywise
two-argument kernels applied in the eigenbasis (Daleckii-Krein style).  The
kernels of interest here are the logarithmic mean, its reciprocal, and the
inverse arithmetic mean, which realize respectively the noncommutative
analogue of multiplication by the state, the derivative of the matrix
logarithm, and the symmetric (Lyapunov) division by the state.

The library's one matrix exponential, ``expm``, lives here too: the
Kubo-Mori series and the Markov propagators take it from this module.

All functions are pure; decompositions are plain named tuples and can be
shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_RECONSTRUCTION_RTOL = 1e-10

# Up to this bound on |entries| the squares summed by the validation norms
# cannot overflow.
_NORM_SAFE = 1e150


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a†)/2 as a complex array, for one matrix or a stack.

    Applied on every construction from raw data so that round-trips through
    files are idempotent.  Stacks have shape (..., d, d); † acts on the last
    two axes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def any_set(mask) -> bool:
    """Whether any entry of a per-matrix mask is set.

    One matrix gives a numpy scalar, on which bool() is cheap; .any()
    costs microseconds a call on scalars and small arrays alike, where
    count_nonzero costs one.  One-matrix paths call this several times.
    """
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


def _refuse(bad, badness, message, error=ValueError) -> None:
    """Raise ``error`` if any entry of the mask ``bad`` is set.

    A failing stack is named by the index i of the largest entry of the
    per-matrix array ``badness``, the first on ties; one matrix (a 0-d
    ``badness``) has no index.  The error reads "stack index i: " and then
    ``message(i)``.  ``message``, and ``badness`` where forming it is work
    that only a failure needs, are callables that run only on failure, so a
    passing check costs the mask alone.
    """
    if not any_set(bad):
        return
    values = np.asarray(badness() if callable(badness) else badness)
    if values.ndim == 0:
        raise error(message(()))
    i = tuple(int(k) for k in np.unravel_index(np.argmax(values), values.shape))
    raise error(f"stack index {i[0] if len(i) == 1 else i}: {message(i)}")


def check_finite(x: np.ndarray, message: str, core: int = 2) -> None:
    """Raise ``ValueError(message)`` unless x is finite; x is one array of
    (at most) ``core`` axes or a stack of them, whose first bad index is named."""
    bad = ~np.isfinite(x).all(axis=tuple(range(-min(core, np.ndim(x)), 0)))
    _refuse(bad, bad, lambda i: message)


# The readers: what a valid argument or document field is, and how the
# ValueError names it.  Each formats its message only when it raises.


def _numbers(x, name: str) -> np.ndarray:
    """x as a float array whose entries were integers or floats: strings,
    booleans, null, objects and ragged lists are refused."""
    try:
        kind = x.dtype.kind if isinstance(x, np.ndarray) else np.asarray(x).dtype.kind
    except ValueError:  # a ragged list
        kind = "O"
    if kind not in "iuf":
        raise ValueError(f"{name} must be an array of numbers")
    return np.asarray(x, dtype=float)


def _vector(x, n: int, name: str) -> np.ndarray:
    """x as a finite float array of shape (n,)."""
    if type(x) is not np.ndarray or x.dtype.char != "d":  # float64 passes as it is
        x = _numbers(x, name)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _real(x, name: str, sign: str = "finite") -> float:
    """x (a number, not a bool) as a finite float, > 0 if ``sign`` is
    "positive" and >= 0 if "nonnegative"; a NaN fails the sign first."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if (sign == "positive" and not x > 0) or (sign == "nonnegative" and not x >= 0):
        raise ValueError(f"{name} must be {sign}")
    try:
        finite = math.isfinite(x)
    except OverflowError:  # a Python int past the largest float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return float(x)


def _count(x, name: str, minimum: int | None = None, why: str = "") -> int:
    """x as an int: an integer (not a bool) and >= ``minimum`` if one is given."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if minimum is not None and x < minimum:
        raise ValueError(f"{name} must be >= {minimum}{why}, got {x}")
    return int(x)


def _known(table, name, kind: str):
    """``name`` if the names ``table`` (a tuple or dict) holds it; else raise."""
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {sorted(table)}")
    return name


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition a = U diag(w) U† with w ascending and U unitary.

    For a stack, w has shape (..., d) and U shape (..., d, d).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ u.conj().swapaxes(-1, -2)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of one matrix, or of every matrix of a stack.

    One matrix takes a single BLAS dot, sqrt(Re <x, x>), without the
    argument handling of ``np.linalg.norm``; a stack reduces over its last
    two axes.  The result has ``ndim`` 0 for one matrix either way.
    """
    if x.ndim == 2:
        return np.sqrt(np.vdot(x, x).real)
    return np.linalg.norm(x, axis=(-2, -1))


def _identity_residual(g: np.ndarray) -> np.ndarray:
    """Frobenius norm of g - I per matrix; g is a fresh product, overwritten."""
    d = g.shape[-1]
    g.reshape(*g.shape[:-2], d * d)[..., :: d + 1] -= 1.0
    return _frobenius(g)


def unitarity_residual(u: np.ndarray) -> np.ndarray:
    """Frobenius norm of U†U - I, for one matrix or per matrix of a stack."""
    return _identity_residual(dagger(u) @ u)


def eigh(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix or a stack of them.

    The input is symmetrized first, so mildly non-Hermitian input (file
    round-off) is tolerated.  Every decomposition is validated: unitarity of
    the eigenvector matrix and the reconstruction error must both be below
    1e-10 relative to the Frobenius norm.  A failing stack names the index
    of its worst matrix.  Matrices with an entry above 1e150 in magnitude
    are validated through a / max|a|, whose norms cannot overflow.

    Each check runs once, in one pass over the result: the largest |entry|
    per matrix decides both finiteness (it is nan or inf exactly when some
    entry is) and the rescaling, U† is formed once for the reconstruction
    and for U†U - I, and the identity is subtracted on the diagonal in
    place.  A decomposition returned here needs no second unitarity check.
    """
    a = hermitian_part(a)
    d = a.shape[-1]
    largest = np.abs(a).max(axis=(-2, -1)) if d else np.zeros(a.shape[:-2])
    # one comparison passes every finite matrix below the rescaling bound
    rescale = any_set(~(largest <= _NORM_SAFE))
    if rescale:
        check_finite(largest, "matrix has non-finite entries", 0)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ValueError(
            f"eigensolver did not converge on a {d}x{d} matrix: {exc}"
        ) from exc
    w_check = w
    if rescale:
        s = np.maximum(largest, np.finfo(float).tiny)  # a zero matrix of the stack
        a = a / s[..., None, None]
        w_check = w / s[..., None]
    uh = dagger(u)
    scale = _frobenius(a)
    recon = _frobenius((u * w_check[..., None, :]) @ uh - a)
    unit_err = _identity_residual(uh @ u)
    tol = _RECONSTRUCTION_RTOL
    _refuse((recon > tol * scale) | (unit_err > tol),
            lambda: np.maximum(recon / np.maximum(scale, 1e-300), unit_err),
            lambda i: ("eigendecomposition failed validation: reconstruction "
                       f"residual {recon[i] / np.maximum(scale[i], 1e-300):.3e}, "
                       f"unitarity residual {unit_err[i]:.3e}"))
    return SpectralDecomposition(w, u)


def log_sum_exp(x: np.ndarray) -> float:
    """log sum exp(x), shifted by max(x) so that it never overflows.

    With x = -eigenvalues of H this is log Tr exp(-H); with x a classical
    log density it is the Massieu function.  The k maximal terms are split
    off and the rest enters through log1p, which keeps full accuracy when
    the maximum dominates (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41, 2021); the rounding is that of ``scipy.special.logsumexp``.
    """
    m = x.max()
    return _log_sum_shifted(np.exp(x - m), x == m, m)


def _log_sum_shifted(w: np.ndarray, top: np.ndarray, m: float) -> float:
    """:func:`log_sum_exp` of x, bitwise, from exponentials already taken:
    w = exp(x - m) with m = max x, and the mask top = (x == m).  Overwrites
    ``w[top]`` with zeros."""
    k = np.count_nonzero(top)
    w[top] = 0.0
    if k == 1:
        # w / 1 and + log(1) = 0.0 are exact: the general formula, bitwise
        return float(np.log1p(w.sum()) + m)
    return float(np.log1p(w.sum() / k) + np.log(k) + m)


def _pade_degree(m: int, theta: float) -> tuple:
    """theta_m, the leading backward-error coefficient (m!)^2/((2m)!(2m+1)!)
    and the numerator coefficients (2m-k)!/(k!(m-k)!), k = 0..m."""
    f = math.factorial
    b = [float(f(2 * m - k) // (f(k) * f(m - k))) for k in range(m + 1)]
    return theta, f(m) ** 2 / (f(2 * m) * f(2 * m + 1)), b


# Largest scaled norm theta_m at which the degree-m Padé approximant of exp
# meets double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005);
# theta_13 = 4.25 is the value of Al-Mohy & Higham, same journal, 31, 2009.
_PADE = {m: _pade_degree(m, theta) for m, theta in (
    (3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1), (9, 2.097847961257068), (13, 4.25))}
_UNIT_ROUNDOFF = 2.0**-53
# Below this 1-norm the powers up to a^10 that choose the degree cannot
# overflow.
_NORM_MAX = 1e30


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Extra squarings that keep the degree-m backward error of a at unit
    roundoff, from ||abs(a)^(2m+1)||_1; nonzero only for strongly nonnormal
    a (Al-Mohy & Higham 2009).  The power is taken of abs(a) / ||a||_1,
    whose powers cannot overflow, and the norm enters through its log."""
    norm, p = _norm1(a), 2 * m + 1
    power = _norm1(np.linalg.matrix_power(np.abs(a) / norm, p))
    if power == 0.0:
        return 0
    log_alpha = math.log2(_PADE[m][1] * power) + (p - 1) * math.log2(norm)
    return max(math.ceil((log_alpha - math.log2(_UNIT_ROUNDOFF)) / (2 * m)), 0)


def _pade(a: np.ndarray, powers: list, m: int) -> np.ndarray:
    """The degree-m Padé approximant of exp(a), (V - U)^-1 (V + U).

    ``powers`` is [I, a^2, a^4, ...].  U and V sum the odd and even terms
    of the numerator; terms beyond the powers given take one product with
    a^6, as Higham (2005) evaluates degree 13.
    """

    def even(c):
        head = sum(ck * p for ck, p in zip(c, powers))
        if len(c) <= len(powers):
            return head
        return head + powers[3] @ sum(ck * p for ck, p in zip(c[4:], powers[1:]))

    b = _PADE[m][2]
    u = a @ even(b[1::2])
    v = even(b[0::2])
    return np.linalg.solve(v - u, v + u)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real or complex square matrix.

    Padé scaling and squaring of degree 3, 5, 7, 9 or 13, the degree and
    the scaling chosen from the 1-norms of the even powers of a, computed
    exactly (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009).  A
    diagonal matrix, 1x1 or zero, maps exactly to the exponentials of its
    diagonal; on an upper-triangular one the squarings keep the diagonal
    and the first superdiagonal exact (Code Fragment 2.1 there).  Raises ``ValueError`` on non-finite entries and, unless a is
    diagonal, on a 1-norm above 1e30.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, 1.0), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    check_finite(a, "matrix exponential of a matrix with non-finite entries")
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        return np.diag(np.exp(np.diagonal(a)))
    norm = _norm1(a)
    if norm > _NORM_MAX:
        raise ValueError(
            f"matrix exponential needs a 1-norm at most {_NORM_MAX:.0e}, got {norm:.3e}"
        )
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a4 @ a4
    d4, d6, d8 = (_norm1(p) ** (1 / k) for k, p in ((4, a4), (6, a6), (8, a8)))
    powers = [np.eye(a.shape[0], dtype=a.dtype), a2, a4, a6, a8]
    for m, eta in ((3, max(d4, d6)), (5, max(d4, d6)), (7, max(d6, d8)), (9, max(d6, d8))):
        if eta < _PADE[m][0] and _ell(a, m) == 0:
            return _pade(a, powers, m)
    eta = min(max(d6, d8), max(d8, _norm1(a4 @ a6) ** (1 / 10)))
    s = max(math.ceil(math.log2(eta / _PADE[13][0])), 0) if eta > 0 else 0
    s += _ell(a * 2.0**-s, 13)
    x = _pade(a * 2.0**-s, [p * 2.0 ** (-2 * k * s) for k, p in enumerate(powers[:4])], 13)
    if np.tril(a, -1).any():
        for _ in range(s):
            x = x @ x
        return x
    return _triangular_squaring(x, a, s)


def _triangular_squaring(x: np.ndarray, a: np.ndarray, s: int) -> np.ndarray:
    """Square x, the approximant of exp(2^-s a) for an upper-triangular a, s
    times, giving the diagonal of each exp(2^-j a) its exact exp(l_i) and,
    after each squaring, the first superdiagonal its exact
    t (e^hi - e^lo)/(hi - lo), taken as e^hi (1 - e^(lo - hi))/(hi - lo)
    (Al-Mohy & Higham 2009, Code Fragment 2.1)."""
    scale = 2.0 ** -np.arange(s, -1, -1.0)[:, None]
    lam, t = scale * np.diagonal(a), scale * np.diagonal(a, 1)
    left, right = lam[:, :-1], lam[:, 1:]
    swap = left.real < right.real
    hi, lo = np.where(swap, right, left), np.where(swap, left, right)
    gap = np.where(hi == lo, 1.0, hi - lo)
    upper = t * np.exp(hi) * np.where(hi == lo, 1.0, -np.expm1(lo - hi) / gap)
    e, n = np.exp(lam), a.shape[0]
    x = np.ascontiguousarray(x)  # so that reshape(-1) is a view
    x.reshape(-1)[:: n + 1] = e[0]
    for j in range(1, s + 1):
        x = x @ x
        flat = x.reshape(-1)
        flat[:: n + 1] = e[j]
        flat[1 :: n + 1] = upper[j]
    return x


def _as_decomposition(a) -> SpectralDecomposition:
    if isinstance(a, SpectralDecomposition):
        return a
    return eigh(a)


def matrix_function(a, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function through the eigendecomposition: U f(w) U†.

    ``a`` may be a Hermitian matrix or a precomputed decomposition.  Raises
    ``ValueError`` naming the offending eigenvalue when ``f`` is undefined
    (non-finite) there, e.g. log of a nonpositive eigenvalue.
    """
    dec = _as_decomposition(a)
    with np.errstate(all="ignore"):
        fw = np.asarray(f(dec.eigenvalues), dtype=float)
    bad = ~np.isfinite(fw)
    if np.any(bad):
        ev = float(dec.eigenvalues[bad][0])
        raise ValueError(f"scalar function undefined on eigenvalue {ev!r}")
    u = dec.eigenvectors
    return hermitian_part((u * fw) @ u.conj().T)


@dataclass(frozen=True)
class Kernel:
    """Two-argument scalar kernel evaluated on eigenvalue pairs.

    ``fn(p, q)`` must be symmetric and vectorized.  It only sees p >= q (the
    pairs are ordered, so K is exactly symmetric), and it returns its own
    limit at p == q, where a divided difference would be 0/0.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def matrix(self, p: np.ndarray) -> np.ndarray:
        """Evaluate k(p_i, p_j) on all eigenvalue pairs.

        ``p`` may be a stack of spectra, shape (..., d); the result then has
        shape (..., d, d).
        """
        p = np.asarray(p, dtype=float)
        pi = p[..., :, None]
        pj = p[..., None, :]
        with np.errstate(all="ignore"):
            return self.fn(np.maximum(pi, pj), np.minimum(pi, pj))


def _log_ratio(p, q):
    # log p - log q as log1p((p - q)/q), for p >= q as Kernel.matrix orders
    # them: the argument is >= 0, accurate near p = q and decades apart alike.
    return np.log1p((p - q) / q)


# integral_0^1 p^a q^(1-a) da = (p - q) / (log p - log q); the entrywise
# form of multiplication by the state averaged over orderings.  It is p at
# p = q, and 0 against q = 0.
logarithmic_mean_kernel = Kernel(
    name="logarithmic_mean",
    fn=lambda p, q: np.where(p == q, p, (p - q) / _log_ratio(p, q)),
)

# Reciprocal of the above; the Daleckii-Krein kernel of the matrix logarithm
# and the closed form of integral_0^infty (s+p)^-1 (s+q)^-1 ds.
log_difference_kernel = Kernel(
    name="log_difference",
    fn=lambda p, q: np.where(p == q, 1.0 / p, _log_ratio(p, q) / (p - q)),
)

# Inverse arithmetic mean; solves p x + x q = 2 d entrywise.  At p = q it is
# 2 / 2p, which rounds to 1/p exactly.
symmetric_inverse_kernel = Kernel(
    name="symmetric_inverse",
    fn=lambda p, q: 2.0 / (p + q),
)


def kernel_apply(rho, x: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Scale x entrywise by kernel(p_i, p_j) in the eigenbasis of rho.

    ``rho`` is a Hermitian matrix or its decomposition with eigenvalues p.
    Returns U (K ∘ (U† x U)) U†, which is Hermitian whenever x is.  Stacks of
    states and operands, shapes (..., d, d), are scaled matrix by matrix.
    Raises ``ValueError`` naming the eigenvalue pair (and, in a stack, the
    matrix) if the kernel is non-finite there.
    """
    dec = _as_decomposition(rho)
    x = hermitian_part(x)
    if x.shape[-1] != dec.dim:
        raise ValueError(
            f"operand dimension {x.shape[-1]} != state dimension {dec.dim}"
        )
    k = kernel.matrix(dec.eigenvalues)
    bad = ~np.isfinite(k)
    # a failing matrix s is named with its first bad eigenvalue pair
    _refuse(bad, lambda: bad.any(axis=(-2, -1)), lambda s: (
        f"kernel {kernel.name!r} non-finite at eigenvalue pair "
        f"{tuple(dec.eigenvalues[s][np.argwhere(bad[s])[0]])!r}"))
    u = dec.eigenvectors
    uh = dagger(u)
    xt = uh @ x @ u
    return hermitian_part(u @ (k * xt) @ uh)
