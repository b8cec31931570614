"""Synthetic heavy-tailed test distributions with exactly known ground truth.

Every family is built as ``X = mu + T @ W`` where ``W`` is spherically
symmetric with identity covariance, so the covariance factor ``T`` gives the
directional standard deviation sigma(u) = ||T^t u|| in closed form.  The
point-contamination family is the one exception: there the mixture
covariance is recomputed exactly.

Families
--------
gaussian
    ``W`` standard normal.  L4/L2 moment ratio kappa = 3**(1/4).
elliptical-student (dof nu > 2)
    ``W = G * sqrt((nu-2)/S)`` with ``S ~ chi2(nu)``; the radial rescaling
    makes Cov(W) the identity and the one-dimensional marginals exactly
    ``sqrt((nu-2)/nu) * t_nu``.
elliptical-lognormal (shape s > 0)
    ``W = c * R * U`` with ``R`` lognormal, ``U`` uniform on the sphere and
    ``c`` chosen so that Cov(W) = I.  Heavy-tailed but with all moments.
gaussian-with-point-contamination (fraction, offset)
    A gaussian component plus a point mass at a fixed offset.  The gaussian
    component is recentered by ``-fraction * offset`` so the mixture mean
    equals the requested mean exactly.  Contaminated rows are assigned by
    exact stratified counts (floor(fraction * N) rows, positions shuffled),
    keeping dataset composition deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import REQUIRED, Field, check_fields, read_fields, require_int, require_real
from .rng import random_unit_rows, row_norms, stream

FAMILIES = (
    "gaussian",
    "elliptical-student",
    "elliptical-lognormal",
    "gaussian-with-point-contamination",
)

UNIT_NORM_TOL = 1e-12


class NoAnalyticOracleError(ValueError):
    """Raised when a closed-form marginal law is requested but unavailable."""


CONTAMINATION_FIELDS = {
    "fraction": Field("real", REQUIRED, least=0.0, below=0.5),
    "offset": Field("reals", REQUIRED),
}

DISTRIBUTION_FIELDS = {
    "family": Field("name", REQUIRED, choices=FAMILIES),
    "eigenvalues": Field("reals", REQUIRED, least=0.0),
    "rotation_seed": Field("int", None),
    "mean": Field("reals", REQUIRED),
    "dof": Field("real", None),
    "shape": Field("real", None),
    "contamination": Field("object", None, fields=CONTAMINATION_FIELDS),
}


@dataclass(frozen=True)
class SpectrumSpec:
    """Covariance spectrum: eigenvalues in nonincreasing order plus rotation.

    ``rotation_seed is None`` means the eigenbasis is the canonical basis;
    an integer seed selects a Haar-random orthogonal rotation.
    """

    eigenvalues: tuple[float, ...]
    rotation_seed: int | None = None

    def __post_init__(self):
        check_fields(DISTRIBUTION_FIELDS, {"eigenvalues": self.eigenvalues, "rotation_seed": self.rotation_seed})
        lam = tuple(map(float, self.eigenvalues))
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError("eigenvalues must be nonincreasing")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class DistributionSpec:
    """Parameters of one synthetic family, JSON round-trippable."""

    family: str
    spectrum: SpectrumSpec
    mean: tuple[float, ...]
    dof: float | None = None
    shape: float | None = None
    contamination_fraction: float | None = None
    contamination_offset: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(DISTRIBUTION_FIELDS, {key: getattr(self, key) for key in ("family", "mean", "dof", "shape")})
        mean = tuple(map(float, self.mean))
        if len(mean) != self.spectrum.dim:
            raise ValueError("mean length must match spectrum dimension")
        object.__setattr__(self, "mean", mean)
        if self.family == "elliptical-student" and not (self.dof is not None and self.dof > 2):
            raise ValueError(f"student family requires dof > 2 (finite covariance), got {self.dof!r}")
        if self.family == "elliptical-lognormal" and not (self.shape is not None and self.shape > 0):
            raise ValueError(f"lognormal family requires shape > 0, got {self.shape!r}")
        if self.family == "gaussian-with-point-contamination":
            cont = {"fraction": self.contamination_fraction, "offset": self.contamination_offset}
            check_fields(CONTAMINATION_FIELDS, cont, "contamination.")
            off = tuple(map(float, self.contamination_offset))
            if len(off) != self.spectrum.dim:
                raise ValueError("contamination.offset length must match dimension")
            object.__setattr__(self, "contamination_offset", off)

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "eigenvalues": list(self.spectrum.eigenvalues),
            "rotation_seed": self.spectrum.rotation_seed,
            "mean": list(self.mean),
            "dof": self.dof,
            "shape": self.shape,
            "contamination": None if self.contamination_fraction is None
            else {"fraction": self.contamination_fraction, "offset": list(self.contamination_offset)},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DistributionSpec":
        f = read_fields("distribution", doc, DISTRIBUTION_FIELDS)
        cont = f["contamination"] or {"fraction": None, "offset": None}
        offset = None if cont["offset"] is None else tuple(cont["offset"])
        return cls(family=f["family"], spectrum=SpectrumSpec(tuple(f["eigenvalues"]), f["rotation_seed"]),
                   mean=tuple(f["mean"]), dof=f["dof"], shape=f["shape"],
                   contamination_fraction=cont["fraction"], contamination_offset=offset)


@dataclass(frozen=True)
class GroundTruth:
    """Exact distributional facts backing a :class:`DistributionSpec`.

    ``factor_T`` satisfies Sigma = T @ T^t, so sigma(u) = ||T^t u||.
    ``kappa`` is the Lq-L2 norm-equivalence constant of the one-dimensional
    marginals (the supremum over a probe direction set for the contaminated
    family, where it is direction dependent) and ``q_moment`` the moment
    order it refers to.
    """

    spec: DistributionSpec
    mu: np.ndarray
    factor_T: np.ndarray
    spectrum: SpectrumSpec
    kappa: float
    q_moment: float
    # contaminated-family internals (component center / point location)
    _component_center: np.ndarray | None = field(default=None, repr=False)
    _point_value: np.ndarray | None = field(default=None, repr=False)
    _component_factor: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        return self.factor_T @ self.factor_T.T


def as_rows(data) -> np.ndarray:
    """The (N, d) observation matrix ``data`` as C-contiguous float64 rows.

    Only other layouts are copied, so the kernels' summation order, and
    hence every result, does not depend on the input's memory layout.
    Anything but a 2-d array with d >= 1 is a ValueError naming its shape.
    """
    rows = np.asarray(data, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError(f"observations must be an (N, d) array with d >= 1, got shape {rows.shape}")
    return np.ascontiguousarray(rows)


def as_directions(directions, d: int) -> np.ndarray:
    """``directions`` as an (M, d) float64 array, one direction per row.

    Anything else, a single 1-d direction included, is a ValueError naming
    the expected shape and the one given.
    """
    u = np.asarray(directions, dtype=float)
    if u.ndim != 2 or u.shape[1] != d:
        raise ValueError(f"directions must be an (M, {d}) array, got shape {u.shape}")
    return u


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    if abs(np.linalg.norm(u) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("direction must be a unit vector (|norm - 1| <= 1e-12)")
    return u


def _rotation_matrix(d: int, rotation_seed: int | None) -> np.ndarray:
    if rotation_seed is None:
        return np.eye(d)
    rng = stream(rotation_seed, "rotation")
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    # fix signs so the rotation is a deterministic function of the seed
    q = q * np.sign(np.diag(r))
    return q


def student_kappa(nu: float, q: float) -> float:
    """Lq/L2 ratio of a t_nu marginal, from the closed form E|T|^q =
    nu^(q/2) Gamma((q+1)/2) Gamma((nu-q)/2) / (sqrt(pi) Gamma(nu/2)) and E T^2 = nu / (nu-2)."""
    require_real("q", q, 2.0, nu)  # a finite moment ratio needs 2 < q < nu
    lg = math.lgamma
    log_mom = q / 2.0 * math.log(nu) + lg((q + 1.0) / 2.0) + lg((nu - q) / 2.0) - lg(0.5) - lg(nu / 2.0)
    return math.exp(log_mom / q) * math.sqrt((nu - 2.0) / nu)


def _lognormal_radius_coeff(d: int, shape: float) -> float:
    # c with E[(c R)^2] = d for R ~ lognormal(0, shape)
    return np.sqrt(d) * np.exp(-shape**2)


def _lognormal_kappa(d: int, shape: float, q: float) -> float:
    # <W, u> = (c R) * U1 with R, U1 independent; both moments in closed form
    def radius_moment(p: float) -> float:
        return np.exp(p**2 * shape**2 / 2.0)

    def sphere_moment(p: float) -> float:
        # E|U1|^p for U uniform on S^(d-1); U1^2 ~ Beta(1/2, (d-1)/2), so it is
        # B((p+1)/2, (d-1)/2) / B(1/2, (d-1)/2), exactly 1 at d = 1
        lg = math.lgamma
        return math.exp((lg((p + 1) / 2.0) - lg((p + d) / 2.0)) + (lg(d / 2.0) - lg(0.5)))

    mq = radius_moment(q) * sphere_moment(q)
    m2 = radius_moment(2.0) * sphere_moment(2.0)
    return mq ** (1.0 / q) / np.sqrt(m2)


def _contaminated_moments(sigma2_g: float, proj_off: float, frac: float) -> tuple[float, float]:
    """Exact 2nd and 4th centered moments of the mixture marginal."""
    c = -frac * proj_off  # gaussian-component center after centering the mixture
    p = (1.0 - frac) * proj_off  # point-mass location after centering
    m2 = (1.0 - frac) * (sigma2_g + c * c) + frac * p * p
    m4_gauss = 3.0 * sigma2_g**2 + 6.0 * sigma2_g * c * c + c**4
    m4 = (1.0 - frac) * m4_gauss + frac * p**4
    return m2, m4


def _contaminated_kappa(spec: DistributionSpec, sigma_base: np.ndarray, n_probes: int = 256) -> float:
    """Supremum of the per-direction L4/L2 ratio over a probe direction set.

    kappa is direction dependent for this family; the recorded value is an
    estimate (max over canonical plus seeded random probe directions).
    """
    d = spec.dim
    off = np.asarray(spec.contamination_offset, dtype=float)
    frac = spec.contamination_fraction
    rng = stream(0, "contaminated-kappa-probes")
    probes = list(np.eye(d))
    probes.extend(random_unit_rows(rng, max(n_probes - d, 0), d))
    worst = 1.0
    for u in probes:
        s2 = float(u @ sigma_base @ u)
        m2, m4 = _contaminated_moments(s2, float(off @ u), frac)
        if m2 > 0:
            worst = max(worst, m4**0.25 / np.sqrt(m2))
    return worst


def make_ground_truth(spec: DistributionSpec) -> GroundTruth:
    """Realize covariance factor, kappa and moment order for a spec.

    gaussian: q = 4, kappa = 3**(1/4) (closed form).
    student(nu): q = (nu + 2) / 2 with kappa from the closed-form t moments.
    lognormal: q = 4, kappa from the closed-form radial/sphere moments.
    contaminated: q = 4, kappa = probe-set supremum (direction dependent).
    """
    d = spec.dim
    lam = np.asarray(spec.spectrum.eigenvalues, dtype=float)
    rot = _rotation_matrix(d, spec.spectrum.rotation_seed)
    factor = rot * np.sqrt(lam)[np.newaxis, :]  # rot @ diag(sqrt(lam))
    mu = np.asarray(spec.mean, dtype=float)

    if spec.family == "gaussian":
        return GroundTruth(spec, mu, factor, spec.spectrum, kappa=3.0**0.25, q_moment=4.0)

    if spec.family == "elliptical-student":
        nu = float(spec.dof)
        q = (nu + 2.0) / 2.0
        return GroundTruth(spec, mu, factor, spec.spectrum, kappa=student_kappa(nu, q), q_moment=q)

    if spec.family == "elliptical-lognormal":
        q = 4.0
        return GroundTruth(
            spec, mu, factor, spec.spectrum, kappa=_lognormal_kappa(d, float(spec.shape), q), q_moment=q
        )

    # gaussian-with-point-contamination
    frac = float(spec.contamination_fraction)
    off = np.asarray(spec.contamination_offset, dtype=float)
    sigma_base = factor @ factor.T
    center = mu - frac * off
    point = center + off
    sigma_mix = (1.0 - frac) * sigma_base + frac * (1.0 - frac) * np.outer(off, off)
    evals, evecs = np.linalg.eigh(sigma_mix)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    mix_spectrum = SpectrumSpec(tuple(evals), rotation_seed=spec.spectrum.rotation_seed)
    mix_factor = evecs * np.sqrt(evals)[np.newaxis, :]
    kappa = _contaminated_kappa(spec, sigma_base)
    return GroundTruth(
        spec,
        mu,
        mix_factor,
        mix_spectrum,
        kappa=kappa,
        q_moment=4.0,
        _component_center=center,
        _point_value=point,
        _component_factor=factor,
    )


def sample_dataset(gt: GroundTruth, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. rows as a C-contiguous (n, d) float64 array; a pure
    function of ``(gt.spec, n, seed)``."""
    require_int("n", n, least=1)
    spec = gt.spec
    d = gt.dim
    rng = stream(seed, "sample", spec.family)

    # one (n, d) draw, scaled in place: the same products and sums, in the
    # same order, as the out-of-place formulas
    if spec.family == "gaussian-with-point-contamination":
        n_cont = int(np.floor(spec.contamination_fraction * n))
        positions = rng.permutation(n)[:n_cont]
        rows = rng.standard_normal((n, d)) @ gt._component_factor.T
        rows += gt._component_center
        rows[positions] = gt._point_value
        return rows

    w = rng.standard_normal((n, d))
    if spec.family == "elliptical-student":
        nu = float(spec.dof)
        s = rng.chisquare(nu, size=n)
        w *= np.sqrt((nu - 2.0) / s)[:, np.newaxis]
    elif spec.family == "elliptical-lognormal":
        shape = float(spec.shape)
        w /= row_norms(w)
        r = np.exp(shape * rng.standard_normal(n))
        w *= (_lognormal_radius_coeff(d, shape) * r)[:, np.newaxis]

    if spec.spectrum.rotation_seed is None:
        w *= np.sqrt(np.asarray(spec.spectrum.eigenvalues))
    else:
        w = w @ gt.factor_T.T
    w += gt.mu
    return w


def directional_sigma(gt: GroundTruth, u) -> float:
    """Standard deviation of the marginal <X, u>: sqrt(u^t Sigma u)."""
    u = _check_unit(u)
    return float(np.linalg.norm(gt.factor_T.T @ u))


def tail_eigensum(gt: GroundTruth, k: int) -> float:
    """Sum of eigenvalues below rank ``k``: sum_{i > k} lambda_i.

    ``k = 0`` gives the trace; ``k = d`` gives 0.
    """
    lam = np.asarray(gt.spectrum.eigenvalues)
    if require_int("k", k, least=0) > lam.size:
        raise ValueError(f"k must be at most d = {lam.size}, got {k}")
    return float(lam[k:].sum())


def marginal_oracle(gt: GroundTruth, u, scale: float = 1.0):
    """Frozen scipy distribution of ``scale * <X - mu, u>``.

    ``scale`` rescales the law (e.g. sqrt(2) for pairwise differences of
    gaussian data).  Raises :class:`NoAnalyticOracleError` for families
    without a closed-form marginal, and ValueError for one of zero variance
    (NaN in scipy).  The only map from a family to a scipy law.
    """
    from scipy import stats  # not loaded with the package

    u = _check_unit(u)
    sig = directional_sigma(gt, u) * require_real("scale", scale, 0.0)
    if sig == 0.0:
        raise ValueError(f"the marginal along u = {u.tolist()} has zero variance: it has no continuous law")
    fam = gt.spec.family
    if fam == "gaussian":
        return stats.norm(loc=0.0, scale=sig)
    if fam == "elliptical-student":
        nu = float(gt.spec.dof)
        return stats.t(nu, loc=0.0, scale=sig * np.sqrt((nu - 2.0) / nu))  # the marginal is sqrt((nu-2)/nu) t_nu
    raise NoAnalyticOracleError(f"no analytic marginal law for family {fam!r}")


def sample_marginal(gt: GroundTruth, u, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values of the centered marginal <X - mu, u> directly.

    Scalar-only sampling path used by the small-ball diagnostics; avoids
    materializing (n, d) matrices when only a one-dimensional law is needed.
    """
    u = _check_unit(u)
    require_int("n", n, least=1)
    spec = gt.spec
    sig = directional_sigma(gt, u)
    rng = stream(seed, "marginal", spec.family)
    if spec.family == "gaussian":
        return sig * rng.standard_normal(n)
    if spec.family == "elliptical-student":
        nu = float(spec.dof)
        g = rng.standard_normal(n)
        s = rng.chisquare(nu, size=n)
        return sig * g * np.sqrt((nu - 2.0) / s)
    if spec.family == "elliptical-lognormal":
        d = gt.dim
        shape = float(spec.shape)
        # <W, u> = c R U1; sample U1 as G1/||G||
        g = rng.standard_normal((n, d))
        u1 = g[:, 0] / row_norms(g)[:, 0]
        r = np.exp(shape * rng.standard_normal(n))
        return sig * _lognormal_radius_coeff(d, shape) * r * u1
    # contaminated: mixture of a gaussian and a point mass along u
    frac = float(spec.contamination_fraction)
    off = np.asarray(spec.contamination_offset, dtype=float) @ u
    s_g = float(np.linalg.norm(gt._component_factor.T @ u))
    vals = -frac * off + s_g * rng.standard_normal(n)
    mask = rng.random(n) < frac
    vals[mask] = (1.0 - frac) * off
    return vals
