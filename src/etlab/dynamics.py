"""Open-system time evolution.

Two methods cross-validate each other:

* :func:`integrate_lindblad` -- deterministic evolution of the density
  matrix, returning rho(t_final) only; a time series is a chain of runs,
  each from the last one's final state.  The generator is time
  independent, so by default the state is propagated exactly: a scaled
  Taylor series of exp(t L) applied to rho (the action-of-the-exponential
  method of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
  Substeps are sized from a bound on the generator's norm built on
  ||G||_2, and each series stops once a rigorous bound on its whole
  remaining tail is below machine precision; the result reports how many
  generator applications it took.  An explicit step selects fixed-step RK4
  instead, guarded against steps beyond its stability region.  The
  generator is applied only to Hermitian states (rho0, Hermitized on
  entry, each Taylor term and each RK4 stage), so G rho + rho G^dag costs
  one application of G, X + X^dag with X = G rho.
* :func:`mc_trajectories` -- quantum-jump unravelling (Dalibard, Castin &
  Molmer, PRL 68, 580 (1992)).  Deterministic segments use the one-step
  propagator exp(G dt), formed by the same scaled Taylor series, and jumps
  fire when the decaying norm crosses a per-trajectory uniform threshold
  (no sub-step interpolation).  Every trajectory follows the same flow
  between jumps, so the no-jump backbone is computed once, by doubling
  with the powers u^(2^b) (by repeated squaring), and after a jump each
  no-jump stretch takes O(log n_steps) products by binary lifting over the
  same powers, shared by the jumpers of a block as the columns of one
  matrix; the engine checks its own norms, column by column, as it goes.

Both engines hold the no-jump generator G = -iH - K/2 in one object, by
the connected components of its nonzero pattern (:class:`_Components`): K
is diagonal, and an ETH acts inside each error sector, so G splits into
small blocks (fig1b eth-7 at d = 256: one 16-state component, fourteen
8-state ones and 128 single states; every fig1a G is diagonal; a dense H
is one component).  It holds a row per row of rates, -iH's blocks with
that row's diagonal on them, and applying a row's G, or exp(G dt) and its
powers, is one row scaling plus one stacked block product per size.

The master equation never leaves a union of component-pair blocks
Ca x Cb of rho: G mixes rows, and columns, only within a component, and a
monomial jump moves entry (i, j) to (rows(i), rows(j)).
:class:`LindbladSupport` closes those blocks from rho0's nonzeros over
every channel (Buca & Prosen, New J. Phys. 14, 073007 (2012); Albert & Jiang,
Phys. Rev. A 89, 022118 (2014), on invariant subspaces of a Lindblad
generator), and the integrator evolves rho as the packed vector of those
entries in row-major order: 2022 of 65,536 for fig1b eth-7.  X = G rho
is a row scaling plus one stacked product per group of equal component
strips, X^dag is a gather through the transpose permutation of packed
positions, which also Hermitizes each substep, and every jump is a flat
gather and scatter.  Off the support rho is exactly 0, so the packed
vector's 2-norm is ||rho||_F and the Taylor bound, substeps and tail test
are unchanged; a rho0 with every entry reachable is packed as rho.ravel()
and evolved by exactly the dense computation.  The support depends on H,
the jumps' nonzeros and rho0 only, not on the rates, so a sweep builds it
once per scenario.

Only the rates change between the jobs of a scenario, so both engines
take the channels once and a (rows x channels) array of rates, checked at
that boundary by one helper; a single run is a stack of one row.  What
does not depend on the rates is checked and built once per stack, and each
row keeps its own bound, substeps and Taylor stop, so it is bitwise the
run of its rates alone; a failure names its row.
:func:`integrate_lindblad_stack` propagates the rows as one stack of packed
states, held flat, and rows drop out as their series stop.
:func:`mc_trajectories_stack` forms every row's exp(G dt), each at its own
step, as one stacked series per component size, then runs each row's
trajectories alone.

Both methods see the noise through one representation: a
:class:`NoiseChannel` holds its monomial jump (as is a Pauli letter or
raising/lowering on one site) as its nonzeros only, so L psi, L rho L^dag
and the diagonal L^dag L are gathers and scatters and no d x d jump matrix
is formed.  H is checked Hermitian, each jump against H's dimension, and
the no-jump generator is formed, and rejected when non-finite, in one place.

A Monte Carlo run draws every random number from one generator,
``default_rng(seed)``: first every trajectory's jump threshold in one call,
then round-major draws within bounded blocks, blocks in index order: each
round of a block draws every live column's channel, then every live
column's next threshold, both in index order.  Results are bitwise
reproducible for a fixed seed; a run with no positive rate draws nothing.

Both engines take :func:`step_count` fixed steps of a given dt, and reject
a dt that needs more than :data:`MAX_STEPS` before allocating anything; a
Monte Carlo run takes at most :data:`MAX_TRAJECTORIES` trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .qcore import check_density_matrix, require_hermitian

__all__ = [
    "NumericsError",
    "IntegrationError",
    "TrajectoryError",
    "NoiseChannel",
    "NoiseModel",
    "IntegrationConfig",
    "TrajectoryConfig",
    "LindbladResult",
    "LindbladSupport",
    "McResult",
    "MAX_STEPS",
    "MAX_TRAJECTORIES",
    "StepCountError",
    "site_channels",
    "default_timestep",
    "step_count",
    "lindblad_rhs",
    "integrate_lindblad",
    "integrate_lindblad_stack",
    "mc_trajectories",
    "mc_trajectories_stack",
]


class NumericsError(RuntimeError):
    """A simulation produced numerically inconsistent results.  ``row`` is
    the row of a stacked Lindblad run (:func:`integrate_lindblad_stack`)
    that failed, None when the failure is not one row's."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class IntegrationError(NumericsError):
    pass


class TrajectoryError(NumericsError):
    pass


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """One channel rate D[L] on a ``dim``-dimensional space.  The jump L is
    monomial, at most one nonzero per row and column as is a Pauli letter or
    a raising/lowering operator on one site, and is held as its nonzeros:
    numpy arrays with L[rows[i], cols[i]] = vals[i], cols ascending, checked
    on construction in O(nnz log nnz) along with a finite rate >= 0.  A dense
    matrix enters through :meth:`from_matrix`, an operator on one qubit of a
    register through :meth:`on_site`."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int
    rate: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")
        if not np.isfinite(self.vals).all():
            raise ValueError(f"jump {self.label!r} has non-finite entries")
        # sorted flat rows keep the given shape only if it is 1-D; np.unique
        # would import numpy.ma, 10 ms in each new worker process
        rows, cols, dim = np.sort(self.rows, axis=None), self.cols, self.dim
        if not (
            self.rows.shape == cols.shape == self.vals.shape == rows.shape
            and np.all(rows[1:] > rows[:-1]) and np.all(cols[1:] > cols[:-1])
            and (not rows.size or min(rows[0], cols[0]) >= 0 and max(rows[-1], cols[-1]) < dim)
        ):
            raise ValueError(
                f"jump {self.label!r} is not monomial: need 1-D rows, cols and vals of one "
                f"length, indices in [0, {dim}), cols ascending and rows unique"
            )

    @classmethod
    def from_matrix(cls, m: np.ndarray, rate: float, label: str = "") -> NoiseChannel:
        """The channel of a dense square matrix; one that is not square, finite
        and monomial raises ValueError naming ``label``."""
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"jump {label!r} must be a square matrix, got shape {m.shape}")
        # column-major, so cols ascend; NaN and inf are nonzero and reach the checks
        cols, rows = np.nonzero(m.T)
        return cls(rows, cols, m[rows, cols], len(m), rate, label)

    @classmethod
    def on_site(cls, n: int, site: int, op: np.ndarray, rate: float, label: str) -> NoiseChannel:
        """The monomial 2x2 ``op`` on one qubit of an n-qubit register, qubit 0
        the most significant bit, by bit arithmetic: column c of L holds op's
        nonzero in column b, b the site's bit of c, at row c with that bit
        replaced by the nonzero's row."""
        single = cls.from_matrix(op, rate, label)
        if single.dim != 2 or not 0 <= site < n:
            raise ValueError(f"jump {label!r} needs a 2x2 op and a site in [0, {n}), got {site}")
        shift = n - 1 - site
        cols = np.arange(1 << n)
        cols = cols[np.isin((cols >> shift) & 1, single.cols)]
        k = np.searchsorted(single.cols, (cols >> shift) & 1)
        rows = cols ^ ((single.cols[k] ^ single.rows[k]) << shift)
        return cls(rows, cols, single.vals[k], 1 << n, rate, label)

    @property
    def matrix(self) -> np.ndarray:
        """L as a dense dim x dim matrix, built on each call."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.rows, self.cols] = self.vals
        return m


@dataclass(frozen=True)
class NoiseModel:
    """Independent Lindblad channels sum_k rate_k D[L_k]."""

    channels: tuple[NoiseChannel, ...] = ()

    def __post_init__(self):
        dims = {ch.dim for ch in self.channels}
        if len(dims) > 1:
            raise ValueError(f"jump operators disagree on dimension: {sorted(dims)}")

    def max_rate(self) -> float:
        return max((ch.rate for ch in self.channels), default=0.0)


def site_channels(
    n: int, op: np.ndarray, rate: float, label: str, sites: Iterable[int] | None = None
) -> list[NoiseChannel]:
    """One channel per site applying a monomial 2x2 jump operator at the given
    rate, labelled ``label`` and the site."""
    chosen = range(n) if sites is None else sites
    return [NoiseChannel.on_site(n, q, op, rate, f"{label}{q}") for q in chosen]


def _check_t_final(t_final: float) -> None:
    if not (np.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")


def _check_integers(config, *names: str) -> None:
    """Reject a field that is not a Python or numpy integer, naming it; a
    bool is an int to Python but not a count or a seed."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be a finite integer, got {value!r}")


# the most fixed steps one run may take: 25 times the most that any check,
# test or default sweep takes (4000), and few enough that the Monte Carlo
# backbone at the cap, d x MAX_STEPS complex numbers, is 410 MB at d = 256
MAX_STEPS = 100_000
# the most trajectories one Monte Carlo run may take: 6.7 times the most any
# check takes (150,000); thresholds, crossing steps and values take about 40
# bytes a trajectory with one observable, 40 MB at the cap (traced peak)
MAX_TRAJECTORIES = 1_000_000


class StepCountError(ValueError):
    """A step dt that would take more than :data:`MAX_STEPS` steps."""


def step_count(dt: float, t_final: float) -> int:
    """max(1, round(t_final / dt)), the fixed steps of either engine; a count
    above :data:`MAX_STEPS` raises :class:`StepCountError` naming dt."""
    steps = t_final / dt
    if steps > MAX_STEPS + 0.5:
        raise StepCountError(
            f"dt={dt:.6g} takes {steps:.3g} steps to t_final={t_final:.6g}, "
            f"more than the cap of {MAX_STEPS}"
        )
    return max(1, round(steps))


@dataclass(frozen=True, kw_only=True)
class IntegrationConfig:
    """dt=None propagates exactly; a float dt selects RK4 with that step."""

    dt: float | None = None
    t_final: float

    def __post_init__(self):
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        _check_t_final(self.t_final)
        if self.dt is not None:
            step_count(self.dt, self.t_final)


@dataclass(frozen=True)
class TrajectoryConfig:
    n_traj: int
    seed: int
    dt: float

    def __post_init__(self):
        _check_integers(self, "n_traj", "seed")
        if not 1 <= self.n_traj <= MAX_TRAJECTORIES:
            raise ValueError(f"n_traj must be in [1, {MAX_TRAJECTORIES}], got {self.n_traj}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class LindbladResult:
    """rho(t_final) as ``final``, ``applications``: how many times the
    generator was applied (Taylor terms, or 4 per RK4 step), and
    ``support_size``: how many entries of rho were evolved
    (:class:`LindbladSupport`).  A time series is a chain of runs, each
    starting from the last one's ``final``."""

    final: np.ndarray
    applications: int
    support_size: int


@dataclass(frozen=True)
class McResult:
    """Final-time means and standard errors, with ``jumpers`` (trajectories
    that jumped at least once) and ``jumps`` (jumps over all trajectories)."""

    means: np.ndarray
    stderrs: np.ndarray
    jumpers: int
    jumps: int


def default_timestep(omega: float, max_rate: float) -> float:
    """dt = (1/2000) min(pi/omega, 1/max_rate), the Monte-Carlo step that
    places jumps; small enough that the jump-placement bias sits well below
    the statistical tolerances.  The Lindblad integrator needs no step."""
    scale = np.pi / omega
    if max_rate > 0:
        scale = min(scale, 1.0 / max_rate)
    return scale / 2000.0


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """-i[H, rho] + sum_k rate_k (L rho L^dag - (L^dag L rho + rho L^dag L)/2).

    Reference implementation of the generator; the integrator applies the
    same map through the precomputed fast path.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if rho.shape != h.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, H {h.shape}")
    out = -1j * (h @ rho - rho @ h)
    for ch in noise.channels:
        l = ch.matrix
        if l.shape != rho.shape:
            raise ValueError(f"dimension mismatch: rho {rho.shape}, jump {l.shape}")
        ld = l.conj().T
        ll = ld @ l
        out += ch.rate * (l @ rho @ ld - 0.5 * (ll @ rho + rho @ ll))
    return out


def _check_jump_dims(shape: tuple[int, ...], channels: Sequence[NoiseChannel]) -> None:
    for ch in channels:
        if (ch.dim, ch.dim) != shape:
            raise ValueError(f"dimension mismatch: H {shape}, jump {ch.label!r} {(ch.dim,) * 2}")


def _no_jump_diagonals(
    h: np.ndarray,
    channels: Sequence[NoiseChannel],
    rates: np.ndarray,
    error: type[NumericsError],
) -> tuple[np.ndarray, np.ndarray]:
    """-iH, and for each row of ``rates`` (rows, channels) the diagonal of
    G = -iH - K/2, with K = sum_k rate_k L_k^dag L_k, a diagonal, summed in
    channel order.  A non-finite H, checked before any arithmetic, or a
    non-finite diagonal raises the engine's ``error``, naming the row; a
    non-square or non-Hermitian H (Lindblad forms rho G^dag as
    (G rho)^dag), or a jump whose dimension is not H's, raises ValueError."""
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise error("the Hamiltonian has non-finite entries")
    require_hermitian(h, what="Hamiltonian")
    _check_jump_dims(h.shape, channels)
    k = np.zeros((len(rates), len(h)), dtype=complex)
    for c, ch in enumerate(channels):
        k[:, ch.cols] += rates[:, c : c + 1] * (ch.vals.conj() * ch.vals)
    # -iH is finite with H, so only the diagonal can overflow
    g = -1j * h
    diag = np.diagonal(g) - 0.5 * k
    bad = np.flatnonzero(~np.isfinite(diag).all(axis=1))
    if bad.size:
        raise error("the generator has non-finite entries", int(bad[0]))
    return g, diag


def _check_rates(rates, channels: Sequence[NoiseChannel]) -> np.ndarray:
    """``rates`` as a float array (rows >= 1, channels) of finite rates >= 0,
    one row per run of a stack, or ValueError naming the first bad one."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] < 1 or rates.shape[1] != len(channels):
        raise ValueError(f"rates must be (rows >= 1, {len(channels)} channels), got {rates.shape}")
    bad = np.argwhere(~(np.isfinite(rates) & (rates >= 0)))
    if bad.size:
        b, c = bad[0]
        raise ValueError(
            f"row {b}: jump {channels[c].label!r} has rate {rates[b, c]}; need finite and >= 0"
        )
    return rates


def _spectral_norm(a: np.ndarray) -> np.ndarray:
    """The largest spectral norm ||.||_2 over each row a[b] of a stack
    (rows, ..., m, m), 0 for a row of no matrix: |a| for 1 x 1 matrices, an
    SVD of each matrix otherwise."""
    norms = np.abs(a) if a.shape[-1] == 1 else np.linalg.norm(a, 2, axis=(-2, -1))
    return norms.reshape(len(a), -1).max(axis=1, initial=0.0)


def _component_labels(a: np.ndarray) -> np.ndarray:
    """The smallest index of each state's connected component in the
    undirected graph of a square matrix's off-diagonal nonzeros, by label
    propagation in O(nnz) per round: each edge pulls both ends to the
    smaller label, then each label jumps to its own label's label."""
    rows, cols = np.nonzero(a)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    labels = np.arange(len(a))
    while True:
        low = np.minimum(labels[rows], labels[cols])
        nxt = labels.copy()
        np.minimum.at(nxt, rows, low)
        np.minimum.at(nxt, cols, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _component_index(labels: np.ndarray) -> list[np.ndarray]:
    """For each component size m >= 2, ascending, the indices (nb, m) of the
    nb components of that size, each ascending, from the labels of
    :func:`_component_labels`."""
    d = len(labels)
    sizes = np.bincount(labels, minlength=d)
    # members grouped by label, ascending within each (np.unique would
    # import numpy.ma, 10 ms in each new worker process)
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(d))
    return [
        order[starts[sizes == m][:, None] + np.arange(m)]
        for m in np.flatnonzero(np.bincount(sizes)) if m >= 2
    ]


class _Components:
    """Square matrices a_b of one off-diagonal pattern, a row b each, held by
    the connected components of that pattern: ``diag`` (rows, d), and for
    each component size m >= 2 the indices ``idx`` (nb, m) of its nb
    components of that size, each ascending, with every row's blocks (rows,
    nb, m, m), a_b[idx[c, i], idx[c, j]].  Applying a row is one row scaling
    by its diagonal, whose rows in a component are then overwritten by its
    blocks' products; a dense matrix is one component."""

    def __init__(self, diag: np.ndarray, stacks: list[tuple[np.ndarray, np.ndarray]]):
        self.diag = diag
        self.stacks = stacks

    @classmethod
    def of(cls, a: np.ndarray, diag: np.ndarray, index: list[np.ndarray]) -> _Components:
        """``a`` with each row of ``diag`` (rows, d) on its diagonal, by the
        :func:`_component_index` ``index`` of a's pattern, not checked."""
        stacks = []
        for idx in index:
            blocks = np.repeat(a[idx[:, :, None], idx[:, None, :]][None], len(diag), axis=0)
            i = np.arange(idx.shape[1])
            blocks[:, :, i, i] = diag[:, idx]
            stacks.append((idx, blocks))
        return cls(diag, stacks)

    def row(self, b: int) -> _Components:
        """The stack of row b alone."""
        return _Components(self.diag[b : b + 1], [(idx, a[b : b + 1]) for idx, a in self.stacks])

    def norm(self) -> np.ndarray:
        """||a_b||_2 of each row: the largest over its components."""
        parts = [self.diag[:, :, None, None]] + [blocks for _, blocks in self.stacks]
        return np.max([_spectral_norm(a) for a in parts], axis=0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix of a one-row stack times a vector or a d x k matrix x."""
        x2 = x.reshape(len(x), -1)
        out = self.diag[0][:, None] * x2
        for idx, blocks in self.stacks:
            out[idx] = blocks[0] @ x2[idx]
        return out.reshape(x.shape)

    def map(self, f) -> _Components:
        """f(a_b) of each row, for an f that acts on each component alone and
        keeps the pattern, as are exp(a_b dt_b) and a_b @ a_b: f is given the
        diagonals as a stack (rows, d, 1, 1) of 1 x 1 matrices and then each
        stack of blocks (rows, nb, m, m)."""
        diag = f(self.diag[:, :, None, None]).reshape(self.diag.shape)
        return _Components(diag, [(idx, f(blocks)) for idx, blocks in self.stacks])


def _reachable_pairs(
    labels: np.ndarray, channels: Sequence[NoiseChannel], seeds: np.ndarray
) -> np.ndarray:
    """reached[a, b] for the component labels a, b of :func:`_component_labels`:
    whether the block (a, b) of rho can be nonzero, from the blocks that
    hold a nonzero of the d x d ``seeds``.  G moves an entry within its
    block; a monomial jump moves entry (i, j) of block (a, b) to
    (rows(i), rows(j)), so block (a, b) feeds every block (a', b') with a
    jump from a to a' and from b to b' in the same channel.  Breadth-first
    over blocks: each round expands the blocks new in the last round along
    every channel's moves between components, held as adjacency lists of
    nodes k d + a (channel k, component a)."""
    d = len(labels)
    moves = [(k * d + labels[ch.cols]) * d + labels[ch.rows] for k, ch in enumerate(channels)]
    key = np.sort(np.concatenate([np.zeros(0, dtype=int)] + moves))
    src, dst = np.divmod(key[np.diff(key, prepend=-1) != 0], d)
    start = np.searchsorted(src, np.arange(len(channels) * d + 1))
    degree = np.diff(start)
    offsets = np.arange(len(channels))[:, None] * d
    reached = np.zeros(d * d, dtype=bool)
    rows, cols = np.nonzero(seeds)
    new = reached.copy()
    new[labels[rows] * d + labels[cols]] = True
    while new.any():
        reached |= new
        frontier = np.flatnonzero(new)
        a = (offsets + frontier // d).ravel()
        b = (offsets + frontier % d).ravel()
        # every pair of a move out of a and a move out of b, pair by pair
        n = degree[a] * degree[b]
        pair = np.repeat(np.arange(n.size), n)
        rank = np.arange(pair.size) - np.repeat(np.cumsum(n) - n, n)
        width = degree[b][pair]
        to_a = dst[start[a][pair] + rank // width]
        to_b = dst[start[b][pair] + rank % width]
        new = np.zeros(d * d, dtype=bool)
        new[to_a * d + to_b] = True
        new &= ~reached
    return reached.reshape(d, d)


def _jump_key(ch: NoiseChannel) -> tuple[bytes, bytes, bytes]:
    return ch.rows.tobytes(), ch.cols.tobytes(), ch.vals.tobytes()


class LindbladSupport:
    """The entries of rho that the master equation with H and the given jumps
    can reach from rho0, for every rate of every channel, and the packed
    layout of a state on them; everything here is independent of the rates.

    G = -iH - K/2 mixes the rows of rho only within one connected component
    of H's off-diagonal pattern (K is diagonal), and the columns likewise,
    so the reachable entries are a union of component-pair blocks Ca x Cb:
    the blocks closed from rho0's nonzeros under every channel's monomial
    jump (:func:`_reachable_pairs`, with every channel at unit rate; a rate
    of 0 reaches a subset).  A rho0 of all ones reaches every entry.

    ``labels`` and ``index`` are H's components (:func:`_component_labels`,
    :func:`_component_index`).  A state on the support is packed as the
    vector of its ``size`` entries in row-major order, so a state with every
    entry reachable is packed as rho.ravel().  ``flat`` holds their flat
    indices into the raveled d x d matrix, ``rows`` their row states,
    ``transpose`` the packed position of each entry's transpose, and
    ``strips`` the rows of each component of H with two or more states over
    its reachable columns, grouped by component size and width as (stack,
    components, packed positions (n, m, w)).  Each channel's sandwich
    L rho L^dag is a flat gather and scatter on packed positions with
    unit-rate weights, found in ``jumps`` by the channel's nonzeros.
    """

    def __init__(self, h: np.ndarray, channels: Sequence[NoiseChannel], rho0: np.ndarray):
        h = np.asarray(h)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"H must be a square matrix, got shape {h.shape}")
        _check_jump_dims(h.shape, channels)
        self.dim = d = len(h)
        self.labels = labels = _component_labels(h)
        self.index = _component_index(labels)
        rho0 = np.asarray(rho0)
        if rho0.shape != h.shape:
            raise ValueError(f"dimension mismatch: rho {rho0.shape}, H {h.shape}")
        reached = _reachable_pairs(labels, channels, (rho0 != 0) | (rho0 != 0).T)
        inside = reached[labels[:, None], labels]
        self.flat = np.flatnonzero(inside)
        self.size = self.flat.size
        pos = np.full(d * d, -1)
        pos[self.flat] = np.arange(self.size)
        self.rows, cols = np.divmod(self.flat, d)
        self.transpose = pos[cols * d + self.rows]
        self.strips = []
        for stack, idx in enumerate(self.index):
            widths = np.count_nonzero(inside[idx[:, 0]], axis=1)
            counts = np.bincount(widths)
            counts[0] = 0  # a component with no reachable entry
            for w in np.flatnonzero(counts):
                comps = np.flatnonzero(widths == w)
                reach = np.nonzero(inside[idx[comps, 0]])[1].reshape(len(comps), 1, w)
                self.strips.append((stack, comps, pos[idx[comps][:, :, None] * d + reach]))
        self.jumps = {}
        for ch in channels:
            # entry (i, j) with i = cols[a] and j = cols[b] moves to
            # (rows[a], rows[b]) with weight vals[a] vals[b]^*
            nth = np.full(d, -1)
            nth[ch.cols] = np.arange(ch.cols.size)
            a, b = nth[self.rows], nth[cols]
            frm = np.flatnonzero((a >= 0) & (b >= 0))
            a, b = a[frm], b[frm]
            to = pos[ch.rows[a] * d + ch.rows[b]]
            self.jumps[_jump_key(ch)] = (to, frm, ch.vals[a] * ch.vals[b].conj())

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """The entries of rho on the support; a rho with a nonzero off it, or
        not d x d, raises ValueError."""
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: rho {rho.shape}, H {(self.dim,) * 2}")
        v = rho.reshape(-1)[self.flat]
        if np.count_nonzero(v) != np.count_nonzero(rho):
            raise ValueError("rho has nonzero entries outside the support")
        return v

    def unpack(self, v: np.ndarray) -> np.ndarray:
        """The d x d matrix with v on the support and zeros elsewhere."""
        rho = np.zeros(self.dim * self.dim, dtype=v.dtype)
        rho[self.flat] = v
        return rho.reshape(self.dim, self.dim)

    def hermitize(self, v: np.ndarray) -> np.ndarray:
        """(rho + rho^dag)/2 on packed positions."""
        return 0.5 * (v + v[self.transpose].conj())


class _Generator:
    """Precomputed Lindblad generators on a :class:`LindbladSupport`, one per
    row of a stack: row b is H with the support's jumps at the checked
    rates ``rates[b]`` (rows, channels).  rhs(x) = G rho + rho G^dag +
    jumps for each row's Hermitian rho, packed on the support.  H is checked
    once, finite, Hermitian and within the support's components, and so is
    each channel's unit-rate sandwich (ValueError if they do not fit); per
    row are G_b = -iH - K_b/2 (``g``, on the support's components), the jump
    weights and ``bound``.  A stack's states are held flat, entry i of its
    b-th row at b s + i (s = support.size), so that every gather and scatter
    is one 1-D index; the offsets and per-row parts are kept until the rows
    change (:meth:`_parts`).

    ``bound[b]`` = 2 ||G_b||_2 + sum_k rate_bk ||L_k||_2^2 bounds row b's
    generator norm as a map on rho with the Frobenius norm; a monomial L_k
    has ||L_k||_2 = max |vals|.
    """

    def __init__(
        self,
        h: np.ndarray,
        channels: Sequence[NoiseChannel],
        rates: np.ndarray,
        support: LindbladSupport,
    ):
        self.rates = rates
        g, diag = _no_jump_diagonals(h, channels, rates, IntegrationError)
        if g.shape != (support.dim,) * 2:
            raise ValueError(f"dimension mismatch: H {g.shape}, support of dimension {support.dim}")
        rows, cols = np.nonzero(g)
        if np.any(support.labels[rows] != support.labels[cols]):
            raise ValueError("H couples states that lie in different components of the support")
        self.support = support
        self.g = _Components.of(g, diag, support.index)
        self.sandwiches = []
        for ch in channels:
            found = support.jumps.get(_jump_key(ch))
            if found is None:
                raise ValueError(f"jump {ch.label!r} is not one of the support's channels")
            self.sandwiches.append(found)
        self.all_rows = np.arange(len(rates))
        self.bound = 2.0 * self.g.norm()
        for c, ch in enumerate(channels):
            self.bound += self.rates[:, c] * np.max(np.abs(ch.vals), initial=0.0) ** 2
        self._key = None

    def _parts(self, rows: np.ndarray):
        """For a stack of ``rows``: its flat diagonal, transpose offsets,
        strips (blocks, offsets) and jumps (to, from, weights), rebuilt
        only when the rows differ from the last call's."""
        key = rows.tobytes()
        if key != self._key:
            base = np.arange(len(rows)) * self.support.size

            def at(idx: np.ndarray) -> np.ndarray:
                flat = base.reshape((-1,) + (1,) * idx.ndim) + idx
                return flat.reshape((-1,) + idx.shape[1:])

            diag = self.g.diag[rows][:, self.support.rows].reshape(-1)
            strips = []
            for k, sel, pos in self.support.strips:
                blocks = self.g.stacks[k][1][rows][:, sel]
                strips.append((blocks.reshape((-1,) + blocks.shape[2:]), at(pos)))
            jumps = [
                (at(to), at(frm), (self.rates[rows, c : c + 1] * weights).reshape(-1))
                for c, (to, frm, weights) in enumerate(self.sandwiches)
            ]
            self._key, self._cache = key, (diag, at(self.support.transpose), strips, jumps)
        return self._cache

    def rhs(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The generators of ``rows`` (every row by default) applied to their
        Hermitian states, packed in x, of any shape holding them row after
        row, with one application of G: with X = G rho, rho G^dag = X^dag,
        the transpose of X's conjugate on packed positions.  An exactly
        Hermitian rho gives an exactly Hermitian result, so the Taylor terms
        and RK4 stages built from rho0 stay Hermitian; :func:`lindblad_rhs`
        is the reference."""
        diag, transpose, strips, jumps = self._parts(self.all_rows if rows is None else rows)
        flat = x.reshape(-1)
        y = diag * flat
        for blocks, pos in strips:
            y[pos] = blocks @ flat[pos]
        out = y + y[transpose].conj()
        for to, frm, weights in jumps:
            out[to] += weights * flat[frm]
        return out.reshape(x.shape)

    def hermitize(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(rho + rho^dag)/2 of each state of ``rows``, packed in x."""
        flat = x.reshape(-1)
        return (0.5 * (flat + flat[self._parts(rows)[1]].conj())).reshape(x.shape)


def _step_sizes(dt: float, t_final: float) -> list[float]:
    """:func:`step_count` steps of dt with the final step resized to land
    exactly on t_final."""
    n_steps = step_count(dt, t_final)
    last = t_final - (n_steps - 1) * dt
    return [dt] * (n_steps - 1) + [last]


# RK4's stability region reaches -2.78 on the real axis; a step whose
# generator-norm bound exceeds it can blow up instead of failing loudly
_RK4_STABILITY = 2.78
# a Taylor substep spans x = substep * bound <= _TAYLOR_THETA; a larger x
# needs fewer substeps but more cancellation, since the largest term is
# about e^x / sqrt(2 pi x) times ||rho|| (11 times at x = 4)
_TAYLOR_THETA = 4.0
# a substep stops after term k once k + 1 > x and the tail bound below is
# under this fraction of its partial sum: term k+j is at most
# (x/(k+1))^j times term k, so the whole rest of the series is at most
# ||term_k|| x / (k + 1 - x)
_TAYLOR_TOL = 1e-15
# at x <= 4 term k is at most 4^k/k! times the start's Frobenius norm, and
# the partial sum keeps at least 1/55 of it (rho at d <= 256: trace 1 and
# ||rho||_F <= 1; the identity: exp(a) has singular values >= e^-4), so the
# tail bound is met by term 32 at the latest; needing this many terms means
# the bound does not hold
_TAYLOR_MAX_TERMS = 60
# the Lindblad rows of one stacked run, and the Monte Carlo jumpers of one
# row of a stack, advance together in blocks of at most this many bytes of
# state (8 rows of fig1b eth-7, 64 columns at d = 256): the memory held
# stays bounded whatever the number of rates or trajectories, and the rows
# or columns of a block share each numpy call
_BLOCK_BYTES = 2**18


def _check_trace(rho: np.ndarray, t: float, advice: str, row: int) -> None:
    drift = abs(np.trace(rho).real - 1.0)
    if drift > 1e-5:
        raise IntegrationError(f"trace drifted by {drift:.3e} at t={t:.6g}{advice}", row)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each row a[b] of a stack, as np.linalg.norm(a[b])
    computes it, to the last bit: the real and imaginary dot products."""
    r = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))


def _taylor_substep(
    apply,
    x0: np.ndarray,
    rows: np.ndarray,
    step: np.ndarray,
    bound: np.ndarray,
    error: type[NumericsError],
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k (step_b A_b)^k x0[b] / k! for each row x0[b] of a stack, with
    the linear maps A_b of ``rows`` (one per row of x0), whose norms are at
    most ``bound``: ``apply(x, rows)`` applies the maps of ``rows`` to the
    rows of x.  Each row stops on its own tail bound, and the others go on
    without it, so a row's sum does not depend on the rest of the stack.
    Returns the sums and each row's number of applications.  A row that
    needs more than _TAYLOR_MAX_TERMS terms raises ``error`` naming it."""
    x = step * bound
    out, terms = np.empty_like(x0), np.zeros(len(x0), dtype=int)
    ks = np.arange(1, _TAYLOR_MAX_TERMS + 1)[:, None]

    def live(at):
        """The maps of the rows ``at`` of x0, their scales step/k for every
        k (complex, so the product casts nothing) and their x as floats."""
        scale = (step[at] / ks).astype(complex)
        xs = x[at].tolist()
        return rows[at], scale.reshape(scale.shape + (1,) * (x0.ndim - 1)), xs, min(xs)

    at = np.arange(len(x0))  # the rows of x0 still summing
    ra, scale, xs, xmin = live(at)
    acc, term = x0.copy(), x0
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = apply(term, ra) * scale[k - 1]
        acc += term
        if k + 1 > xmin:
            tails = zip(_row_norms(term).tolist(), _row_norms(acc).tolist(), xs)
            stop = [k + 1 > xb and t * xb / (k + 1 - xb) <= _TAYLOR_TOL * a for t, a, xb in tails]
            if any(stop):
                stop = np.array(stop)
                out[at[stop]], terms[at[stop]] = acc[stop], k
                if stop.all():
                    return out, terms
                at, acc, term = at[~stop], acc[~stop], term[~stop]
                ra, scale, xs, xmin = live(at)
    first = at[0]
    raise error(
        f"Taylor series did not converge in {_TAYLOR_MAX_TERMS} terms "
        f"(substep {step[first]:.4g}, generator bound {bound[first]:.4g})",
        int(rows[first]),
    )


def _n_substeps(t: float, bound):
    """ceil(t * bound / theta), at least one, for a bound or an array of them."""
    return np.maximum(1, np.ceil(t * np.asarray(bound) / _TAYLOR_THETA).astype(int))


def _propagate_exact(
    apply, x: np.ndarray, rows: np.ndarray, t: float, bound: np.ndarray, error, finish=None
) -> tuple[np.ndarray, np.ndarray]:
    """exp(t A_b) x[b] for each row of a stack, with the maps A_b of ``rows``
    (:func:`_taylor_substep`), each row in ceil(t * bound_b / theta) Taylor
    substeps of its own, passed through ``finish(x, rows)`` after each when
    given; returns x and each row's number of applications."""
    n_sub = _n_substeps(t, bound)
    step = t / n_sub
    applications = np.zeros(len(x), dtype=int)
    for j in range(n_sub.max()):
        at = np.flatnonzero(n_sub > j)
        acc, k = _taylor_substep(apply, x[at], rows[at], step[at], bound[at], error)
        applications[at] += k
        x[at] = acc if finish is None else finish(acc, rows[at])
    return x, applications


def _propagate_rk4(
    gen: _Generator, v: np.ndarray, rows: np.ndarray, sizes: list[float]
) -> np.ndarray:
    """Classical RK4 steps of the given sizes for the states of ``rows``,
    packed as the rows of v, Hermitized after every step."""
    for s in sizes:
        k1 = gen.rhs(v, rows)
        k2 = gen.rhs(v + (0.5 * s) * k1, rows)
        k3 = gen.rhs(v + (0.5 * s) * k2, rows)
        k4 = gen.rhs(v + s * k3, rows)
        v = gen.hermitize(v + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), rows)
    return v


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (rows, ..., m, m), such as the blocks of
    :class:`_Components`, row by row (:func:`_propagate_exact` of X -> a[b] X
    on identities): a row's substeps and tail test are its own."""
    u = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    bound, rows = _spectral_norm(a), np.arange(len(a))
    return _propagate_exact(lambda x, r: a[r] @ x, u, rows, 1.0, bound, TrajectoryError)[0]


def integrate_lindblad(
    rho0: np.ndarray,
    h: np.ndarray,
    noise: NoiseModel,
    config: IntegrationConfig,
    support: LindbladSupport | None = None,
) -> LindbladResult:
    """rho(t_final): rho0 evolved under the master equation up to
    ``config.t_final``; a stack of one row (:func:`integrate_lindblad_stack`)."""
    rates = [[ch.rate for ch in noise.channels]]
    return next(integrate_lindblad_stack(rho0, h, noise.channels, rates, config, support))


def integrate_lindblad_stack(
    rho0: np.ndarray,
    h: np.ndarray,
    channels: Sequence[NoiseChannel],
    rates: Sequence[Sequence[float]] | np.ndarray,
    config: IntegrationConfig,
    support: LindbladSupport | None = None,
) -> Iterator[LindbladResult]:
    """rho(t_final) for each row b of ``rates`` (rows, channels), the jumps at
    ``rates[b]``: one :class:`LindbladResult` per row in order, from one
    stacked run, each row what :func:`integrate_lindblad` gives for its
    rates alone, in as many generator applications.  ``config.dt=None``
    propagates exactly, an explicit dt by RK4 of :func:`step_count` steps;
    the state is Hermitized on entry and after every (sub)step, and a trace
    drift beyond 1e-5 at t_final raises :class:`IntegrationError`.  rho is
    evolved packed on ``support`` (:class:`LindbladSupport`), built here
    when not given; one built for H, for these jumps or more and for rho0's
    nonzeros or more serves every rate.

    Before any propagation a ``rates`` that is not (rows >= 1, channels), or
    a rate that is not finite and >= 0, raises ValueError naming the row
    and the channel, as do a rho0 that is not a finite density matrix, a
    dimension that is not H's, a non-Hermitian H and a support that does
    not fit, checked once; an RK4 step beyond any row's stability region
    raises IntegrationError.  Rows advance in blocks of at most _BLOCK_BYTES
    of packed state, each block yielded before the next starts, and a
    numerical failure names its row as the error's ``row``.
    """
    rho = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho)
    rates = _check_rates(rates, channels)
    if support is None:
        support = LindbladSupport(h, channels, rho)
    gen = _Generator(h, channels, rates, support)
    # the check allows a 1e-10 anti-Hermitian part; the generator's one
    # product needs an exactly Hermitian state
    v0 = support.hermitize(support.pack(rho))
    advice = ""
    if config.dt is not None:
        sizes = _step_sizes(config.dt, config.t_final)
        advice = "; use a smaller dt"
        over = np.flatnonzero(max(sizes) * gen.bound > _RK4_STABILITY)
        if over.size:
            b = int(over[0])
            raise IntegrationError(
                f"RK4 step {max(sizes):.4g} exceeds the stability limit "
                f"{_RK4_STABILITY / gen.bound[b]:.4g} of this generator{advice}",
                b,
            )
    width = max(1, _BLOCK_BYTES // v0.nbytes)
    for start in range(0, len(rates), width):
        rows = gen.all_rows[start : start + width]
        v = np.tile(v0, (len(rows), 1))
        applications = np.zeros(len(rows), dtype=int)
        if config.t_final > 0 and config.dt is None:
            v, applications = _propagate_exact(
                gen.rhs, v, rows, config.t_final, gen.bound[rows], IntegrationError, gen.hermitize
            )
        elif config.t_final > 0:
            v = _propagate_rk4(gen, v, rows, sizes)
            applications += 4 * len(sizes)
        for row, packed, count in zip(rows, v, applications):
            final = support.unpack(packed)
            _check_trace(final, config.t_final, advice, int(row))
            yield LindbladResult(final, int(count), support.size)


def mc_trajectories(
    psi0: np.ndarray,
    h: np.ndarray,
    noise: NoiseModel,
    t_final: float,
    observables: Sequence[np.ndarray],
    config: TrajectoryConfig,
) -> McResult:
    """Quantum-jump Monte Carlo estimates at t_final: a stack of one row
    (:func:`mc_trajectories_stack`)."""
    channels, rates = noise.channels, [[ch.rate for ch in noise.channels]]
    return next(mc_trajectories_stack(psi0, h, channels, rates, t_final, observables, [config]))


def mc_trajectories_stack(
    psi0: np.ndarray,
    h: np.ndarray,
    channels: Sequence[NoiseChannel],
    rates: Sequence[Sequence[float]] | np.ndarray,
    t_final: float,
    observables: Sequence[np.ndarray],
    configs: Sequence[TrajectoryConfig],
) -> Iterator[McResult]:
    """For each row b of ``rates`` (rows, channels), the jumps at ``rates[b]``
    and ``configs[b]``: the trajectory mean and standard error (sample
    stddev / sqrt(n)) of <psi|O|psi> at t_final for each observable, and the
    jumpers and jumps, yielded row by row, each what :func:`mc_trajectories`
    gives for its rates alone.

    Before any propagation the rates are checked as in
    :func:`integrate_lindblad_stack`, every step count is capped, and psi0,
    H and the observables are checked once (ValueError for a dimension that
    is not H's, a non-finite psi0 or observable, a non-Hermitian H or
    observable).  A zero total jump rate, a no-jump norm growing by more
    than 1e-12 (relative) between steps or across one power, or a
    renormalization off by more than 1e-10, in any column, raises
    :class:`TrajectoryError` with the row's index as its ``row``.
    """
    _check_t_final(t_final)
    rates = _check_rates(rates, channels)
    if len(configs) != len(rates):
        raise ValueError(f"need a config per row of rates: {len(configs)} for {len(rates)}")
    n_steps = np.array([step_count(config.dt, t_final) for config in configs])
    psi0 = np.asarray(psi0, dtype=complex)
    if not np.isfinite(psi0).all():
        raise ValueError("psi0 has non-finite entries")
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {nrm!r} is not 1")
    g, diag = _no_jump_diagonals(h, channels, rates, TrajectoryError)
    if psi0.shape != g.shape[:1]:
        raise ValueError(f"dimension mismatch: psi0 {psi0.shape}, H {g.shape}")
    for i, obs in enumerate(observables):
        if np.shape(obs) != g.shape:
            raise ValueError(f"dimension mismatch: observable {i} {np.shape(obs)}, H {g.shape}")
        require_hermitian(np.asarray(obs), what=f"observable {i}")
    if t_final == 0:
        rates = np.zeros_like(rates)  # no step is taken, so nothing jumps
    dt = t_final / n_steps
    u_step = _Components.of(g, diag, _component_index(_component_labels(g))).map(
        lambda a: _expm(a * dt.reshape((-1,) + (1,) * (a.ndim - 1)))
    )
    for b, config in enumerate(configs):
        try:
            result = _trajectories(
                psi0, u_step.row(b), channels, rates[b], int(n_steps[b]), observables, config
            )
        except TrajectoryError as exc:
            exc.row = b
            raise
        yield result


def _trajectories(
    psi0: np.ndarray,
    u_step: _Components,
    channels: Sequence[NoiseChannel],
    rates: np.ndarray,
    n_steps: int,
    observables: Sequence[np.ndarray],
    config: TrajectoryConfig,
) -> McResult:
    """One row of :func:`mc_trajectories_stack`: ``config.n_traj`` trajectories
    over n_steps steps of the one-row ``u_step``.  The jumpers, in index
    order, advance in blocks of at most _BLOCK_BYTES of state as the columns
    of one matrix, in rounds of one jump each."""
    n_traj = config.n_traj

    def reduce_values(values: np.ndarray, jumpers: int = 0, jumps: int = 0) -> McResult:
        # a row whose trajectories all agree is deterministic: its stderr is
        # exactly 0, not the rounding left by subtracting the mean
        stderrs = np.zeros(len(values))
        spread = np.ptp(values, axis=1) > 0
        stderrs[spread] = values[spread].std(axis=1, ddof=1) / np.sqrt(n_traj)
        return McResult(values.mean(axis=1), stderrs, jumpers, jumps)

    def values_of(psi: np.ndarray) -> np.ndarray:
        """<O> of each normalized column of psi, one row per observable."""
        psi = psi / np.sqrt(_norms2(psi))
        return np.array([np.vecdot(psi, obs @ psi, axis=0).real for obs in observables])

    # u_step^(2^b) for b = 0 .. floor(log2 n_steps), by repeated squaring
    powers = [u_step]
    while 2 ** len(powers) <= n_steps:
        powers.append(powers[-1].map(lambda a: a @ a))

    # the deterministic no-jump backbone, shared by every trajectory, by
    # doubling: columns [2^b, 2^(b+1)) are u_step^(2^b) times columns [0, 2^b)
    states0 = np.empty((psi0.shape[0], n_steps + 1), dtype=complex)
    states0[:, 0] = psi0
    for b, power in enumerate(powers):
        stop = min(2 ** (b + 1), n_steps + 1)
        states0[:, 2**b : stop] = power.apply(states0[:, : stop - 2**b])
    values = np.tile(values_of(states0[:, -1:]), (1, n_traj))
    if not rates.any():
        return reduce_values(values)
    norms2 = _norms2(states0)
    if np.any(norms2[1:] > norms2[:-1] * (1 + 1e-12)):
        raise TrajectoryError("no-jump norm increased between steps")
    # enforce monotonicity against last-ulp rounding so searchsorted is valid
    norms2 = np.minimum.accumulate(norms2)

    rng = np.random.default_rng(config.seed)
    thresholds = rng.random(n_traj)
    # first crossing step per trajectory: norms2[1:] is non-increasing, so
    # the number of entries <= r locates the crossing in O(log n_steps)
    ascending = norms2[1:][::-1]
    counts = np.searchsorted(ascending, thresholds, side="right")
    jumpers = np.nonzero(counts > 0)[0]

    decay_rows = _decay_rows(channels, rates, len(psi0))

    # Each round, every live column jumps from the state at its crossing step
    # and follows its no-jump stretch by binary lifting over the powers: the
    # furthest step whose norm stays above a fresh threshold, in at most
    # len(powers) matmuls.  A column that reaches n_steps records its values;
    # the others step onto their next crossing and stay live.
    width = max(1, _BLOCK_BYTES // psi0.nbytes)
    total_jumps = 0
    for start in range(0, len(jumpers), width):
        live = jumpers[start : start + width]
        step = n_steps - counts[live] + 1
        psi = states0[:, step]
        while live.size:
            phi, n2 = _jump_columns(rng, psi, channels, decay_rows)
            threshold = rng.random(live.size)
            for b in reversed(range(len(powers))):
                fits = np.nonzero(step + 2**b <= n_steps)[0]
                if not fits.size:
                    continue
                nxt = powers[b].apply(phi[:, fits])
                nxt_n2 = _norms2(nxt)
                if np.any(nxt_n2 > n2[fits] * (1 + 1e-12)):
                    raise TrajectoryError("no-jump norm increased between steps")
                keep = nxt_n2 > threshold[fits]
                moved = fits[keep]
                phi[:, moved], n2[moved] = nxt[:, keep], nxt_n2[keep]
                step[moved] += 2**b
            total_jumps += live.size
            done = step == n_steps
            values[:, live[done]] = values_of(phi[:, done])
            live, step = live[~done], step[~done] + 1
            psi = u_step.apply(phi[:, ~done])
    return reduce_values(values, len(jumpers), total_jumps)


def _decay_rows(channels: Sequence[NoiseChannel], rates: np.ndarray, dim: int) -> np.ndarray:
    """rows[k, cols_k] = rates[k] |vals_k|^2, so that rows @ |psi|^2 holds
    every channel weight rate_k ||L_k psi||^2 of a block in one product."""
    rows = np.zeros((len(channels), dim))
    for k, ch in enumerate(channels):
        rows[k, ch.cols] = rates[k] * np.abs(ch.vals) ** 2
    return rows


def _norms2(psi: np.ndarray) -> np.ndarray:
    """The squared norm of each column of psi."""
    return np.vecdot(psi, psi, axis=0).real


def _jump_columns(
    rng, psi: np.ndarray, channels: Sequence[NoiseChannel], decay_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every column of psi after one jump, renormalized, and its squared norm.

    Each column's channel is drawn with probability proportional to
    rate ||L psi||^2, one draw per column in column order.  A column whose
    channels all have zero weight, or whose renormalized norm is off by more
    than 1e-10, raises :class:`TrajectoryError`.
    """
    weights = decay_rows @ (psi.real**2 + psi.imag**2)
    total = weights.sum(axis=0)
    if np.any(total <= 0):
        raise TrajectoryError("jump threshold crossed but every channel has zero rate")
    u = rng.random(psi.shape[1]) * total
    chosen = np.minimum((np.cumsum(weights, axis=0) <= u).sum(axis=0), len(channels) - 1)
    phi = np.zeros_like(psi)
    # np.unique would import numpy.ma, 10 ms in each new worker process
    for k in np.flatnonzero(np.bincount(chosen, minlength=len(channels))):
        ch, picked = channels[k], np.nonzero(chosen == k)[0]
        phi[ch.rows[:, None], picked] = ch.vals[:, None] * psi[ch.cols[:, None], picked]
    phi /= np.sqrt(_norms2(phi))
    n2 = _norms2(phi)
    if np.any(np.abs(np.sqrt(n2) - 1.0) > 1e-10):
        raise TrajectoryError("renormalization failed")
    return phi, n2
