"""Independent oracles used by the tests.

Everything here is deliberately written from scratch against the problem
statements (explicit loops, generic KKT assembly, exhaustive search) so it
shares no code path with the package implementation it checks.
"""

import numpy as np


def brute_force_objective(z: np.ndarray) -> float:
    """Sum of pairwise distances over all ordered pairs, via a double loop."""
    m = z.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += float(np.sqrt(np.sum((z[i] - z[j]) ** 2)))
    return total


def certificate_xi(cert, i: int, j: int) -> np.ndarray:
    """The certificate multiplier ``xi_ij = (rows[i] - rows[j]) / n_p`` for
    two rows of one class of size ``n_p``."""
    assert cert.labels[i] == cert.labels[j], "xi is defined only within a class"
    n_p = int(np.sum(cert.labels == cert.labels[i]))
    return (cert.rows[i] - cert.rows[j]) / n_p


def fusion_quadratic(features: np.ndarray, w: np.ndarray):
    """Assemble the quadratic ``sum_{i,j} w_ij ||z_i - z_j||^2`` explicitly.

    Returns (G, A) with the objective equal to ``0.5 x^T G x`` for the
    row-stacked variable x, and A the constraint matrix of a_i^T z_i = b_i.
    """
    m, d = features.shape
    n = m * d
    G = np.zeros((n, n))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # each ordered pair contributes w_ij * ||z_i - z_j||^2
            for s in range(d):
                G[i * d + s, i * d + s] += 2.0 * w[i, j]
                G[j * d + s, j * d + s] += 2.0 * w[i, j]
                G[i * d + s, j * d + s] -= 2.0 * w[i, j]
                G[j * d + s, i * d + s] -= 2.0 * w[i, j]
    A = np.zeros((m, n))
    for i in range(m):
        A[i, i * d : (i + 1) * d] = features[i]
    return G, A


def solve_eqp(G: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generic equality-constrained quadratic solve via one dense KKT system:
    minimize 0.5 x^T G x subject to A x = b."""
    n = G.shape[0]
    m = A.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = G
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    rhs = np.concatenate([np.zeros(n), b])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n]


def _line_parametrization(features: np.ndarray, responses: np.ndarray):
    """Per-point base point and unit direction of each constraint line (d=2)."""
    sq = np.sum(features**2, axis=1)
    base = (responses / sq)[:, None] * features
    dirs = np.column_stack([-features[:, 1], features[:, 0]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return base, dirs


def _objective_of_ts(base, dirs, ts) -> float:
    z = base + ts[:, None] * dirs
    return brute_force_objective(z)


def _exhaustive_search(base, dirs, grid):
    """Minimize over the product grid, one coordinate per point.

    The first ``m - 2`` coordinates (the prefix) run over the grid in
    lexicographic order, and each prefix's ``(len(grid), len(grid))`` plane
    of the last two is evaluated at once, many prefixes per block.  Every
    prefix's terms are computed and summed in one fixed order (pairs within
    the prefix, then each prefix point against the last two, then the last
    pair), so the value at a node does not depend on the block it falls in;
    the first minimum in lexicographic (prefix, a, b) order is returned as
    (best value, best coordinate vector).
    """
    m = base.shape[0]
    if m == 1:
        return _objective_of_ts(base, dirs, np.zeros(1)), np.zeros(1)
    n = grid.size
    k = m - 2  # prefix length
    pts = [base[i] + grid[:, None] * dirs[i] for i in range(m)]  # (n, 2) each
    za, zb = pts[m - 2], pts[m - 1]
    # distances between two prefix points, one grid index each; the 1-d
    # norm is the same call a single prefix point pair would make
    pair = {
        (i, j): np.array(
            [[np.linalg.norm(pts[i][a] - pts[j][b]) for b in range(n)] for a in range(n)]
        )
        for i in range(k)
        for j in range(i + 1, k)
    }
    # prefix point i (grid index g) against the last two points: [g, a]
    to_a = [np.linalg.norm(za[None, :, :] - pts[i][:, None, :], axis=2) for i in range(k)]
    to_b = [np.linalg.norm(zb[None, :, :] - pts[i][:, None, :], axis=2) for i in range(k)]
    last = np.sqrt(np.sum((za[:, None, :] - zb[None, :, :]) ** 2, axis=2))

    count = n**k
    block = max(1, (1 << 20) // (n * n))
    best_val, best_ts = np.inf, None
    for start in range(0, count, block):
        q = np.arange(start, min(start + block, count))
        idx = np.unravel_index(q, (n,) * k) if k else ()
        total = np.zeros((q.size, n, n))
        const = np.zeros(q.size)
        for i in range(k):
            for j in range(i + 1, k):
                const += pair[i, j][idx[i], idx[j]]
            total += to_a[i][idx[i]][:, :, None]
            total += to_b[i][idx[i]][:, None, :]
        total += last
        total += const[:, None, None]
        p, ia, ib = np.unravel_index(int(np.argmin(total)), total.shape)
        # doubled: the oracle objective counts ordered pairs
        val = 2.0 * float(total[p, ia, ib])
        if val < best_val:
            prefix = [grid[ix[p]] for ix in idx]
            best_val, best_ts = val, np.array(prefix + [grid[ia], grid[ib]])
    return best_val, best_ts


def _coordinate_refine(base, dirs, ts, grid, sweeps=60):
    """Cyclic exhaustive minimization of one coordinate at a time over a
    fine grid, keeping every other coordinate fixed."""
    m = base.shape[0]
    ts = ts.copy()
    best = _objective_of_ts(base, dirs, ts)
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            zs = base + ts[:, None] * dirs
            others = np.delete(zs, i, axis=0)
            cand = base[i] + grid[:, None] * dirs[i]  # (n, 2)
            dists = np.linalg.norm(cand[:, None, :] - others[None, :, :], axis=2)
            contrib = 2.0 * dists.sum(axis=1)
            rest = brute_force_objective(others)
            vals = rest + contrib
            k = int(np.argmin(vals))
            if vals[k] < best - 1e-15:
                best = float(vals[k])
                ts[i] = grid[k]
                improved = True
        if not improved:
            break
    return best, ts


def grid_search_oracle(features, responses, npoints=200):
    """Best pairwise-fusion objective over feasible fields on a grid (d=2).

    Each point is parametrized by one scalar along its constraint line.  For
    m <= 3 the product grid with ``npoints`` per coordinate is enumerated
    outright; for larger m a coarse exhaustive pass (capped near 3e6 nodes)
    seeds cyclic per-coordinate sweeps over the ``npoints`` grid.  The search
    widens automatically if the minimizer lands on the grid boundary.
    """
    features = np.asarray(features, dtype=float)
    responses = np.asarray(responses, dtype=float)
    m = features.shape[0]
    assert features.shape[1] == 2
    base, dirs = _line_parametrization(features, responses)
    half = 1.0 + 2.0 * float(np.max(np.linalg.norm(base, axis=1)))
    for _ in range(6):
        fine = np.linspace(-half, half, npoints)
        if m <= 3:
            best, ts = _exhaustive_search(base, dirs, fine)
        else:
            coarse_n = max(6, int(round(3e6 ** (1.0 / m))))
            coarse = np.linspace(-half, half, coarse_n)
            _, ts = _exhaustive_search(base, dirs, coarse)
            best, ts = _coordinate_refine(base, dirs, ts, fine)
        if np.all(np.abs(ts) < half * (1.0 - 1.5 / npoints)):
            return best, base + ts[:, None] * dirs
        half *= 2.0
    raise AssertionError("grid oracle failed to bracket the minimizer")


def kmeans_reference(points, k: int, restarts: int = 20, seed: int = 0, seeds=None):
    """Lloyd's algorithm with plus-plus seeding, one restart at a time.

    Restart ``r`` seeds from ``SeedSequence(entropy=seed, spawn_key=(r,))``
    with ``Generator.choice`` draws, or at the rows ``seeds[r]`` when
    ``seeds`` is given, and runs its own Lloyd loop of masked cluster means,
    an empty cluster taking the point farthest from its center; the lowest
    inertia wins, ties toward the lowest restart.  Returns ``(centers,
    labels, inertia)``.  Points are assumed valid: no overflow and at least
    ``k`` distinct rows.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]

    def assign(centers):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        dist = d2[np.arange(m), labels]
        return labels, dist, float(dist.sum())

    best = None
    for r in range(restarts):
        if seeds is None:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            centers = np.empty((k, points.shape[1]))
            centers[0] = points[rng.integers(m)]
            sq = np.sum((points - centers[0]) ** 2, axis=1)
            for c in range(1, k):
                centers[c] = points[rng.choice(m, p=sq / sq.sum())]
                sq = np.minimum(sq, np.sum((points - centers[c]) ** 2, axis=1))
        else:
            centers = points[seeds[r]]
        labels, dist, inertia = assign(centers)
        for _ in range(300):
            new_centers = centers.copy()
            for c in range(k):
                mask = labels == c
                if np.any(mask):
                    new_centers[c] = points[mask].mean(axis=0)
                else:
                    far = int(np.argmax(dist))
                    new_centers[c] = points[far]
                    dist[far] = -1.0
            centers, old_labels = new_centers, labels
            labels, dist, inertia = assign(centers)
            if np.array_equal(labels, old_labels):
                break
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)
    return best


def sample_ball_reference(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform ball sample through ``np.linalg.norm`` and ``rng.uniform``."""
    if dim == 0:
        return np.zeros(0)
    g = rng.standard_normal(dim)
    norm = np.linalg.norm(g)
    while norm == 0.0:
        g = rng.standard_normal(dim)
        norm = np.linalg.norm(g)
    r = radius * rng.uniform() ** (1.0 / dim)
    return (r / norm) * g


def sample_sphere_reference(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform sphere sample through ``np.linalg.norm``."""
    g = rng.standard_normal(dim)
    norm = np.linalg.norm(g)
    while norm == 0.0:
        g = rng.standard_normal(dim)
        norm = np.linalg.norm(g)
    return (radius / norm) * g
