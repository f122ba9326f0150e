"""Output checks computed apart from the library, with numpy and scipy only.

Every check regenerates what it needs from the instance seed in the draw
order that ``dist_alm.bench`` documents: ``default_rng(seed)`` gives the N
symmetric ``H_i`` (each ``(A + A.T) / 2`` of a U[-1, 1] draw) and then the
N - 1 chain matrices ``W_i``; ``default_rng(seed + 0x9E3779B9)`` gives the N
start blocks and then the N multipliers.  The toy problem is

    min sum_i x_i H_i x_i + sum_i x_i W_i x_{i+1}
    s.t. ||x_i||^2 = R,  |x_ij| <= 0.6 R   (plus cut rows on ``polytope``).

Each function returns a list of problems found; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

#: Offset of the start-point stream from the instance seed.
INIT_STREAM = 0x9E3779B9
#: Relative slack that marks a box row active (the library's documented
#: ``1e-8 (1 + |bound|)`` rule).
ACTIVE_SCALE = 1e-8
#: Largest admitted violation of a final iterate's polytope.
POLYTOPE_SLACK = 1e-9
#: Two evaluations of the same sum in another order differ by rounding;
#: this is a few units of 1e-16 times the magnitudes involved.
ROUNDING = 1e-12


def chain_data(seed: int, n: int, d: int):
    """``(H, W)`` as arrays of shape (n, d, d) and (n - 1, d, d)."""
    rng = np.random.default_rng(seed)
    h = np.empty((n, d, d))
    for i in range(n):
        raw = rng.uniform(-1.0, 1.0, (d, d))
        h[i] = 0.5 * (raw + raw.T)
    w = np.array([rng.uniform(-1.0, 1.0, (d, d)) for _ in range(n - 1)])
    return h, w


def start_multipliers(seed: int, n: int, d: int, radius_sq: float):
    """The seeded multiplier start (drawn after the n start blocks)."""
    rng = np.random.default_rng(seed + INIT_STREAM)
    b = 0.6 * radius_sq
    for _ in range(n):
        rng.uniform(-b, b, d)
    return rng.uniform(-1.0, 1.0, n)


def sphere_values(x, radius_sq):
    return np.array([xi @ xi for xi in x]) - radius_sq


def sphere_residual(x, radius_sq) -> float:
    return float(np.max(np.abs(sphere_values(x, radius_sq))))


def aug_lagrangian(h, w, x, mu, rho, radius_sq) -> float:
    f = sphere_values(x, radius_sq)
    cost = sum(xi @ hi @ xi for xi, hi in zip(x, h))
    cost += sum(x[i] @ w[i] @ x[i + 1] for i in range(len(w)))
    return float(cost + mu @ f + 0.5 * rho * (f @ f))


def block_gradients(h, w, x, mu, rho, radius_sq):
    f = sphere_values(x, radius_sq)
    grad = 2.0 * np.einsum("nij,nj->ni", h, x) + 2.0 * x * (mu + rho * f)[:, None]
    grad[1:] += np.einsum("nji,nj->ni", w, x[:-1])
    grad[:-1] += np.einsum("nij,nj->ni", w, x[1:])
    return grad


def box_criticality(h, w, x, mu, rho, radius_sq) -> float:
    """Closed-form distance of the gradient to -N_box(x) (2-norm over blocks).

    At an upper bound the normal cone admits nonnegative components, so a
    nonpositive gradient component is absorbed; at a lower bound a
    nonnegative one is.
    """
    bound = 0.6 * radius_sq
    grad = block_gradients(h, w, x, mu, rho, radius_sq)
    tol = ACTIVE_SCALE * (1.0 + bound)
    at_hi = x >= bound - tol
    at_lo = x <= -bound + tol
    res = grad.copy()
    res[at_hi & (grad <= 0.0)] = 0.0
    res[at_lo & (grad >= 0.0)] = 0.0
    res[at_hi & at_lo] = 0.0
    return float(np.sqrt(np.sum(res * res)))


def near(value, expected, scale=1.0, rel=ROUNDING) -> bool:
    return abs(value - expected) <= rel * (abs(expected) + scale)


def final_point(what, x, rows, offsets, radius_sq, h_inf):
    """The final iterate lies in its polytopes and ``h_inf`` is its residual.

    ``rows[i] x_i <= offsets[i]`` are agent ``i``'s polytope rows.
    """
    problems = []
    worst = max(float(np.max(a @ xi - b)) for a, xi, b in zip(rows, x, offsets))
    if worst > POLYTOPE_SLACK:
        problems.append(f"{what}: final iterate outside its polytope by {worst:.3e}")
    expected = sphere_residual(x, radius_sq)
    if not near(h_inf, expected, scale=radius_sq):
        problems.append(f"{what}: h_inf {h_inf!r} != recomputed {expected!r}")
    return problems


def schedule(what, trace, rho0, beta):
    """Each ``rho_k`` equals ``rho0 * beta**k`` bitwise."""
    return [f"{what}: rho_{t.k} = {t.rho!r}, expected {rho0 * beta ** t.k!r}"
            for t in trace if t.rho != rho0 * beta ** t.k]


def outer_iterations(what, outers, trace, seed, n, d, radius_sq, box):
    """Per-outer checks on a re-solve with the inner calls captured.

    ``outers[k]`` holds ``(z_k, rho_k)``: the iterate the k-th inner call
    returned and its penalty.  The multipliers are recomputed here from the
    seeded start with ``mu <- mu + rho_k (||x_i||^2 - R)``.  Checks that
    each trace ``h_inf`` is the sphere residual of ``z_k`` and, on boxes,
    that the reported criticality residual is the closed-form one.
    """
    problems = []
    if len(outers) != len(trace):
        return [f"{what}: {len(outers)} inner calls for {len(trace)} trace rows"]
    h, w = chain_data(seed, n, d)
    mu = start_multipliers(seed, n, d, radius_sq)
    for (x, rho), t in zip(outers, trace):
        expected = sphere_residual(x, radius_sq)
        if not near(t.h_inf, expected, scale=radius_sq):
            problems.append(f"{what}: outer {t.k} h_inf {t.h_inf!r} "
                            f"!= recomputed {expected!r}")
        if box:
            res = box_criticality(h, w, x, mu, rho, radius_sq)
            if not near(t.residual, res):
                problems.append(f"{what}: outer {t.k} residual {t.residual!r} "
                                f"!= closed form {res!r}")
        mu = mu + rho * sphere_values(x, radius_sq)
    return problems


def certified_sweeps(what, sweeps, seed, n, d, radius_sq,
                     decrease_slack, rel_err_slack):
    """Every certificate holds with the given slacks, and no sweep raises
    the augmented Lagrangian (recomputed here) by more than the sum of the
    per-agent decrease slacks.

    ``sweeps`` holds ``(x_before, x_after, mu, rho, certificate)``.
    """
    problems = []
    h, w = chain_data(seed, n, d)
    for x0, x1, mu, rho, cert in sweeps:
        bad = np.flatnonzero(
            ~((cert.decrease_lhs <= cert.decrease_rhs + decrease_slack)
              & (cert.rel_err_lhs <= cert.rel_err_bound + rel_err_slack)))
        if bad.size:
            problems.append(f"{what}: sweep {cert.sweep} at rho={rho:g}: "
                            f"certificate fails for agents {bad[:5].tolist()}")
        before = aug_lagrangian(h, w, x0, mu, rho, radius_sq)
        after = aug_lagrangian(h, w, x1, mu, rho, radius_sq)
        if after > before + n * decrease_slack + ROUNDING * abs(before):
            problems.append(f"{what}: sweep {cert.sweep} at rho={rho:g} raised "
                            f"the Lagrangian from {before!r} to {after!r}")
    return problems


def fractions(what, stats):
    """Each fraction is the share of the feasibility column within its tolerance."""
    problems = []
    for b, _ in enumerate(stats.budgets):
        for t, tol in enumerate(stats.tolerances):
            share = float(np.mean(stats.feasibility[:, b] <= tol))
            if stats.fractions[b, t] != share:
                problems.append(f"{what}: fraction[{b}, {t}] = "
                                f"{stats.fractions[b, t]!r}, recomputed {share!r}")
    return problems
