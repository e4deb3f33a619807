"""Independent reference implementations used only to cross-check results.

These deliberately re-derive everything from scratch (no calls into the
package's fitting code) so the tests compare two separately written paths.
"""

import numpy as np


def reference_unsupervised_decomposition(blocks, rank_joint, rank_indiv,
                                         max_iter=1000, tol=1e-6):
    """Plain alternating decomposition of stacked blocks into a shared
    low-rank part plus per-block parts with orthogonal score rows.

    Written directly on the data matrices (no outcome, no weighting).
    Returns (U_list, S_J, W_list, S_list, objective_trace).
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    k = len(blocks)
    n = blocks[0].shape[1]
    offsets = []
    a = 0
    for b in blocks:
        offsets.append((a, a + b.shape[0]))
        a += b.shape[0]
    X = np.vstack(blocks)

    def top_factors(mat, r):
        if r == 0:
            return np.zeros((mat.shape[0], 0)), np.zeros((0, n))
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return u[:, :r], s[:r, None] * vt[:r]

    U, S_J = top_factors(X, rank_joint)
    W = [np.zeros((b.shape[0], 0)) for b in blocks]
    S = [np.zeros((0, n)) for _ in blocks]

    def proj_off_rows(mat, rows):
        if rows.shape[0] == 0:
            return mat
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        keep = s > 1e-10 * s[0] if s.size and s[0] > 0 else np.zeros(s.shape, bool)
        basis = vt[keep]
        return mat - (mat @ basis.T) @ basis

    def objective():
        total = 0.0
        for i, (a0, b0) in enumerate(offsets):
            r = blocks[i] - U[a0:b0] @ S_J - W[i] @ S[i]
            total += float(np.sum(r * r))
        return total

    # one pass to initialize the individual parts
    for i, (a0, b0) in enumerate(offsets):
        resid = blocks[i] - U[a0:b0] @ S_J
        resid = proj_off_rows(resid, S_J)
        W[i], S[i] = top_factors(resid, rank_indiv[i])
    trace = [objective()]
    for _ in range(max_iter):
        R = X.copy()
        for i, (a0, b0) in enumerate(offsets):
            R[a0:b0] -= W[i] @ S[i]
        U, S_J = top_factors(R, rank_joint)
        for i, (a0, b0) in enumerate(offsets):
            resid = blocks[i] - U[a0:b0] @ S_J
            resid = proj_off_rows(resid, S_J)
            W[i], S[i] = top_factors(resid, rank_indiv[i])
        trace.append(objective())
        if trace[-2] - trace[-1] <= tol * max(trace[-2], 1e-300):
            break
    U_list = [U[a0:b0] for a0, b0 in offsets]
    return U_list, S_J, W, S, trace


def max_principal_angle(rows_a, rows_b):
    """Largest principal angle (radians) between two row spaces."""
    from scipy.linalg import subspace_angles

    if rows_a.shape[0] == 0 and rows_b.shape[0] == 0:
        return 0.0
    angles = subspace_angles(np.asarray(rows_a).T, np.asarray(rows_b).T)
    return float(np.max(angles)) if angles.size else 0.0


def inference_oracle(model, y):
    """Brute-force nested least squares via explicit normal equations,
    with the F tail probability from the F distribution directly."""
    from scipy.stats import f as f_dist

    y = np.asarray(y, dtype=float).reshape(-1)
    n = model.n
    groups = [("joint", model.joint_scores)] + [
        (f"block{i + 1}", s) for i, s in enumerate(model.indiv_scores)
    ]
    cols = [np.ones((n, 1))] + [g.T for _, g in groups]

    def sse(design):
        gram = design.T @ design
        beta = np.linalg.solve(gram, design.T @ y)
        r = y - design @ beta
        return float(r @ r)

    full = np.hstack(cols)
    sse_full = sse(full)
    sst = float(np.sum((y - y.mean()) ** 2))
    q_total = sum(g.shape[0] for _, g in groups)
    out = {}
    for j, (name, g) in enumerate(groups):
        reduced = np.hstack([c for i, c in enumerate(cols) if i != j + 1])
        sse_red = sse(reduced)
        q = g.shape[0]
        df2 = n - q_total - 1
        fstat = ((sse_red - sse_full) / q) / (sse_full / df2)
        out[name] = (
            (sse_red - sse_full) / sst,
            fstat,
            float(f_dist.sf(fstat, q, df2)),
        )
    return out


def eq1_objective_scalar(blocks, y, model):
    """Loss recomputed entry by entry with plain Python loops."""
    eta = model.eta
    total = 0.0
    for i, block in enumerate(blocks):
        xhat = model.joint_loadings[i] @ model.joint_scores + \
            model.indiv_loadings[i] @ model.indiv_scores[i]
        p, n = block.shape
        for a in range(p):
            for b in range(n):
                total += eta * (block[a, b] - xhat[a, b]) ** 2
    yhat = model.theta_joint @ model.joint_scores
    for th, s in zip(model.theta_indiv, model.indiv_scores):
        yhat = yhat + th @ s
    for b in range(len(y)):
        total += (1.0 - eta) * (y[b] - yhat[b]) ** 2
    return total


def reference_score_alternation(model, blocks, tol=1e-8, max_iter=500):
    """Out-of-sample scores by block coordinate descent on the reconstruction
    objective sum_i ||X_i - U_i S_J - W_i S_i||_F^2: the joint scores and then
    each block's individual scores are set to the exact minimizer of their
    subproblem (pseudo-inverted Gram matrices), starting from zero, until the
    objective stalls. Returns (S_J, [S_i], iterations, converged)."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    m = blocks[0].shape[1]
    U_list, W = model.joint_loadings, model.indiv_loadings
    U = np.vstack(U_list)
    pinv_gram_joint = np.linalg.pinv(U.T @ U, rcond=1e-10) if U.shape[1] else None
    pinv_gram = [np.linalg.pinv(w.T @ w, rcond=1e-10) if w.shape[1] else None for w in W]
    X = np.vstack(blocks)
    offsets, a = [], 0
    for w in W:
        offsets.append((a, a + w.shape[0]))
        a += w.shape[0]
    s_joint = np.zeros((U.shape[1], m))
    s_ind = [np.zeros((w.shape[1], m)) for w in W]

    def objective():
        return sum(float(np.sum((x - u @ s_joint - w @ s) ** 2))
                   for x, u, w, s in zip(blocks, U_list, W, s_ind))

    prev = objective()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if pinv_gram_joint is not None:
            R = X.copy()
            for (a, b), w, s in zip(offsets, W, s_ind):
                R[a:b] -= w @ s
            s_joint = pinv_gram_joint @ (U.T @ R)
        for i, (x, u, w) in enumerate(zip(blocks, U_list, W)):
            if pinv_gram[i] is not None:
                s_ind[i] = pinv_gram[i] @ (w.T @ (x - u @ s_joint))
        obj = objective()
        if prev - obj <= tol * max(prev, 1e-300):
            converged = True
            break
        prev = obj
    return s_joint, s_ind, iterations, converged


def reference_load_csv(path):
    """Whole-file CSV read converting every cell with ``float``.
    Returns (variables x samples array, row ids, column ids)."""
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    return values, [row[0].strip() for row in rows[1:]], [c.strip() for c in rows[0][1:]]
