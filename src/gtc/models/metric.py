"""Blocks of real vectors under the sup metric (monoidal structure = product).

A morphism is a batched evaluator on per-gate blocks together with a
matrix of declared Lipschitz bounds: ``lip[i, j]`` bounds how much output
block j moves per unit sup-distance change of input block i.  A split is
respected when every promised pair (unguarded input, guarded output) has
a declared bound strictly below one, uniformly in the other inputs;
feedback is then solved by contraction iteration, with an a-priori bound
on the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..signatures import BoxSig, ObjectExpr
from .base import DimensionModel, EvalError, check_dimensions, check_finite, json_floats, trusted

Blocks = list  # list of np.ndarray with shape (n_points, dim)

DEFAULT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MetricMorphism:
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    fn: Callable[[Blocks], Blocks]
    lip: np.ndarray  # shape (len(in_dims), len(out_dims))

    def __post_init__(self) -> None:
        check_dimensions(self.in_dims, self.out_dims)
        lip = np.asarray(self.lip, dtype=float)
        if lip.shape != (len(self.in_dims), len(self.out_dims)):
            raise EvalError("Lipschitz matrix shape does not match the profile")
        if np.any(lip < 0):
            raise EvalError("Lipschitz bounds must be nonnegative")
        check_finite(lip, "Lipschitz bounds")  # NaN passes `< 0` and the contraction test
        object.__setattr__(self, "lip", lip)

    def apply(self, xs: Sequence[np.ndarray]) -> Blocks:
        xs = [np.atleast_2d(np.asarray(x, dtype=float)) for x in xs]
        if len(xs) != len(self.in_dims):
            raise EvalError("wrong number of input blocks")
        for x, d in zip(xs, self.in_dims):
            if x.shape[1] != d:
                raise EvalError("input block has the wrong dimension")
        ys = self.fn(list(xs))
        return [np.asarray(y, dtype=float) for y in ys]


class MetricModel(DimensionModel):
    """Bindings JSON: objects ``{"A": dim}``; a box either
    ``{"kind": "affine", "weight": [[...]], "offset": [...]}`` (the kind
    may be omitted) or ``{"kind": "named", "name": "cos_half"}``."""

    name = "metric"

    def box_from_json(self, sig: BoxSig, spec: dict) -> MetricMorphism:
        in_dims = self.ob(sig.inputs)
        out_dims = self.ob(sig.outputs)
        if spec.get("kind", "affine") == "affine":
            weight = json_floats(spec["weight"], "weight")
            return affine(in_dims, out_dims, weight, json_floats(spec["offset"], "offset"))
        return named_function(spec["name"])

    def render(self, m: MetricMorphism) -> dict:
        return {
            "in_dims": list(m.in_dims),
            "out_dims": list(m.out_dims),
            "lip": np.asarray(m.lip).tolist(),
        }

    def apply(self, m: MetricMorphism, point: dict) -> dict:
        blocks = [json_floats(b, "input block") for b in point["blocks"]]
        ys = m.apply([b.reshape(1, -1) for b in blocks])
        return {"blocks": [y[0].tolist() for y in ys]}

    def identity(self, word: ObjectExpr) -> MetricMorphism:
        dims = self.ob(word)
        return trusted(MetricMorphism, dims, dims, lambda xs: list(xs), np.eye(len(dims)))

    def symmetry(self, left: ObjectExpr, right: ObjectExpr) -> MetricMorphism:
        dl, dr = self.ob(left), self.ob(right)
        k = len(dl)
        n = k + len(dr)
        perm = list(range(k, n)) + list(range(k))
        lip = np.zeros((n, n))
        for j, i in enumerate(perm):
            lip[i, j] = 1.0
        return trusted(MetricMorphism, dl + dr, dr + dl, lambda xs: [xs[i] for i in perm], lip)

    def compose(self, f: MetricMorphism, g: MetricMorphism) -> MetricMorphism:
        if f.out_dims != g.in_dims:
            raise EvalError("composition mismatch")
        first, second = f.fn, g.fn
        return trusted(
            MetricMorphism, f.in_dims, g.out_dims, lambda xs: second(first(xs)), f.lip @ g.lip
        )

    def tensor(self, f: MetricMorphism, g: MetricMorphism) -> MetricMorphism:
        ni, no = len(f.in_dims), len(f.out_dims)
        top, bottom = f.fn, g.fn

        def fn(xs: Blocks) -> Blocks:
            return top(xs[:ni]) + bottom(xs[ni:])

        lip = np.zeros((ni + len(g.in_dims), no + len(g.out_dims)))
        lip[:ni, :no] = f.lip
        lip[ni:, no:] = g.lip
        return trusted(MetricMorphism, f.in_dims + g.in_dims, f.out_dims + g.out_dims, fn, lip)

    def trace(self, m: MetricMorphism, loop, corners, tol=None) -> MetricMorphism:
        a, b, c, d = corners
        n_a, n_c, n_d, k = len(a), len(c), len(d), len(loop)
        tol = _positive(DEFAULT_TOL if tol is None else tol)
        in_dims = m.in_dims[:n_a] + m.in_dims[n_a + k :]
        out_dims = m.out_dims[: n_c + n_d]
        loop_dims = m.in_dims[n_a : n_a + k]
        c_loop = _loop_contraction(m.lip, n_a, k, n_c + n_d)
        if c_loop >= 1.0:
            raise EvalError(
                f"declared bounds give loop contraction {c_loop:.3f} >= 1"
            )

        def fn(xs: Blocks) -> Blocks:
            a_blocks, b_blocks = xs[:n_a], xs[n_a:]
            u, _, ys = _iterate(m, a_blocks, b_blocks, n_a, k, n_c + n_d, c_loop, tol)
            if ys is None:
                ys = m.fn(a_blocks + u + b_blocks)
            return ys[: n_c + n_d]

        lip = _traced_lip(m.lip, n_a, k, n_c + n_d, c_loop)
        return trusted(MetricMorphism, in_dims, out_dims, fn, lip)

    def validate_box(self, sig: BoxSig, m: MetricMorphism) -> None:
        if m.in_dims != self.ob(sig.inputs) or m.out_dims != self.ob(sig.outputs):
            raise EvalError(f"binding for {sig.name!r} has the wrong dimensions")
        for i in sig.split.unguarded_in:
            for j in sig.split.guarded_out:
                if m.lip[i, j] >= 1.0:
                    raise EvalError(
                        f"binding for {sig.name!r}: declared bound {m.lip[i, j]}"
                        f" on promised pair ({i}, {j}) is not a contraction"
                    )

    def equal(self, m1: MetricMorphism, m2: MetricMorphism, tol=1e-9, rng=None):
        if m1.in_dims != m2.in_dims or m1.out_dims != m2.out_dims:
            return False, math.inf
        rng = np.random.default_rng(0) if rng is None else rng
        xs = [rng.uniform(-1.0, 1.0, size=(100, dim)) for dim in m1.in_dims]
        ys1 = m1.apply(xs)
        ys2 = m2.apply(xs)
        worst = 0.0
        for y1, y2 in zip(ys1, ys2):
            dev = np.max(np.abs(y1 - y2) / (1.0 + np.abs(y1)))
            worst = max(worst, float(dev))
        return worst <= tol, worst


def _positive(tol: float) -> float:
    """``tol`` if it is above zero and finite; zero, a negative, NaN or
    infinity raises (an infinite one bounds no answer)."""
    if not tol > 0:
        raise EvalError(f"tolerance must be positive, not {tol}")
    if not math.isfinite(tol):
        raise EvalError(f"tolerance must be finite, not {tol}")
    return tol


def _same_batch(xs):
    """Broadcast single-point blocks (constants) to the common batch size;
    the blocks' sizes must differ."""
    sizes = {x.shape[0] for x in xs}
    n = max(sizes)
    if sizes - {1, n}:
        raise EvalError("mismatched batch sizes in metric evaluation")
    return [np.broadcast_to(x, (n, x.shape[1])) if x.shape[0] == 1 else x for x in xs]


def _loop_contraction(lip: np.ndarray, n_a: int, k: int, n_cd: int) -> float:
    """Sup-metric contraction bound of the loop map: worst loop output
    column, summing declared bounds over the loop input rows."""
    if k == 0:
        return 0.0
    block = lip[n_a : n_a + k, n_cd : n_cd + k]
    return float(np.max(np.sum(block, axis=0)))


def _traced_lip(lip, n_a: int, k: int, n_cd: int, c_loop: float) -> np.ndarray:
    n_in, n_out = lip.shape
    keep_in = list(range(n_a)) + list(range(n_a + k, n_in))
    amplify = 1.0 / (1.0 - c_loop) if k else 0.0
    out = np.empty((len(keep_in), n_cd))
    from_loop = [float(np.sum(lip[n_a : n_a + k, j])) if k else 0.0 for j in range(n_cd)]
    for row, i in enumerate(keep_in):
        to_loop = float(np.sum(lip[i, n_cd:])) if k else 0.0
        for j in range(n_cd):
            out[row, j] = lip[i, j] + to_loop * amplify * from_loop[j]
    return out


def _iterate(m, a_blocks, b_blocks, n_a, k, n_cd, c_loop, tol):
    """Iterate the loop map from zero until it settles within ``tol``.

    Returns the loop blocks, the iteration count and the body's full
    output at those blocks, or None for that output when the first step
    settled: its output was taken at the zero start, which equals the
    blocks only when there are none.
    """
    n_points = a_blocks[0].shape[0] if a_blocks else (
        b_blocks[0].shape[0] if b_blocks else 1
    )
    loop_dims = m.in_dims[n_a : n_a + k]
    u = [np.zeros((n_points, dim)) for dim in loop_dims]
    fn, head, tail = m.fn, list(a_blocks), list(b_blocks)

    def step(cur):
        return fn(head + list(cur) + tail)

    def dist(xs, ys):
        return max((float(np.abs(x - y).max()) for x, y in zip(xs, ys)), default=0.0)

    ys = step(u)
    u1 = ys[n_cd : n_cd + k]
    d0 = dist(u1, u)
    goal = tol * (1.0 - c_loop)
    if d0 <= goal:
        return u1, 1, None if k else ys
    budget = math.ceil(math.log(goal / d0) / math.log(c_loop)) + 1 if c_loop > 0 else 2
    cur, ys = u1, step(u1)
    count = 1
    while dist(cur, ys[n_cd : n_cd + k]) > goal:
        cur = ys[n_cd : n_cd + k]
        ys = step(cur)
        count += 1
        if count > budget + 1:
            raise EvalError(
                "contraction iteration exceeded its a-priori bound; a declared "
                "factor is wrong"
            )
    return cur, count, ys


def banach_rec(f: MetricMorphism, x: Sequence, tol: float):
    """Solve y = f(x, y) for the trailing feedback blocks of ``f``.

    ``f`` must have shape (params, U) -> U with declared contraction on
    the U rows.  Returns (fixpoint blocks, iteration count); the residual
    satisfies d(y, f(x,y)) <= tol*(1-c) within the a-priori step bound.
    """
    _positive(tol)
    k = len(f.out_dims)
    n_a = len(f.in_dims) - k
    if n_a < 0 or f.in_dims[n_a:] != f.out_dims:
        raise EvalError("recursion needs a morphism of shape (X, U) -> U")
    c = _loop_contraction(f.lip, n_a, k, 0)
    if c >= 1.0:
        raise EvalError(f"declared factors give contraction {c} >= 1")
    a_blocks = [np.atleast_2d(np.asarray(v, dtype=float)) for v in x]
    u, count, _ = _iterate(f, a_blocks, [], n_a, k, 0, c, tol)
    return [b[0] if b.shape[0] == 1 else b for b in u], count


def affine(
    in_dims: Sequence[int],
    out_dims: Sequence[int],
    weight: np.ndarray,
    offset: np.ndarray,
) -> MetricMorphism:
    """Affine map on concatenated blocks; bounds are the sup-operator
    norms of the weight subblocks."""
    in_dims = tuple(int(d) for d in in_dims)
    out_dims = tuple(int(d) for d in out_dims)
    weight = np.asarray(weight, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if weight.shape != (sum(out_dims), sum(in_dims)):
        raise EvalError("weight shape does not match the block dims")
    if offset.shape != (sum(out_dims),):
        raise EvalError("offset shape does not match the output dims")

    in_ofs = np.cumsum((0,) + in_dims)
    out_ofs = np.cumsum((0,) + out_dims)
    weight_t = weight.T
    out_cols = [slice(out_ofs[j], out_ofs[j + 1]) for j in range(len(out_dims))]

    def fn(xs: Blocks) -> Blocks:
        if not xs:
            flat = np.zeros((1, 0))
        else:
            n = xs[0].shape[0]
            if any(x.shape[0] != n for x in xs):
                xs = _same_batch(xs)
            flat = np.concatenate(xs, axis=1)
        y = flat @ weight_t + offset
        return [y[:, cols] for cols in out_cols]

    lip = np.zeros((len(in_dims), len(out_dims)))
    for i in range(len(in_dims)):
        for j in range(len(out_dims)):
            sub = weight[out_ofs[j] : out_ofs[j + 1], in_ofs[i] : in_ofs[i + 1]]
            lip[i, j] = float(np.max(np.sum(np.abs(sub), axis=1))) if sub.size else 0.0
    return MetricMorphism(in_dims, out_dims, fn, lip)


def named_function(name: str) -> MetricMorphism:
    """Small library of nonlinear 1-block morphisms with declared bounds."""
    if name == "cos_half":
        return MetricMorphism(
            (1,), (1,), lambda xs: [np.cos(xs[0]) / 2.0], np.array([[0.5]])
        )
    if name == "sin_third":
        return MetricMorphism(
            (1,), (1,), lambda xs: [np.sin(xs[0]) / 3.0], np.array([[1.0 / 3.0]])
        )
    raise EvalError(f"unknown named function {name!r}")
