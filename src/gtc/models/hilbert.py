"""Real matrices under the Kronecker product (monoidal structure = tensor).

Gates carry dimensions; a word denotes the tensor product of its gates,
flattened row-major (gate 0 slowest).  A split is respected when the
morphism factors so that nothing flows from promised inputs to promised
outputs directly: the promised outputs are produced from the guarded
inputs alone (through an auxiliary middle space), while the promised
inputs are absorbed into the unguarded outputs.  Feedback over a loop
factor is then the partial trace, computable either from the factorization
witness or by the orthonormal-basis sum; both are implemented and agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..signatures import BoxSig, ObjectExpr
from .base import DimensionModel, EvalError, json_floats, trusted

WITNESS_TOL = 1e-12


def perm_index(dims: tuple[int, ...], perm: list[int]) -> np.ndarray:
    """Flat indices reordering tensor factors, output axis t being input
    axis perm[t]: entry r is the input index that lands at output index r."""
    return np.arange(math.prod(dims)).reshape(dims).transpose(perm).ravel()


def kron_perm(dims: tuple[int, ...], perm: list[int]) -> np.ndarray:
    """``perm_index`` as a permutation matrix."""
    return np.eye(math.prod(dims))[perm_index(dims, perm)]


@dataclass(frozen=True, eq=False)
class HilbertMorphism:
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    mat: np.ndarray
    witness: dict | None = None  # {"e_dim", "g", "h"} for the box's own split

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=float)
        want = (math.prod(self.out_dims), math.prod(self.in_dims))
        if mat.shape != want:
            raise EvalError(f"matrix shape {mat.shape} does not match profile {want}")
        object.__setattr__(self, "mat", mat)


class HilbertModel(DimensionModel):
    """Bindings JSON: objects ``{"A": dim}``; a box ``{"matrix": [[...]],
    "witness": {"e_dim": n, "g": [[...]], "h": [[...]]}}``.  The witness
    may be omitted: in finite dimension every matrix factors, and a
    canonical witness is derived on load when the declared split requires
    one."""

    name = "hilbert"

    def box_from_json(self, sig: BoxSig, spec: dict) -> HilbertMorphism:
        mat = json_floats(spec["matrix"], "matrix")
        witness = spec.get("witness")
        if witness is not None:
            if type(witness["e_dim"]) is not int:
                raise EvalError(f"witness e_dim for {sig.name!r} must be an integer")
            g, h = json_floats(witness["g"], "witness g"), json_floats(witness["h"], "witness h")
            witness = {"e_dim": witness["e_dim"], "g": g, "h": h}
        elif sig.split.unguarded_in and sig.split.guarded_out:
            witness = derive_witness(self, sig, mat)
        return HilbertMorphism(self.ob(sig.inputs), self.ob(sig.outputs), mat, witness)

    def render(self, m: HilbertMorphism) -> dict:
        return {"matrix": m.mat.tolist()}

    def apply(self, m: HilbertMorphism, point: dict) -> dict:
        vec = np.asarray(point["vector"], dtype=float)
        return {"vector": (m.mat @ vec).tolist()}

    def identity(self, word: ObjectExpr) -> HilbertMorphism:
        dims = self.ob(word)
        return trusted(HilbertMorphism, dims, dims, np.eye(math.prod(dims)), None)

    def symmetry(self, left: ObjectExpr, right: ObjectExpr) -> HilbertMorphism:
        dl, dr = self.ob(left), self.ob(right)
        perm = [*range(len(dl), len(dl) + len(dr)), *range(len(dl))]
        return trusted(HilbertMorphism, dl + dr, dr + dl, kron_perm(dl + dr, perm), None)

    def compose(self, f: HilbertMorphism, g: HilbertMorphism) -> HilbertMorphism:
        if f.out_dims != g.in_dims:
            raise EvalError("composition mismatch")
        return trusted(HilbertMorphism, f.in_dims, g.out_dims, g.mat @ f.mat, None)

    def tensor(self, f: HilbertMorphism, g: HilbertMorphism) -> HilbertMorphism:
        in_dims, out_dims = f.in_dims + g.in_dims, f.out_dims + g.out_dims
        return trusted(HilbertMorphism, in_dims, out_dims, np.kron(f.mat, g.mat), None)

    def trace(self, m: HilbertMorphism, loop, corners, tol=None) -> HilbertMorphism:
        a, b, c, d = corners
        n_a, n_c, n_d, k = len(a), len(c), len(d), len(loop)
        da = math.prod(m.in_dims[:n_a])
        du = math.prod(m.in_dims[n_a : n_a + k])
        db = math.prod(m.in_dims[n_a + k :])
        dc = math.prod(m.out_dims[:n_c])
        dd = math.prod(m.out_dims[n_c : n_c + n_d])
        mat = hs_sum_trace(m.mat, da, du, db, dc, dd)
        in_dims = m.in_dims[:n_a] + m.in_dims[n_a + k :]
        return trusted(HilbertMorphism, in_dims, m.out_dims[: n_c + n_d], mat, None)

    def validate_box(self, sig: BoxSig, m: HilbertMorphism) -> None:
        if m.in_dims != self.ob(sig.inputs) or m.out_dims != self.ob(sig.outputs):
            raise EvalError(f"binding for {sig.name!r} has the wrong dimensions")
        if sig.split.unguarded_in and sig.split.guarded_out:
            if m.witness is None:
                raise EvalError(
                    f"binding for {sig.name!r} promises guarded outputs but "
                    f"carries no factorization witness"
                )
            check_witness(m, sig.split)

    def equal(self, m1: HilbertMorphism, m2: HilbertMorphism, tol=1e-9, rng=None):
        if m1.in_dims != m2.in_dims or m1.out_dims != m2.out_dims:
            return False, float("inf")
        dev = float(np.max(np.abs(m1.mat - m2.mat) / (1.0 + np.abs(m1.mat))))
        return dev <= tol, dev


def derive_witness(model: HilbertModel, sig: BoxSig, mat: np.ndarray) -> dict:
    """Canonical factorization for a declared split: in finite dimension
    the rearranged matrix always factors through a large enough middle
    space (take it to be the whole guarded-input/guarded-output corner)."""
    in_dims = model.ob(sig.inputs)
    out_dims = model.ob(sig.outputs)
    mat = np.asarray(mat, dtype=float)
    want = (math.prod(out_dims), math.prod(in_dims))
    if mat.shape != want:
        raise EvalError(
            f"matrix for {sig.name!r} has shape {mat.shape}, profile needs {want}"
        )
    grouped, (da, db, dc, dd) = split_permuted(mat, in_dims, out_dims, sig.split)
    # grouped[(c,d),(a,b)] = sum_e h[c,(a,e)] g[(e,d),b] with E = B x D
    e_dim = db * dd
    four = grouped.reshape(dc, dd, da, db)
    h = four.transpose(0, 2, 3, 1).reshape(dc, da * e_dim)
    g = _name_witness(db, dd)
    return {"e_dim": e_dim, "g": g, "h": h}


def _name_witness(db: int, dd: int) -> np.ndarray:
    """g: B -> (B x D) x D copying B and emitting the paired-basis name of D."""
    g = np.zeros((db * dd * dd, db))
    for b in range(db):
        for d in range(dd):
            g[(b * dd + d) * dd + d, b] = 1.0
    return g


def corner_perms(
    in_dims: tuple[int, ...], out_dims: tuple[int, ...], split
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """The ``perm_index`` permutations that group a profile's inputs A|B
    and its outputs C|D by the split's corners, and the corner dimensions
    (da, db, dc, dd)."""
    a_gates, b_gates, c_gates, d_gates = split.corner_gates()
    dims = (
        math.prod(in_dims[g] for g in a_gates),
        math.prod(in_dims[g] for g in b_gates),
        math.prod(out_dims[g] for g in c_gates),
        math.prod(out_dims[g] for g in d_gates),
    )
    return perm_index(in_dims, a_gates + b_gates), perm_index(out_dims, c_gates + d_gates), dims


def split_permuted(
    mat: np.ndarray, in_dims: tuple[int, ...], out_dims: tuple[int, ...], split
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Conjugate a matrix of profile ``in_dims -> out_dims`` so its inputs
    are grouped A|B and its outputs C|D; returns the grouped matrix and the
    corner dimensions (da, db, dc, dd)."""
    in_idx, out_idx, dims = corner_perms(in_dims, out_dims, split)
    return mat[np.ix_(out_idx, in_idx)], dims


def check_witness(m: HilbertMorphism, split) -> None:
    """Verify that the stored (g, h, E) recompose to the matrix: with
    inputs grouped A|B and outputs C|D, the morphism must equal
    (h x id_D) . (id_A x g) for g: B -> E x D and h: A x E -> C."""
    w = m.witness
    grouped, (da, db, dc, dd) = split_permuted(m.mat, m.in_dims, m.out_dims, split)
    e_dim = int(w["e_dim"])
    g = np.asarray(w["g"], dtype=float)
    h = np.asarray(w["h"], dtype=float)
    if g.shape != (e_dim * dd, db) or h.shape != (dc, da * e_dim):
        raise EvalError("witness matrices have the wrong shapes")
    rebuilt = np.kron(h, np.eye(dd)) @ np.kron(np.eye(da), g)
    if not np.allclose(rebuilt, grouped, atol=WITNESS_TOL, rtol=0):
        raise EvalError("witness does not recompose to the bound matrix")


def hs_sum_trace(
    mat: np.ndarray, da: int, du: int, db: int, dc: int, dd: int
) -> np.ndarray:
    """Partial trace over the loop factor by summing matched orthonormal
    basis coefficients: w[(c,d),(a,b)] = sum_u M[(c,d,u),(a,u,b)]."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (dc * dd * du, da * du * db):
        raise EvalError("matrix shape does not factor as (C,D,U) x (A,U,B)")
    six = mat.reshape(dc, dd, du, da, du, db)
    return np.einsum("cduaub->cdab", six).reshape(dc * dd, da * db)


def hs_factored_trace(
    g: np.ndarray, h: np.ndarray, e_dim: int, da: int, du: int, db: int, dc: int, dd: int
) -> np.ndarray:
    """Partial trace computed from a factorization witness by rewiring:
    route B through g, pass the loop factor across, absorb through h."""
    g = np.asarray(g, dtype=float).reshape(e_dim, dd, du, db)
    h = np.asarray(h, dtype=float).reshape(dc, da, du, e_dim)
    return np.einsum("caue,edub->cdab", h, g).reshape(dc * dd, da * db)


def trace_witness(
    mat: np.ndarray, da: int, du: int, db: int, dc: int, dd: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """A canonical factorization of a matrix of loop shape
    (A,U,B) -> (C,D,U), with middle space E = B x D x U.

    Every finite matrix factors this way; what the guardedness promise
    adds is that the result of the partial trace is witness-independent.
    Returns (g, h, e_dim).
    """
    mat = np.asarray(mat, dtype=float)
    dw = dd * du
    e_dim = db * dw
    name = np.eye(dw).reshape(dw * dw, 1)
    g = np.kron(np.eye(db), name)  # B -> (B x D x U) x (D x U)
    six = mat.reshape(dc, dd, du, da, du, db)
    h = six.transpose(0, 3, 4, 5, 1, 2).reshape(dc, da * du * e_dim)
    return g, h, e_dim


def rotate_witness(
    g: np.ndarray, h: np.ndarray, e_dim: int, da: int, du: int, dd: int, rot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate a witness by an invertible map on the middle space;
    the represented morphism is unchanged."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (e_dim, e_dim):
        raise EvalError("rotation must act on the middle space")
    g2 = np.kron(rot, np.eye(dd * du)) @ g
    h2 = h @ np.kron(np.eye(da * du), np.linalg.inv(rot))
    return g2, h2
