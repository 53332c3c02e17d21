"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here: exact equality for the set-like models,
1e-9 relative (1e-12 absolute floor via the 1+|value| denominator) for
the numeric ones, 1e-12 for witness recomposition.
"""

from itertools import product

import numpy as np
import pytest

from gtc.axioms import AXIOMS, check_axiom, gen_axiom_instances
from gtc.counterexamples import equal_morphisms_different_typing, find_untypable_diagram
from gtc.diagrams import diagram_iso, elaborate
from gtc.generators import (
    rand_accepted_traced,
    rand_guarded_diagram,
    rand_trace_free_expr,
)
from gtc.guardedness import (
    check_annotated,
    claim_derivable,
    derivable_splits,
    geometric_check,
)
from gtc.laws import (
    finset_conway_suite,
    flat_transfer_suite,
    law_implication_report,
    tot_conway_suite,
)
from gtc.models.hilbert import (
    hs_factored_trace,
    hs_sum_trace,
    kron_perm,
    rotate_witness,
    trace_witness,
)
from gtc.models.metric import affine, banach_rec
from gtc.signatures import mk_split
from gtc.synthesis import SynthesisError, synthesize, synthesis_preconditions

NUMERIC_TOL = 1e-9


def _verdict(n, name, detail):
    print(f"ACCEPTANCE {n} {name}: PASS ({detail})")


def test_criterion_1_structural_geometric_equivalence():
    """derivable_splits agrees with geometric_check on every claim of
    1000 random trace-free expressions."""
    rng = np.random.default_rng(1001)
    n_expr = 1000
    claims_checked = 0
    for _ in range(n_expr):
        e = rand_trace_free_expr(rng, max_boxes=8, n_atoms=4)
        d = elaborate(e)
        maxes = derivable_splits(e)
        n_in, n_out = len(e.dom), len(e.cod)
        for a_bits in product([0, 1], repeat=n_in):
            a = {i for i in range(n_in) if a_bits[i]}
            for d_bits in product([0, 1], repeat=n_out):
                dd = {j for j in range(n_out) if d_bits[j]}
                claim = mk_split(n_in, n_out, a, dd)
                assert claim_derivable(maxes, claim) == geometric_check(d, claim)
                claims_checked += 1
    _verdict(1, "structural = geometric", f"{n_expr} expressions, {claims_checked} claims, 0 discrepancies")


def test_criterion_2_accepted_implies_geometric():
    """Every accepted annotated traced expression satisfies the geometric
    condition, loops included, on its full elaboration."""
    rng = np.random.default_rng(1002)
    accepted = 0
    while accepted < 500:
        got = rand_accepted_traced(rng)
        if got is None:
            continue
        expr, claim = got
        assert check_annotated(expr, claim).ok
        assert geometric_check(elaborate(expr), claim)
        accepted += 1
    _verdict(2, "acceptance is geometrically sound", f"{accepted} traced expressions, 0 violations")


def test_criterion_3_boundary_fixtures():
    """Left: equal morphisms, different typing.  Right: a geometric yes
    with no typable inducing expression, found by exhaustive search."""
    sigs, traced, composite, claim = equal_morphisms_different_typing()
    assert not check_annotated(traced, claim).ok
    assert check_annotated(composite, claim).ok
    assert diagram_iso(elaborate(traced), elaborate(composite))

    witness = find_untypable_diagram()
    assert len(witness.diagram.boxes) == 2
    assert geometric_check(witness.diagram, witness.claim)
    assert witness.cut_reports and all(not ok for _, ok in witness.cut_reports)
    _verdict(
        3,
        "typing-gap fixtures",
        f"left fixture rejects trace/accepts composite; right fixture survives "
        f"{len(witness.cut_reports)} loop openings",
    )


def test_criterion_4_synthesis_round_trip():
    """200 valid diagrams synthesize, re-check, and elaborate back
    isomorphically; 50 invalid ones yield concrete witnesses."""
    rng = np.random.default_rng(1004)
    good = bad = 0
    cyclic = 0
    while good < 200 or bad < 50:
        d, claim = rand_guarded_diagram(rng)
        try:
            synthesis_preconditions(d, claim)
        except SynthesisError as exc:
            if bad < 50:
                assert exc.witness is not None
                assert exc.reason in (
                    "unguarded loop",
                    "unguarded critical path",
                ) or "white nor black" in exc.reason
                bad += 1
            continue
        if good >= 200:
            continue
        from gtc.synthesis import loop_wires

        if loop_wires(d):
            cyclic += 1
        e = synthesize(d, claim)
        assert check_annotated(e, claim).ok
        assert diagram_iso(elaborate(e, claim), d)
        good += 1
    _verdict(4, "synthesis round trip", f"{good} valid ({cyclic} cyclic), {bad} violations witnessed")


def test_criterion_5_trace_axioms_in_all_models():
    """Eight axioms, 50 instances each: exact in the set-like models,
    within 1e-9 in the numeric ones."""
    per_axiom = 50
    seed = 1005
    worst = 0.0
    checks = 0
    for axiom in AXIOMS:
        instances = gen_axiom_instances(axiom, seed, per_axiom)
        for inst in instances:
            for model in ("finset", "metric", "tot", "hilbert", "flat"):
                rep = check_axiom(inst, model, seed, tol=NUMERIC_TOL)
                assert rep["verdict"] == "pass", rep
                worst = max(worst, rep["max_dev"])
                checks += 1
    _verdict(5, "trace axioms", f"{checks} checks, worst deviation {worst:.2e}")


def test_criterion_6_conway_laws_and_implications():
    """Exhaustive law suites for the set-like iteration operator and the
    stage-delayed recursion operator; uniformity observed as a
    consequence of the other laws, not assumed."""
    finset = finset_conway_suite(2)
    assert all(v["failures"] == 0 for v in finset.values())
    report = law_implication_report(finset)
    assert all(v for v in report["laws"].values())
    assert report["conway_implies_uniformity"]
    assert report["codiagonal_and_uniformity_imply_squaring"]
    assert report["squaring_and_uniformity_imply_dinaturality"]

    trees = tot_conway_suite()
    assert all(v["failures"] == 0 for v in trees.values())
    total = sum(v["instances"] for v in finset.values()) + sum(
        v["instances"] for v in trees.values()
    )
    _verdict(6, "iteration/recursion laws", f"{total} exhaustive instances, all laws hold")


def test_criterion_7_recursion_transfer():
    """The two transport constructions are mutually inverse over all
    lifted flat carriers of up to three points, and the laws transfer."""
    suite = flat_transfer_suite(max_x=3, max_b=2)
    assert all(v["failures"] == 0 for v in suite.values())
    total = sum(v["instances"] for v in suite.values())
    _verdict(7, "recursion transfer", f"{total} instances, round trips exact")


def test_criterion_8_partial_trace():
    """Witness independence, the two trace routes agreeing, basis
    independence, the transpose identity, and the plain 5x5 trace."""
    rng = np.random.default_rng(1008)

    # two random factorizations of the same morphism agree
    for _ in range(50):
        da, du, db, dc, dd = (int(rng.integers(1, 3)) for _ in range(5))
        mat = rng.normal(size=(dc * dd * du, da * du * db))
        g, h, e = trace_witness(mat, da, du, db, dc, dd)
        rot = np.linalg.qr(rng.normal(size=(e, e)))[0]
        g2, h2 = rotate_witness(g, h, e, da, du, dd, rot)
        t1 = hs_factored_trace(g, h, e, da, du, db, dc, dd)
        t2 = hs_factored_trace(g2, h2, e, da, du, db, dc, dd)
        t3 = hs_sum_trace(mat, da, du, db, dc, dd)
        assert np.max(np.abs(t1 - t2)) <= NUMERIC_TOL
        assert np.max(np.abs(t1 - t3)) <= NUMERIC_TOL

    # basis independence over the loop factor
    for _ in range(50):
        da, du, db, dc, dd = 2, 3, 1, 2, 1
        mat = rng.normal(size=(dc * dd * du, da * du * db))
        q = np.linalg.qr(rng.normal(size=(du, du)))[0]
        rotated = np.kron(np.eye(dc * dd), q.T) @ mat @ np.kron(
            np.kron(np.eye(da), q), np.eye(db)
        )
        assert np.max(
            np.abs(
                hs_sum_trace(mat, da, du, db, dc, dd)
                - hs_sum_trace(rotated, da, du, db, dc, dd)
            )
        ) <= NUMERIC_TOL

    # transpose-and-swap commutation
    for _ in range(50):
        da, du, db, dc, dd = (int(rng.integers(1, 3)) for _ in range(5))
        e_dim = int(rng.integers(1, 3))
        g = rng.normal(size=(e_dim * dd * du, db))
        h = rng.normal(size=(dc, da * du * e_dim))
        mat = np.kron(h, np.eye(dd * du)) @ np.kron(np.eye(da * du), g)
        body = (
            kron_perm((da, du, db), [2, 0, 1])
            @ mat.T
            @ kron_perm((dd, du, dc), [2, 0, 1])
        )
        lhs = hs_sum_trace(body, dd, du, dc, db, da)
        w = hs_sum_trace(mat, da, du, db, dc, dd)
        rhs = (
            kron_perm((da, db), [1, 0]) @ w.T @ kron_perm((dd, dc), [1, 0])
        )
        assert np.max(np.abs(lhs - rhs)) <= NUMERIC_TOL

    # the full trace of a random 5x5 matrix, both routes, exactly
    f5 = rng.normal(size=(5, 5))
    basis_sum = float(sum(f5[i, i] for i in range(5)))
    assert hs_sum_trace(f5, 1, 5, 1, 1, 1)[0, 0] == basis_sum
    g, h, e = trace_witness(f5, 1, 5, 1, 1, 1)
    assert hs_factored_trace(g, h, e, 1, 5, 1, 1, 1)[0, 0] == pytest.approx(
        basis_sum, abs=1e-12
    )
    _verdict(8, "partial trace", "witness/basis independence and transpose identity within 1e-9")


def test_criterion_9_contraction_iteration_bound():
    """Contraction solving always lands within the step bound implied by
    the declared factor."""
    import math

    rng = np.random.default_rng(1009)
    for _ in range(100):
        c = float(rng.uniform(0.1, 0.9))
        dim = int(rng.integers(1, 4))
        w = rng.normal(size=(dim, dim))
        w *= c / max(np.max(np.sum(np.abs(w), axis=1)), 1e-9)
        b = rng.uniform(-2, 2, size=dim)
        f = affine([dim], [dim], w, b)
        declared = float(f.lip[0, 0])
        tol = 10.0 ** rng.uniform(-12, -6)
        y, count = banach_rec(f, [], tol)
        d0 = float(np.max(np.abs(b)))  # distance of the first step from zero
        goal = tol * (1.0 - declared)
        bound = (
            1
            if d0 <= goal
            else math.ceil(math.log(goal / d0) / math.log(declared)) + 1
        )
        assert count <= bound + 1
        resid = float(np.max(np.abs(w @ np.asarray(y[0]) + b - np.asarray(y[0]))))
        assert resid <= goal * (1.0 + 1e-9)
    _verdict(9, "contraction step bound", "100 instances within the a-priori bound")
