import dataclasses

import pytest

import gtc.axioms
import gtc.laws
from gtc.axioms import AXIOMS, check_axiom, gen_axiom_instances, run_axiom_suite
from gtc.expressions import Box, Id, fold
from gtc.guardedness import check_annotated
from gtc.models import MODEL_NAMES, MODELS, EvalError, FinSetMorphism, ToposOfTreesModel
from gtc.models.trees import stagewise
from gtc.signatures import mk_split
from gtc.laws import (
    _tot_guarded,
    _tot_rec,
    all_stage_objects,
    finset_conway_suite,
    flat_transfer_suite,
    law_implication_report,
    tot_conway_suite,
)


def test_model_registries_name_the_five_models_in_one_order():
    # check_axiom seeds by MODEL_NAMES.index, and `gtc suite --models`
    # errors list the names in this order
    names = ("finset", "metric", "tot", "hilbert", "flat")
    assert MODEL_NAMES == tuple(MODELS) == tuple(gtc.axioms.BINDING_GENERATORS) == names
    assert all(MODELS[name].name == name for name in names)


def test_every_instance_type_checks():
    for axiom in AXIOMS:
        for inst in gen_axiom_instances(axiom, seed=1, count=10):
            for side in (inst.lhs, inst.rhs):
                assert check_annotated(side, inst.claim).ok, (axiom, inst.index)
            assert inst.lhs.dom.factors == inst.rhs.dom.factors
            assert inst.lhs.cod.factors == inst.rhs.cod.factors


def test_axioms_small_grid_all_models():
    for axiom in AXIOMS:
        for inst in gen_axiom_instances(axiom, seed=2, count=3):
            for model in ("finset", "metric", "tot", "hilbert", "flat"):
                rep = check_axiom(inst, model, seed=2)
                assert rep["verdict"] == "pass", rep


def test_suite_reports_are_deterministic():
    h1, r1 = run_axiom_suite(models=("finset",), seeds=(5,), per_axiom=2)
    h2, r2 = run_axiom_suite(models=("finset",), seeds=(5,), per_axiom=2)
    assert r1 == r2
    assert "note" in h1 and h1 == h2


@pytest.mark.parametrize("per_axiom", [1, 2])
def test_suite_checks_guardedness_once_per_instance(monkeypatch, per_axiom):
    calls = []

    def counted(expr, claim):
        calls.append(expr)
        return check_annotated(expr, claim)

    monkeypatch.setattr(gtc.axioms, "check_annotated", counted)
    _, reports = run_axiom_suite(models=MODEL_NAMES, seeds=(0,), per_axiom=per_axiom)
    assert len(reports) == per_axiom * len(AXIOMS) * len(MODEL_NAMES)
    assert len(calls) == 2 * per_axiom * len(AXIOMS)


def test_failed_guardedness_check_raises_in_every_model():
    inst = gen_axiom_instances("tightening", seed=0)[0]
    n_in, n_out = len(inst.lhs.dom), len(inst.lhs.cod)
    # every input unguarded, every output guarded: the plain boxes break it
    bad = dataclasses.replace(
        inst, claim=mk_split(n_in, n_out, range(n_in), range(n_out))
    )
    assert not check_annotated(bad.lhs, bad.claim).ok
    for model in MODEL_NAMES:
        with pytest.raises(EvalError, match="lhs fails its guardedness check"):
            check_axiom(bad, model, seed=0)


def _box_names(e) -> set[str]:
    names = set()

    def leaf(x):
        if isinstance(x, Box):
            names.add(x.sig.name)

    fold(e, leaf, lambda *_: None, lambda *_: None, lambda *_: None)
    return names


def _count_validations(monkeypatch, model_name: str) -> list[str]:
    """The box names the model's ``validate_box`` is called with, from now on."""
    cls, calls = MODELS[model_name], []
    original = cls.validate_box

    def counted(self, sig, m):
        calls.append(sig.name)
        return original(self, sig, m)

    monkeypatch.setattr(cls, "validate_box", counted)
    return calls


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_check_axiom_validates_each_bound_box_once(monkeypatch, model_name):
    calls = _count_validations(monkeypatch, model_name)
    checks = 0
    for axiom in AXIOMS:
        for inst in gen_axiom_instances(axiom, seed=1, count=10):
            calls.clear()
            assert check_axiom(inst, model_name, seed=1)["verdict"] == "pass"
            assert sorted(calls) == sorted(_box_names(inst.lhs) | _box_names(inst.rhs))
            checks += 1
    assert checks == 10 * len(AXIOMS)


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_a_bad_binding_only_on_the_right_side_is_still_reported(monkeypatch, model_name):
    inst = gen_axiom_instances("sliding1", seed=1, count=1)[0]
    bad = sorted(_box_names(inst.rhs))[0]
    cls = MODELS[model_name]
    original = cls.validate_box

    def rejecting(self, sig, m):
        if sig.name == bad:
            raise EvalError(f"binding for {bad!r} rejected")
        return original(self, sig, m)

    monkeypatch.setattr(cls, "validate_box", rejecting)
    message = f"sliding1[0] in {model_name}: binding for {bad!r} rejected"
    rhs_only = dataclasses.replace(inst, lhs=Id(inst.lhs.dom))
    assert bad not in _box_names(rhs_only.lhs)
    for instance in (inst, rhs_only):
        with pytest.raises(EvalError) as exc:
            check_axiom(instance, model_name, seed=1)
        assert str(exc.value) == message


def test_tot_rec_with_shared_duplications_matches_fresh_ones():
    model, dups = ToposOfTreesModel({}), {}
    shapes = all_stage_objects(3, 2)
    family = [f for xo in shapes for yo in shapes for f in _tot_guarded((yo,), xo)]
    for f in family:
        assert _tot_rec(model, f, dups) == _tot_rec(model, f, {})
    assert len(family) == 190
    assert len(dups) == len(shapes)  # one duplication per loop carrier


def _assert_laws(suite, **instances):
    """Each law holds on exactly its pinned number of instances; the keys
    keep their order, which the suite report's digest depends on."""
    want = [(law, {"instances": n, "failures": 0}) for law, n in instances.items()]
    assert list(suite.items()) == want


def test_finset_law_suite_green():
    suite = finset_conway_suite(2)
    _assert_laws(
        suite,
        fixpoint=11,
        naturality=47,
        dinaturality=282,
        codiagonal=11,
        squaring=11,
        uniformity_injections=59,
    )
    report = law_implication_report(suite)
    assert report["conway_implies_uniformity"]
    assert report["codiagonal_and_uniformity_imply_squaring"]
    assert report["squaring_and_uniformity_imply_dinaturality"]


def test_tot_law_suite_green():
    _assert_laws(
        tot_conway_suite(),
        fixpoint=190,
        naturality=715,
        dinaturality=8,
        diagonal=2,
        squaring=190,
        uniformity_projections=32,
    )


def _constant_iter(f):
    """A wrong iteration: every point goes to the first element of Y."""
    y = f.cod[: len(f.cod) - len(f.dom)]
    return FinSetMorphism(f.dom, y, {x: (0, y[0][0]) for x in f.table})


def _constant_rec(model, m, dups):
    """A wrong recursion: the constant at one global element of each loop
    carrier, its first top-stage element and that element's restrictions."""
    points = []
    for o in m.cod:
        point = [o.stages[-1][0]]
        for r in reversed(o.restr):
            point.append(r[point[-1]])
        points.append(point[::-1])
    params = m.dom[: len(m.dom) - len(m.cod)]
    return stagewise(params, m.cod, lambda n, x: tuple(p[n] for p in points), len(m.maps))


@pytest.mark.parametrize(
    "suite,patch,wrong,broken",
    [
        (finset_conway_suite, "finset_iter", _constant_iter,
         {"fixpoint", "naturality", "dinaturality"}),
        (tot_conway_suite, "_tot_rec", _constant_rec, {"fixpoint", "dinaturality"}),
    ],
)
def test_law_suite_reports_a_wrong_operator(monkeypatch, suite, patch, wrong, broken):
    # the shared law core compares what the operator gives: a constant
    # operator breaks the laws that compare it with something else, and
    # passes those that compare it only with itself
    want = {law: d["instances"] for law, d in suite().items()}
    monkeypatch.setattr(gtc.laws, patch, wrong)
    got = suite()
    assert {law: d["instances"] for law, d in got.items()} == want
    assert {law for law, d in got.items() if d["failures"] > 0} == broken


def test_flat_transfer_suite_green():
    _assert_laws(
        flat_transfer_suite(),
        round_trip_rec=4700,
        round_trip_grec=20,
        fixpoint=4700,
        naturality=484,
        dinaturality=121,
        diagonal=197,
        squaring=132,
        transfer_fixpoint=6,
    )
