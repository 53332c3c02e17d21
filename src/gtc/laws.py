"""Exhaustive small-instance checking of the iteration/recursion laws.

Three suites:

* finset: the iteration operator (strip the feedback summand) over all
  carriers of size at most two, checked against fixpoint, naturality,
  dinaturality, codiagonal, squaring, and uniformity with respect to
  coproduct injections.  Uniformity is checked as a property, not baked
  into the operator, so the implication chain (codiagonal + uniformity
  gives squaring; squaring + injection uniformity gives dinaturality)
  can be reported from independently verified facts.

* trees: the stage-delayed recursion operator (via the model's own
  feedback), same law set with naturality in the parameter and
  uniformity with respect to product projections.

* flatposet: the least-fixpoint operator on lifted carriers, its laws,
  and the two transport constructions, which must be mutually inverse
  and preserve the laws in both directions.
"""

from __future__ import annotations

from itertools import product as iproduct

from .models.finset import FinSetModel, FinSetMorphism, finset_iter
from .models.flatposet import (
    Poset,
    flat,
    grec_to_rec,
    lfp_rec,
    lift,
    rec_to_grec,
)
from .models.trees import StageObject, ToTMorphism, ToposOfTreesModel
from .signatures import ObjectExpr

# --- finset -------------------------------------------------------------------

_FS = FinSetModel({})


def _carrier(tag: str, size: int) -> tuple[str, ...]:
    return tuple(f"{tag}{i}" for i in range(size))


def _fs(dom, cod, table) -> FinSetMorphism:
    return FinSetMorphism(tuple(dom), tuple(cod), table)


def _tables(dom_gates, cod_gates):
    """All total function tables between tagged unions."""
    keys = [(g, e) for g, c in enumerate(dom_gates) for e in c]
    vals = [(g, e) for g, c in enumerate(cod_gates) for e in c]
    if not keys:
        yield {}
        return
    if not vals:
        return
    for combo in iproduct(vals, repeat=len(keys)):
        yield dict(zip(keys, combo))


def _case(parts, dom_gates, cod) -> FinSetMorphism:
    """[p, q, ...]: gatewise cotupling into a shared codomain."""
    table = {}
    ofs = 0
    for p in parts:
        for (g, e), v in p.table.items():
            table[(g + ofs, e)] = v
        ofs += len(p.dom)
    return _fs(dom_gates, cod, table)


def _renumber(m: FinSetMorphism, cod_gates, gate_map) -> FinSetMorphism:
    """Post-compose with a summand renumbering (an injection pattern)."""
    table = {k: (gate_map[g], e) for k, (g, e) in m.table.items()}
    return _fs(m.dom, cod_gates, table)


def finset_conway_suite(max_size: int = 2) -> dict[str, dict]:
    sizes = range(max_size + 1)
    out: dict[str, dict] = {}

    def record(law: str, checked: int, failed: int):
        out[law] = {"instances": checked, "failures": failed}

    # fixpoint: iterate f = [id, iterate f] . f
    n = bad = 0
    for sx, sy in iproduct(sizes, sizes):
        x, y = _carrier("x", sx), _carrier("y", sy)
        for t in _tables((x,), (y, x)):
            f = _fs((x,), (y, x), t)
            try:
                fd = finset_iter(f)
            except Exception:
                continue  # not guarded
            case = _case([_identity((y,)), fd], (y, x), (y,))
            n += 1
            if _FS.compose(f, case) != fd:
                bad += 1
    record("fixpoint", n, bad)

    # naturality: g . iterate f = iterate((g + id) . f)
    n = bad = 0
    for sx, sy, sz in iproduct(sizes, sizes, sizes):
        x, y, z = _carrier("x", sx), _carrier("y", sy), _carrier("z", sz)
        for tf in _tables((x,), (y,)):
            f = _fs((x,), (y, x), {k: v for k, v in tf.items()})
            fd = finset_iter(f)
            for tg in _tables((y,), (z,)):
                g = _fs((y,), (z,), tg)
                gid = _FS.tensor(g, _identity((x,)))
                n += 1
                if _FS.compose(fd, g) != finset_iter(_FS.compose(f, gid)):
                    bad += 1
    record("naturality", n, bad)

    # dinaturality, both guardedness placements:
    # ([inl,h].g)^ = [id, ([inl,g].h)^] . g
    n = bad = 0
    for sx, sy, sz in iproduct(sizes, sizes, sizes):
        x, y, z = _carrier("x", sx), _carrier("y", sy), _carrier("z", sz)
        inl_yx = _renumber(_identity((y,)), (y, x), {0: 0})
        inl_yz = _renumber(_identity((y,)), (y, z), {0: 0})
        # placement 1: g guarded, h arbitrary
        for tg in _tables((x,), (y,)):
            g = _fs((x,), (y, z), tg)
            for th in _tables((z,), (y, x)):
                h = _fs((z,), (y, x), th)
                n += 1
                if not _dinat_holds(g, h, x, y, z, inl_yx, inl_yz):
                    bad += 1
        # placement 2: g arbitrary, h guarded
        for tg in _tables((x,), (y, z)):
            g = _fs((x,), (y, z), tg)
            for th in _tables((z,), (y,)):
                h = _fs((z,), (y, x), th)
                n += 1
                if not _dinat_holds(g, h, x, y, z, inl_yx, inl_yz):
                    bad += 1
    record("dinaturality", n, bad)

    # codiagonal: iterate([id,inr] . f) = iterate(iterate f)
    n = bad = 0
    for sx, sy in iproduct(sizes, sizes):
        x, y = _carrier("x", sx), _carrier("y", sy)
        for t in _tables((x,), (y,)):
            f = _fs((x,), ((y, x, x)), {k: v for k, v in t.items()})
            fold = _renumber(
                _identity((y, x, x)), (y, x), {0: 0, 1: 1, 2: 1}
            )
            lhs = finset_iter(_FS.compose(f, fold))
            rhs = finset_iter(finset_iter(f))
            n += 1
            if lhs != rhs:
                bad += 1
    record("codiagonal", n, bad)

    # squaring: iterate f = iterate([inl, f] . f)
    n = bad = 0
    for sx, sy in iproduct(sizes, sizes):
        x, y = _carrier("x", sx), _carrier("y", sy)
        for t in _tables((x,), (y,)):
            f = _fs((x,), (y, x), t)
            square = _case([_renumber(_identity((y,)), (y, x), {0: 0}), f], (y, x), (y, x))
            n += 1
            if finset_iter(f) != finset_iter(_FS.compose(f, square)):
                bad += 1
    record("squaring", n, bad)

    # uniformity w.r.t. coproduct injections h: Y -> Y + W
    n = bad = 0
    for sy, sw, sz in iproduct(sizes, sizes, sizes):
        y, w, z = _carrier("y", sy), _carrier("w", sw), _carrier("z", sz)
        inj = _renumber(_identity((y,)), (y, w), {0: 0})
        for tf in _tables((y, w), (z,)):
            f = _fs((y, w), (z, y, w), tf)  # guarded: X -> Z + X, X = Y+W
            for tg in _tables((y,), (z,)):
                g = _fs((y,), (z, y), tg)
                # premise: f . inj = (id_Z + inj) . g
                lhs = _FS.compose(inj, f)
                rhs = _renumber(g, (z, y, w), {0: 0, 1: 1})
                if lhs != rhs:
                    continue
                n += 1
                if _FS.compose(inj, finset_iter(f)) != finset_iter(g):
                    bad += 1
    record("uniformity_injections", n, bad)
    return out


def _identity(gates) -> FinSetMorphism:
    return _fs(gates, gates, {(g, e): (g, e) for g, c in enumerate(gates) for e in c})


def _dinat_holds(g, h, x, y, z, inl_yx, inl_yz) -> bool:
    left_map = _case([inl_yx, h], (y, z), (y, x))
    try:
        lhs = finset_iter(_FS.compose(g, left_map))
        inner = finset_iter(_FS.compose(h, _case([inl_yz, g], (y, x), (y, z))))
    except Exception:
        return True  # a side is not guarded; nothing to check
    rhs = _FS.compose(g, _case([_identity((y,)), inner], (y, z), (y,)))
    return lhs == rhs


def law_implication_report(suite: dict[str, dict]) -> dict:
    """Report the implication chain from independently checked laws."""
    ok = {law: d["failures"] == 0 for law, d in suite.items()}
    return {
        "laws": ok,
        "codiagonal_and_uniformity_imply_squaring": (
            not (ok["codiagonal"] and ok["uniformity_injections"]) or ok["squaring"]
        ),
        "squaring_and_uniformity_imply_dinaturality": (
            not (ok["squaring"] and ok["uniformity_injections"]) or ok["dinaturality"]
        ),
        "conway_implies_uniformity": (
            not (
                ok["fixpoint"]
                and ok["naturality"]
                and ok["dinaturality"]
                and ok["codiagonal"]
            )
            or ok["uniformity_injections"]
        ),
    }


# --- trees --------------------------------------------------------------------


_NO_PICK = object()


def _depth_first(depth: int, choices):
    """Every sequence of ``depth`` picks in depth-first order, where
    ``choices(picks)`` gives the candidates for the pick after ``picks``
    (it may read ``picks`` lazily: the first k picks stay fixed while the
    candidates for pick k+1 are drawn).  An explicit stack, so no closure
    refers to itself and nothing outlives the enumeration."""
    if depth == 0:
        yield ()
        return
    picks: list = []
    stack = [iter(choices(picks))]
    while stack:
        del picks[len(stack) - 1 :]
        pick = next(stack[-1], _NO_PICK)
        if pick is _NO_PICK:
            stack.pop()
        elif len(picks) + 1 == depth:
            yield (*picks, pick)
        else:
            picks.append(pick)
            stack.append(iter(choices(picks)))


def _enumerate_natural(dom_gates, cod: StageObject):
    """All stagewise-natural maps from a product of stage objects, stage by
    stage, each stage's choices fixed by the stage below."""
    depth = len(cod.stages)
    keys = [list(iproduct(*(g.stages[n] for g in dom_gates))) for n in range(depth)]

    def choices(tables: list[dict]):
        n = len(tables)
        options = []
        for x in keys[n]:
            if n == 0:
                options.append(cod.stages[0])
            else:
                lo = tuple(dom_gates[g].restr[n - 1][v] for g, v in enumerate(x))
                want = tables[n - 1][lo]
                options.append([e for e, v in cod.restr[n - 1].items() if v == want])
        return (dict(zip(keys[n], combo)) for combo in iproduct(*options))

    for tables in _depth_first(depth, choices):
        yield tuple(map(dict, tables))


def _later(x: StageObject) -> StageObject:
    """One-step delay: stage 1 collapses to a point, stage n+1 shows
    stage n."""
    stages = (("*",),) + x.stages[:-1]
    restr = []
    for n in range(len(stages) - 1):
        if n == 0:
            restr.append({e: "*" for e in stages[1]})
        else:
            restr.append(dict(x.restr[n - 1]))
    return StageObject(stages, tuple(restr))


def _next_value(x: StageObject, n: int, v):
    return "*" if n == 0 else x.restr[n - 1][v]


def _guarded_from_witness(dom_gates, x: StageObject, witness: tuple[dict, ...], loop_positions):
    """Tables of f = g . (id x next ...) from a witness over delayed gates."""
    depth = len(x.stages)
    maps = []
    for n in range(depth):
        table = {}
        for xs in iproduct(*(g.stages[n] for g in dom_gates)):
            key = tuple(
                _next_value(dom_gates[g], n, v) if g in loop_positions else v
                for g, v in enumerate(xs)
            )
            table[xs] = (witness[n][key],)
        maps.append(table)
    return maps


def _tot_rec(model: ToposOfTreesModel, m: ToTMorphism) -> ToTMorphism:
    """Recursion through the model's feedback: duplicate the output and
    trace the copy."""
    xobj = m.cod[0]
    depth = len(m.maps)
    dup = ToTMorphism(
        (xobj,),
        (xobj, xobj),
        tuple({(v,): (v, v) for v in xobj.stages[n]} for n in range(depth)),
    )
    body = model.compose(m, dup)
    n_params = len(m.dom) - 1
    corners = (
        ObjectExpr(("q",) * n_params),
        ObjectExpr(()),
        ObjectExpr(()),
        ObjectExpr(("q",)),
    )
    return model.trace(body, ObjectExpr(("q",)), corners, None)


def _small_objects() -> list[StageObject]:
    a = StageObject((("a0",), ("a0", "a1"), ("a0", "a1")),
                    ({"a0": "a0", "a1": "a0"}, {"a0": "a0", "a1": "a1"}))
    b = StageObject((("b0",), ("b0",), ("b0", "b1")),
                    ({"b0": "b0"}, {"b0": "b0", "b1": "b0"}))
    return [a, b]


def all_stage_objects(depth: int = 3, max_size: int = 2) -> list[StageObject]:
    """Every stage object with the given depth and stage sets of at most
    ``max_size`` elements, up to renaming (surjective restrictions force
    nondecreasing sizes)."""
    out = []
    size_runs = [
        sizes
        for sizes in iproduct(range(1, max_size + 1), repeat=depth)
        if all(sizes[i] <= sizes[i + 1] for i in range(depth - 1))
    ]
    for sizes in size_runs:
        stages = tuple(tuple(f"e{n}_{i}" for i in range(sizes[n])) for n in range(depth))
        restr_options = []
        for n in range(depth - 1):
            hi, lo = stages[n + 1], stages[n]
            opts = [
                dict(zip(hi, targets))
                for targets in iproduct(lo, repeat=len(hi))
                if set(targets) == set(lo)
            ]
            restr_options.append(opts)
        for combo in iproduct(*restr_options):
            out.append(StageObject(stages, tuple(combo)))
    return out


def _tot_guarded(params, x):
    for w in _enumerate_natural(tuple(params) + (_later(x),), x):
        maps = _guarded_from_witness(tuple(params) + (x,), x, w, {len(params)})
        yield ToTMorphism(tuple(params) + (x,), (x,), tuple(maps))


def tot_conway_suite() -> dict[str, dict]:
    """Law suite for the stage-delayed recursion operator: the laws with
    one quantified morphism run over every pair of three-stage carriers
    with stage sets of at most two elements; the pair-quantified laws run
    over a fixed representative family."""
    depth = 3
    shapes = all_stage_objects(depth, 2)
    out: dict[str, dict] = {}
    model = ToposOfTreesModel({})

    def rec(m):
        return _tot_rec(model, m)

    n = bad = 0
    for xo in shapes:
        for yo in shapes:
            for f in _tot_guarded((yo,), xo):
                fd = rec(f)
                pair = ToTMorphism(
                    (yo,),
                    (yo, xo),
                    tuple(
                        {(v,): (v,) + fd.maps[s][(v,)] for v in yo.stages[s]}
                        for s in range(depth)
                    ),
                )
                n += 1
                if model.compose(pair, f) != fd:
                    bad += 1
    out["fixpoint"] = {"instances": n, "failures": bad}

    n = bad = 0
    for xo in shapes:
        for yo in shapes:
            for f in _tot_guarded((yo,), xo):
                fd = rec(f)
                for u in _enumerate_natural((yo,), yo):
                    umap = ToTMorphism(
                        (yo,),
                        (yo,),
                        tuple({k: (v,) for k, v in u[s].items()} for s in range(depth)),
                    )
                    uid = model.tensor(umap, model_identity(model, xo))
                    n += 1
                    if model.compose(umap, fd) != rec(model.compose(uid, f)):
                        bad += 1
    out["naturality"] = {"instances": n, "failures": bad}

    xo, yo = _small_objects()

    # dinaturality: g: Y x V -> X, h: Y x X -> V, the loop guarded inside g
    n = bad = 0
    vo = xo
    for g in _tot_guarded((yo,), vo):  # g: Y x V -> X, delayed in V
        for h_w in _enumerate_natural((yo, xo), vo):
            h = ToTMorphism(
                (yo, xo),
                (vo,),
                tuple({k: (v,) for k, v in t.items()} for t in h_w),
            )
            lhs_m = _pair_then(g, h, yo, xo)  # g . <fst, h> : Y x X -> X
            rhs_inner = rec(_pair_then(h, g, yo, vo))  # (h . <fst, g>)^
            n += 1
            if rec(lhs_m) != _apply_with(g, rhs_inner, yo):
                bad += 1
    out["dinaturality"] = {"instances": n, "failures": bad}

    # diagonal: f: Y x X x X -> X delayed in both copies
    n = bad = 0
    for w in _enumerate_natural((yo, _later(xo), _later(xo)), xo):
        maps = _guarded_from_witness((yo, xo, xo), xo, w, {1, 2})
        f = ToTMorphism((yo, xo, xo), (xo,), tuple(maps))
        dup = ToTMorphism(
            (yo, xo),
            (yo, xo, xo),
            tuple({(y, v): (y, v, v) for y in yo.stages[s] for v in xo.stages[s]} for s in range(depth)),
        )
        lhs = rec(model.compose(dup, f))
        rhs = rec(rec(f))
        n += 1
        if lhs != rhs:
            bad += 1
    out["diagonal"] = {"instances": n, "failures": bad}

    # squaring: rec f = rec(f . <fst, f>)
    n = bad = 0
    for xs in shapes:
        for ys in shapes:
            for f in _tot_guarded((ys,), xs):
                sq = ToTMorphism(
                    (ys, xs),
                    (ys, xs),
                    tuple(
                        {
                            (y, v): (y,) + f.maps[s][(y, v)]
                            for y in ys.stages[s]
                            for v in xs.stages[s]
                        }
                        for s in range(depth)
                    ),
                )
                n += 1
                if rec(f) != rec(model.compose(sq, f)):
                    bad += 1
    out["squaring"] = {"instances": n, "failures": bad}

    # uniformity w.r.t. product projections h = fst: X x W -> X
    n = bad = 0
    wo = yo
    proj = ToTMorphism(
        (xo, wo),
        (xo,),
        tuple({(v, w_): (v,) for v in xo.stages[s] for w_ in wo.stages[s]} for s in range(depth)),
    )
    for f in _tot_guarded((yo,), xo):
        for gw in _enumerate_natural((yo, _later(xo), _later(wo)), xo):
            g_x = _guarded_from_witness((yo, xo, wo), xo, gw, {1, 2})
            for gw2 in _enumerate_natural((yo, _later(xo), _later(wo)), wo):
                g_w = _guarded_from_witness((yo, xo, wo), wo, gw2, {1, 2})
                g = ToTMorphism(
                    (yo, xo, wo),
                    (xo, wo),
                    tuple(
                        {k: g_x[s][k] + g_w[s][k] for k in g_x[s]}
                        for s in range(depth)
                    ),
                )
                # premise: proj . g = f . (id_Y x proj)
                idproj = ToTMorphism(
                    (yo, xo, wo),
                    (yo, xo),
                    tuple(
                        {(y, v, w_): (y, v) for y in yo.stages[s] for v in xo.stages[s] for w_ in wo.stages[s]}
                        for s in range(depth)
                    ),
                )
                if model.compose(g, proj) != model.compose(idproj, f):
                    continue
                gd = _tot_rec_multi(model, g)
                n += 1
                if model.compose(gd, proj) != rec(f):
                    bad += 1
    out["uniformity_projections"] = {"instances": n, "failures": bad}
    return out


def model_identity(model: ToposOfTreesModel, obj: StageObject) -> ToTMorphism:
    depth = len(obj.stages)
    return ToTMorphism(
        (obj,), (obj,), tuple({(v,): (v,) for v in obj.stages[n]} for n in range(depth))
    )


def _pair_then(second, first, yo, a):
    """second . <fst, first> : Y x A -> cod(second)."""
    depth = len(yo.stages)
    maps = []
    for s in range(depth):
        table = {}
        for y in yo.stages[s]:
            for v in a.stages[s]:
                mid = first.maps[s][(y, v)]
                table[(y, v)] = second.maps[s][(y,) + mid]
        maps.append(table)
    return ToTMorphism((yo, a), second.cod, tuple(maps))


def _apply_with(g, inner, yo):
    """g . <id, inner> : Y -> cod(g) for inner: Y -> V."""
    depth = len(yo.stages)
    maps = []
    for s in range(depth):
        table = {}
        for y in yo.stages[s]:
            table[(y,)] = g.maps[s][(y,) + inner.maps[s][(y,)]]
        maps.append(table)
    return ToTMorphism((yo,), g.cod, tuple(maps))


def _tot_rec_multi(model, m):
    """Recursion over a multi-gate loop block sitting at the end of the
    domain: m: params x U -> U with U the trailing gates."""
    depth = len(m.maps)
    u_gates = m.cod
    dup = ToTMorphism(
        u_gates,
        u_gates + u_gates,
        tuple(
            {x: x + x for x in iproduct(*(g.stages[s] for g in u_gates))}
            for s in range(depth)
        ),
    )
    body = model.compose(m, dup)
    n_params = len(m.dom) - len(u_gates)
    corners = (
        ObjectExpr(("q",) * n_params),
        ObjectExpr(()),
        ObjectExpr(()),
        ObjectExpr(("q",) * len(u_gates)),
    )
    return model.trace(body, ObjectExpr(("q",) * len(u_gates)), corners, None)


# --- flat posets ---------------------------------------------------------------


def flat_transfer_suite(max_x: int = 3, max_b: int = 2) -> dict[str, dict]:
    """Round trips of the two transport constructions and law transfer,
    exhaustively over lifts of flat carriers of at most ``max_x`` points."""
    out: dict[str, dict] = {}
    rec0 = lfp_rec
    grec = rec_to_grec(rec0)
    rec1 = grec_to_rec(grec)
    grec1 = rec_to_grec(rec1)

    # rec -> grec -> rec round trip
    n = bad = 0
    for sx in range(1, max_x + 1):
        for sb in range(1, max_b + 1):
            x = flat(_carrier("x", sx))
            b = flat(_carrier("b", sb))
            tx, _ = lift(x)
            for f in _monotone_tables_between(b, tx, tx):
                n += 1
                if rec0(f, b, tx) != rec1(f, b, tx):
                    bad += 1
    out["round_trip_rec"] = {"instances": n, "failures": bad}

    # grec -> rec -> grec round trip (witnesses over flat carriers)
    n = bad = 0
    for sx in range(1, max_x + 1):
        for sb in range(1, max_b + 1):
            x = flat(_carrier("x", sx))
            b = flat(_carrier("b", sb))
            tx, _ = lift(x)
            for g in _witnesses(b, x, tx):
                n += 1
                if grec(g, b, x) != grec1(g, b, x):
                    bad += 1
    out["round_trip_grec"] = {"instances": n, "failures": bad}

    # laws for the least-fixpoint operator
    out.update(_flat_law_suite(rec0, max_x, max_b))

    # law transfer to the guarded side: fixpoint law for grec
    n = bad = 0
    for sx in range(1, max_x + 1):
        x = flat(_carrier("x", sx))
        b = flat(_carrier("b", 1))
        tx, _ = lift(x)
        for g in _witnesses(b, x, tx):
            res = grec(g, b, x)
            n += 1
            # f = g . (id x eta); f(y, res(y)) must equal res(y)
            if any(g[(bv, res[bv])] != res[bv] for bv in b.elements):
                bad += 1
    out["transfer_fixpoint"] = {"instances": n, "failures": bad}
    return out


def _witnesses(b: Poset, x: Poset, tx: Poset):
    """Monotone witnesses g: B x TX -> X; over flat X these are exactly
    the tables constant in the lifted argument."""
    for combo in iproduct(x.elements, repeat=len(b.elements)):
        yield {
            (bv, z): combo[i]
            for i, bv in enumerate(b.elements)
            for z in tx.elements
        }


def _flat_law_suite(rec, max_x: int, max_b: int) -> dict[str, dict]:
    out: dict[str, dict] = {}

    # fixpoint: rec f = f . <id, rec f>
    n = bad = 0
    for sx in range(1, max_x + 1):
        x = flat(_carrier("x", sx))
        tx, _ = lift(x)
        for sb in range(1, max_b + 1):
            b = flat(_carrier("b", sb))
            for f in _monotone_tables_between(b, tx, tx):
                r = rec(f, b, tx)
                n += 1
                if any(f[(bv, r[bv])] != r[bv] for bv in b.elements):
                    bad += 1
    out["fixpoint"] = {"instances": n, "failures": bad}

    # naturality in the parameter: rec(f . (u x id)) = rec(f) . u
    n = bad = 0
    x = flat(_carrier("x", 2))
    tx, _ = lift(x)
    b = flat(_carrier("b", 2))
    b2 = flat(_carrier("c", 2))
    for f in _monotone_tables_between(b, tx, tx):
        r = rec(f, b, tx)
        for uvals in iproduct(b.elements, repeat=len(b2.elements)):
            u = dict(zip(b2.elements, uvals))
            fu = {(cv, av): f[(u[cv], av)] for cv in b2.elements for av in tx.elements}
            n += 1
            if rec(fu, b2, tx) != {cv: r[u[cv]] for cv in b2.elements}:
                bad += 1
    out["naturality"] = {"instances": n, "failures": bad}

    # dinaturality: rec(g . <fst, h>) = g . <id, rec(h . <fst, g>)>
    n = bad = 0
    x = flat(_carrier("x", 2))
    w = flat(_carrier("w", 2))
    ta, _ = lift(x)
    tv, _ = lift(w)
    b = flat(_carrier("b", 1))
    for g in _monotone_tables_between(b, tv, ta):
        for h in _monotone_tables_between(b, ta, tv):
            gh = {(bv, av): g[(bv, h[(bv, av)])] for bv in b.elements for av in ta.elements}
            hg = {(bv, vv): h[(bv, g[(bv, vv)])] for bv in b.elements for vv in tv.elements}
            inner = rec(hg, b, tv)
            lhs = rec(gh, b, ta)
            rhs = {bv: g[(bv, inner[bv])] for bv in b.elements}
            n += 1
            if lhs != rhs:
                bad += 1
    out["dinaturality"] = {"instances": n, "failures": bad}

    # diagonal: rec(f . <id, snd>) = rec(rec f) for f: (B x A) x A -> A
    n = bad = 0
    x = flat(_carrier("x", 2))
    ta, _ = lift(x)
    b = flat(_carrier("b", 1))
    for f in _monotone_two_arg(b, ta):
        fold = {(bv, av): f[(bv, av, av)] for bv in b.elements for av in ta.elements}
        lhs = rec(fold, b, ta)
        # inner recursion over the last argument, parameterized by (b, a)
        pairs = flat(tuple(f"{bv}|{a1}" for bv in b.elements for a1 in ta.elements))
        dec = {
            (f"{bv}|{a1}", a2): f[(bv, a1, a2)]
            for bv in b.elements
            for a1 in ta.elements
            for a2 in ta.elements
        }
        inner_rec = rec(dec, pairs, ta)
        outer_tbl = {
            (bv, a1): inner_rec[f"{bv}|{a1}"] for bv in b.elements for a1 in ta.elements
        }
        rhs = rec(outer_tbl, b, ta)
        n += 1
        if lhs != rhs:
            bad += 1
    out["diagonal"] = {"instances": n, "failures": bad}

    # squaring: rec f = rec(f . <fst, f>)
    n = bad = 0
    x = flat(_carrier("x", 2))
    ta, _ = lift(x)
    for sb in range(1, max_b + 1):
        b = flat(_carrier("b", sb))
        for f in _monotone_tables_between(b, ta, ta):
            sq = {(bv, av): f[(bv, f[(bv, av)])] for bv in b.elements for av in ta.elements}
            n += 1
            if rec(f, b, ta) != rec(sq, b, ta):
                bad += 1
    out["squaring"] = {"instances": n, "failures": bad}
    return out


def _monotone_tables_between(b: Poset, src: Poset, dst: Poset):
    """All monotone tables B x src -> dst (curried per parameter element)."""
    def monotone_maps():
        picks = []
        for combo in iproduct(dst.elements, repeat=len(src.elements)):
            t = dict(zip(src.elements, combo))
            if all(t[q] in dst.up[t[p]] for p in src.elements for q in src.up[p]):
                picks.append(t)
        return picks

    per_b = monotone_maps()
    for combo in iproduct(per_b, repeat=len(b.elements)):
        yield {
            (bv, sv): combo[i][sv]
            for i, bv in enumerate(b.elements)
            for sv in src.elements
        }


def _monotone_two_arg(b: Poset, a: Poset):
    """Monotone tables B x A x A -> A, in the order of the product of
    their values.  Backtracking: a value is tried for one key only if it
    is above the values of the earlier keys below that key and below the
    values of the earlier keys above it."""
    keys = [(bv, a1, a2) for bv in b.elements for a1 in a.elements for a2 in a.elements]

    def le(k, m):
        return k[0] == m[0] and a.le(k[1], m[1]) and a.le(k[2], m[2])

    below = [[j for j in range(i) if le(keys[j], k)] for i, k in enumerate(keys)]
    above = [[j for j in range(i) if le(k, keys[j])] for i, k in enumerate(keys)]
    up = a.up

    def fits(vals: list[str]):
        i = len(vals)
        return (
            v
            for v in a.elements
            if all(v in up[vals[j]] for j in below[i])
            and all(vals[j] in up[v] for j in above[i])
        )

    for vals in _depth_first(len(keys), fits):
        yield dict(zip(keys, vals))
