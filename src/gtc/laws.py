"""Exhaustive small-instance checking of the iteration/recursion laws.

Iteration (the co-Cartesian case) and recursion (the Cartesian case) are
dual, so ``_conway_laws`` writes the six guarded Conway laws (fixpoint,
naturality, dinaturality, (co)diagonal, squaring, uniformity) once, and
two suites run them:

* finset: the iteration operator (strip the feedback summand) over all
  carriers of size at most two, with uniformity with respect to
  coproduct injections.  Uniformity is checked as a property, not baked
  into the operator, so the implication chain (codiagonal + uniformity
  gives squaring; squaring + injection uniformity gives dinaturality)
  can be reported from independently verified facts.

* trees: the stage-delayed recursion operator (via the model's own
  feedback), with naturality in the parameter, the diagonal for the
  codiagonal, and uniformity with respect to product projections.

A third suite, flatposet, checks the least-fixpoint operator on lifted
carriers, its laws, and the two transport constructions, which must be
mutually inverse and preserve the laws in both directions.

Each law is a generator yielding one bool per instance (True where the
law holds there), and ``_tally`` counts its instances and failures.  Laws
checked on the same instances may share one generator of tuples, counted
by ``_tallies``.  What a suite builds once for many instances lives in
that suite's call and leaves with it.
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
from .models.trees import StageObject, ToTMorphism, ToposOfTreesModel, stagewise
from .signatures import UNIT, ObjectExpr

# --- finset -------------------------------------------------------------------

_FS = FinSetModel({})


def _tally(checks) -> dict:
    """Count a law's instances (one bool each, True where it holds) and
    its failures."""
    n = bad = 0
    for ok in checks:
        n += 1
        bad += not ok
    return {"instances": n, "failures": bad}


def _tallies(checks, laws: int) -> list[dict]:
    """``_tally`` for ``laws`` laws checked on the same instances, from
    one tuple of bools per instance, in one pass."""
    n = 0
    bad = [0] * laws
    for oks in checks:
        n += 1
        for i, ok in enumerate(oks):
            bad[i] += not ok
    return [{"instances": n, "failures": b} for b in bad]


def _conway_laws(op, then, copair, guarded, natural, dinatural, codiagonal, uniform, names):
    """The six guarded Conway laws of ``op``, read as iteration: ``then(f,
    g)`` runs f and then g, and ``copair(g)`` is [inl, g]; for recursion
    they are compose with its arguments swapped and <fst, g>.  The families
    hold the instances: ``guarded`` (f, op f) for fixpoint and squaring,
    ``natural`` (f, op f, g, g + id), ``dinatural`` (g, h), ``codiagonal``
    (f, fold), and ``uniform`` (inj, id + inj, fs, gs), checked on the pairs
    of fs x gs that meet the premise.  ``names`` names the (co)diagonal and
    the uniformity law, which differ between the two readings."""
    codiagonal_name, uniformity_name = names

    def uniformity():
        # f . inj = (id + inj) . g implies op(f) . inj = op(g)
        for inj, id_inj, fs, gs in uniform:
            gs = [(g, then(g, id_inj)) for g in gs]
            for f in fs:
                f_inj = then(inj, f)
                for g, g_inj in gs:
                    if f_inj == g_inj:
                        yield then(inj, op(f)) == op(g)

    return {
        # f^ = [id, f^] . f
        "fixpoint": _tally(then(f, copair(fd)) == fd for f, fd in guarded),
        # g . f^ = ((g + id) . f)^
        "naturality": _tally(then(fd, g) == op(then(f, gid)) for f, fd, g, gid in natural),
        # ([inl, h] . g)^ = [id, ([inl, g] . h)^] . g
        "dinaturality": _tally(
            op(then(g, copair(h))) == then(g, copair(op(then(h, copair(g)))))
            for g, h in dinatural
        ),
        # ([inl, inr, inr] . f)^ = f^^
        codiagonal_name: _tally(op(then(f, fold)) == op(op(f)) for f, fold in codiagonal),
        # f^ = ([inl, f] . f)^
        "squaring": _tally(fd == op(then(f, copair(f))) for f, fd in guarded),
        uniformity_name: _tally(uniformity()),
    }


def _carrier(tag: str, size: int) -> tuple[str, ...]:
    return tuple(f"{tag}{i}" for i in range(size))


def _carriers(sizes, tags: str):
    """One carrier per tag, over every combination of sizes."""
    for combo in iproduct(sizes, repeat=len(tags)):
        yield tuple(map(_carrier, tags, combo))


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


def _maps(dom, cod, reach=None):
    """All morphisms dom -> cod whose values lie in the first ``reach``
    codomain gates (all of them by default)."""
    for t in _tables(dom, cod[:reach]):
        yield _fs(dom, cod, t)


def _copair(g: FinSetMorphism) -> FinSetMorphism:
    """[inl, g]: Y + Z -> Y + X for g: Z -> Y + X."""
    y = g.cod[0]
    table = {(0, e): (0, e) for e in y}
    table.update({(gate + 1, e): v for (gate, e), v in g.table.items()})
    return _fs((y,) + g.dom, g.cod, table)


def _inject(dom, cod, gates) -> FinSetMorphism:
    """The map sending each summand dom[i] onto the summand cod[gates[i]]."""
    return _fs(dom, cod, {(g, e): (gates[g], e) for g, c in enumerate(dom) for e in c})


def finset_conway_suite(max_size: int = 2) -> dict[str, dict]:
    sizes = range(max_size + 1)
    # every guarded f: X -> Y + X over the pairs of carriers, with iterate f
    by_carriers = {
        (x, y): [(f, finset_iter(f)) for f in _maps((x,), (y, x), 1)]
        for x, y in _carriers(sizes, "xy")
    }

    def natural():
        # g: Y -> Z, with g + id built once per g and carriers
        for x, y, z in _carriers(sizes, "xyz"):
            gs = [(g, _FS.tensor(g, _inject((x,), (x,), (0,)))) for g in _maps((y,), (z,))]
            for f, fd in by_carriers[x, y]:
                for g, gid in gs:
                    yield f, fd, g, gid

    def dinatural():
        # g: X -> Y + Z and h: Z -> Y + X, g guarded or h guarded
        for x, y, z in _carriers(sizes, "xyz"):
            for g_reach, h_reach in ((1, None), (None, 1)):
                yield from iproduct(_maps((x,), (y, z), g_reach), _maps((z,), (y, x), h_reach))

    def codiagonal():
        # f: X -> Y + X + X guarded, folded by [inl, inr, inr]
        for x, y in _carriers(sizes, "xy"):
            fold = _inject((y, x, x), (y, x), (0, 1, 1))
            for f in _maps((x,), (y, x, x), 1):
                yield f, fold

    def uniform():
        # the coproduct injection inj: Y -> Y + W, with guarded
        # f: Y + W -> Z + Y + W and g: Y -> Z + Y
        for y, w, z in _carriers(sizes, "ywz"):
            inj = _inject((y,), (y, w), (0,))
            id_inj = _inject((z, y), (z, y, w), (0, 1))
            yield inj, id_inj, _maps((y, w), (z, y, w), 1), _maps((y,), (z, y), 1)

    return _conway_laws(
        finset_iter,
        _FS.compose,
        _copair,
        [p for pairs in by_carriers.values() for p in pairs],
        natural(),
        dinatural(),
        codiagonal(),
        uniform(),
        ("codiagonal", "uniformity_injections"),
    )


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
            not all(ok[law] for law in ("fixpoint", "naturality", "dinaturality", "codiagonal"))
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
                options.append(cod.fibers[n - 1][tables[n - 1][lo]])
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


def _tot_rec(model: ToposOfTreesModel, m: ToTMorphism, dups: dict) -> ToTMorphism:
    """Recursion through the model's feedback for m: params x U -> U, the
    loop block U ending the domain: duplicate the output and trace the
    copy.  ``dups`` keeps each loop word's duplication, built on first
    use, for the caller's later recursions."""
    loops = m.cod
    key = (loops, len(m.maps))
    dup = dups.get(key)
    if dup is None:
        dup = dups[key] = stagewise(loops, loops + loops, lambda n, x: x + x, len(m.maps))
    q = ObjectExpr(("q",) * len(loops))
    corners = (ObjectExpr(("q",) * (len(m.dom) - len(loops))), UNIT, UNIT, q)
    return model.trace(model.compose(m, dup), q, corners, None)


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


def _tot_guarded(params: tuple, x: StageObject, loop_gates: tuple | None = None):
    """Every f: params x L -> X delayed on its loop gates L (X itself by
    default), one per natural witness over the delayed gates."""
    loops = (x,) if loop_gates is None else loop_gates
    dom = params + loops
    for w in _enumerate_natural(params + tuple(map(_later, loops)), x):
        maps = _guarded_from_witness(dom, x, w, range(len(params), len(dom)))
        yield ToTMorphism(dom, (x,), tuple(maps))


def tot_conway_suite() -> dict[str, dict]:
    """Law suite for the stage-delayed recursion operator: the laws with
    one quantified morphism run over every pair of three-stage carriers
    with stage sets of at most two elements; the pair-quantified laws run
    over a fixed representative family."""
    depth = 3
    shapes = all_stage_objects(depth, 2)
    model = ToposOfTreesModel({})
    dups: dict = {}

    def rec(m):
        return _tot_rec(model, m, dups)

    def pair_fst(g):
        # <fst, g>: Y x Z -> Y x X for g: Y x Z -> X
        return stagewise(g.dom, g.dom[:1] + g.cod, lambda s, x: x[:1] + g.maps[s][x], depth)

    def natural(dom, cod):
        for w in _enumerate_natural(dom, cod):
            yield stagewise(dom, (cod,), lambda s, x: (w[s][x],), depth)

    # every guarded f: Y x X -> X over the pairs of carriers, with rec f
    by_carriers = {
        (yo, xo): [(f, rec(f)) for f in _tot_guarded((yo,), xo)]
        for xo in shapes
        for yo in shapes
    }
    identity = {o: stagewise((o,), (o,), lambda s, x: x, depth) for o in shapes}
    endos = {o: list(natural((o,), o)) for o in shapes}

    def naturals():
        # u: Y -> Y, with u x id built once per carrier pair
        for (yo, xo), pairs in by_carriers.items():
            uids = [(u, model.tensor(u, identity[xo])) for u in endos[yo]]
            for f, fd in pairs:
                for u, uid in uids:
                    yield f, fd, u, uid

    xo, yo = _small_objects()
    # f: Y x X x X -> X delayed in both copies, with the diagonal
    dup = stagewise((yo, xo), (yo, xo, xo), lambda s, x: x + x[1:], depth)
    # the product projection fst: X x W -> X, W = Y, with guarded
    # g: Y x X x W -> X x W and f: Y x X -> X
    loops = (xo, yo)
    proj = stagewise(loops, (xo,), lambda s, x: x[:1], depth)
    idproj = stagewise((yo,) + loops, (yo, xo), lambda s, x: x[:2], depth)
    gs = [
        stagewise((yo,) + loops, loops, lambda s, x: gx.maps[s][x] + gw.maps[s][x], depth)
        for gx in _tot_guarded((yo,), xo, loops)
        for gw in _tot_guarded((yo,), yo, loops)
    ]
    return _conway_laws(
        rec,
        lambda f, g: model.compose(g, f),
        pair_fst,
        [p for pairs in by_carriers.values() for p in pairs],
        naturals(),
        # g: Y x X -> X delayed in X, h: Y x X -> X
        iproduct(_tot_guarded((yo,), xo), natural((yo, xo), xo)),
        ((f, dup) for f in _tot_guarded((yo,), xo, (xo, xo))),
        [(proj, idproj, gs, _tot_guarded((yo,), xo))],
        ("diagonal", "uniformity_projections"),
    )


# --- flat posets ---------------------------------------------------------------


def _flat_grid(max_x: int, max_b: int):
    """(B, X, TX) for flat X of 1..max_x points and flat B of 1..max_b."""
    for sx in range(1, max_x + 1):
        x = flat(_carrier("x", sx))
        tx, _ = lift(x)
        for sb in range(1, max_b + 1):
            yield flat(_carrier("b", sb)), x, tx


def flat_transfer_suite(max_x: int = 3, max_b: int = 2) -> dict[str, dict]:
    """Round trips of the two transport constructions and law transfer,
    exhaustively over lifts of flat carriers of at most ``max_x`` points,
    and the laws of the least-fixpoint operator."""
    rec = lfp_rec
    grec = rec_to_grec(rec)
    rec1 = grec_to_rec(grec)
    grec1 = rec_to_grec(rec1)
    ta, _ = lift(flat(_carrier("x", 2)))
    b1 = flat(_carrier("b", 1))

    def rec_tables():
        # one pass over the tables, rec f computed once for both laws:
        # round_trip_rec, rec f = rec1 f; fixpoint, rec f = f . <id, rec f>
        for b, _, tx in _flat_grid(max_x, max_b):
            for f in _monotone_tables_between(b, tx, tx):
                r = rec(f, b, tx)
                yield r == rec1(f, b, tx), all(f[(bv, r[bv])] == r[bv] for bv in b.elements)

    def naturality():
        # rec(f . (u x id)) = rec(f) . u
        b, c = flat(_carrier("b", 2)), flat(_carrier("c", 2))
        for f in _monotone_tables_between(b, ta, ta):
            r = rec(f, b, ta)
            for uvals in iproduct(b.elements, repeat=len(c.elements)):
                u = dict(zip(c.elements, uvals))
                fu = {(cv, av): f[(u[cv], av)] for cv in c.elements for av in ta.elements}
                yield rec(fu, c, ta) == {cv: r[u[cv]] for cv in c.elements}

    def dinaturality():
        # rec(g . <fst, h>) = g . <id, rec(h . <fst, g>)>
        tv, _ = lift(flat(_carrier("w", 2)))
        for g in _monotone_tables_between(b1, tv, ta):
            for h in _monotone_tables_between(b1, ta, tv):
                gh = {(bv, av): g[(bv, h[(bv, av)])] for bv in b1.elements for av in ta.elements}
                hg = {(bv, vv): h[(bv, g[(bv, vv)])] for bv in b1.elements for vv in tv.elements}
                inner = rec(hg, b1, tv)
                yield rec(gh, b1, ta) == {bv: g[(bv, inner[bv])] for bv in b1.elements}

    def diagonal():
        # rec(f . <id, snd>) = rec(rec f) for f: (B x A) x A -> A
        pairs = flat(tuple(f"{bv}|{a1}" for bv in b1.elements for a1 in ta.elements))
        for f in _monotone_two_arg(b1, ta):
            fold = {(bv, av): f[(bv, av, av)] for bv in b1.elements for av in ta.elements}
            # inner recursion over the last argument, parameterized by (b, a)
            dec = {
                (f"{bv}|{a1}", a2): f[(bv, a1, a2)]
                for bv in b1.elements
                for a1 in ta.elements
                for a2 in ta.elements
            }
            inner = rec(dec, pairs, ta)
            outer = {(bv, a1): inner[f"{bv}|{a1}"] for bv in b1.elements for a1 in ta.elements}
            yield rec(fold, b1, ta) == rec(outer, b1, ta)

    def squaring():
        # rec f = rec(f . <fst, f>)
        for sb in range(1, max_b + 1):
            b = flat(_carrier("b", sb))
            for f in _monotone_tables_between(b, ta, ta):
                sq = {(bv, av): f[(bv, f[(bv, av)])] for bv in b.elements for av in ta.elements}
                yield rec(f, b, ta) == rec(sq, b, ta)

    def transfer_fixpoint():
        # the fixpoint law for grec: f = g . (id x eta) sends (y, res(y))
        # to res(y)
        for b, x, tx in _flat_grid(max_x, 1):
            for g in _witnesses(b, x, tx):
                res = grec(g, b, x)
                yield all(g[(bv, res[bv])] == res[bv] for bv in b.elements)

    round_trip_rec, fixpoint = _tallies(rec_tables(), 2)
    return {
        "round_trip_rec": round_trip_rec,
        "round_trip_grec": _tally(
            grec(g, b, x) == grec1(g, b, x)
            for b, x, tx in _flat_grid(max_x, max_b)
            for g in _witnesses(b, x, tx)
        ),
        "fixpoint": fixpoint,
        "naturality": _tally(naturality()),
        "dinaturality": _tally(dinaturality()),
        "diagonal": _tally(diagonal()),
        "squaring": _tally(squaring()),
        "transfer_fixpoint": _tally(transfer_fixpoint()),
    }


def _witnesses(b: Poset, x: Poset, tx: Poset):
    """Monotone witnesses g: B x TX -> X; over flat X these are exactly
    the tables constant in the lifted argument."""
    for combo in iproduct(x.elements, repeat=len(b.elements)):
        yield {
            (bv, z): combo[i]
            for i, bv in enumerate(b.elements)
            for z in tx.elements
        }


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
