"""Acceptance suite: one test per criterion, exact assertions throughout.

Each test prints a PASS line on success; the randomized suites report how
many instances they exercised.
"""

import json
import time
from collections import Counter
from random import Random

import util
import worked_examples as ex
from hookkron.hook_rule import (
    TypedPicture,
    balanced_cocorner,
    balanced_corner,
    hook_hook_multiplicity,
    multiplicity_hook,
    pw_m_set,
    step_E,
    step_F,
)
from hookkron.pictures import (
    enumerate_pictures,
    picture_bump_destination,
    picture_delete,
    picture_insert,
    rw_to_picture,
)
from hookkron.shapes import (
    cocorners,
    hook_partition,
    icc_bar,
    inner_cocorners,
    leq_sw,
    partitions,
    skew,
)
from hookkron.tableaux import (
    PartialTableau,
    bump_destination,
    delete,
    insert,
)
from hookkron.verify import verify_range


def lt_sw(a, b):
    return a != b and leq_sw(a, b)


def test_criterion_1_worked_decomposition():
    start = time.perf_counter()
    pics = pw_m_set(ex.PH_LAMBDA, ex.PH_MU, 6)
    assert len(pics) == 7
    cocorner_cells = []
    corner_cells = []
    for tp in pics:
        z = balanced_cocorner(tp)
        w = balanced_corner(tp)
        assert (z is None) != (w is None)
        if z is not None:
            cocorner_cells.append(z)
        else:
            corner_cells.append(w)
    assert cocorner_cells == [(1, 3), (1, 3)]
    assert sorted(corner_cells) == [(1, 3), (1, 3), (1, 3), (1, 3), (1, 4)]
    assert multiplicity_hook(ex.PH_LAMBDA, ex.PH_MU, 6) == 2
    assert multiplicity_hook(ex.PH_LAMBDA, ex.PH_MU, 5) == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (worked decomposition, {elapsed:.3f}s): PASS")


def test_criterion_2_insertion_deletion_bitexact():
    start = time.perf_counter()
    t = PartialTableau(skew(ex.T_OUTER, ex.T_INNER), ex.T_ENTRIES)
    route = bump_destination(t, 7)
    assert list(route.cells) == [(4, 2), (3, 3), (2, 3)]

    grown = insert(t, 7)
    expected_grown = {
        "outer": [5, 5, 4, 3],
        "inner": [4, 2, 2],
        "entries": [
            [4, 1, 1], [4, 2, 7], [4, 3, 10],
            [3, 3, 5], [3, 4, 11],
            [2, 3, 3], [2, 4, 8], [2, 5, 9],
            [1, 5, 6],
        ],
    }
    assert json.dumps(util.tableau_to_json(grown)) == json.dumps(expected_grown)

    shrunk, value = delete(t, (3, 3))
    assert value == 5
    expected_shrunk = {
        "outer": [5, 5, 4, 3],
        "inner": [4, 3, 3],
        "entries": [
            [4, 1, 1], [4, 2, 3], [4, 3, 10],
            [3, 4, 11],
            [2, 4, 8], [2, 5, 9],
            [1, 5, 6],
        ],
    }
    assert json.dumps(util.tableau_to_json(shrunk)) == json.dumps(expected_shrunk)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 (insertion/deletion bit-exact, {elapsed:.3f}s): PASS")


def test_criterion_3_picture_examples():
    start = time.perf_counter()
    target = skew(ex.BIG_OUTER, ex.TARGET_INNER)
    reading = {c: ex.ROW_READING_BIG[c] for c in target.cells()}
    t = PartialTableau(skew(ex.T_OUTER, ex.T_INNER), ex.T_ENTRIES)
    p = rw_to_picture(t, reading, target)
    assert dict(p.pairs()) == ex.LAMBDA_MAP

    destination, _ = picture_bump_destination(p, (2, 3))
    assert destination == (2, 3)
    grown = picture_insert(p, (2, 3))
    assert dict(grown.pairs()) == ex.E23_LAMBDA_MAP

    shrunk, out = picture_delete(p, (3, 3))
    assert out == (3, 3)
    assert dict(shrunk.pairs()) == ex.F33_LAMBDA_MAP
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 (picture worked examples, {elapsed:.3f}s): PASS")


def test_criterion_4_oracle_sweep():
    start = time.perf_counter()
    report = verify_range(4, 7, jobs=1)
    elapsed = time.perf_counter() - start
    for mismatch in report.mismatches:
        print(str(mismatch))
    assert report.ok
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 4 (oracle sweep 4<=n<=7, {report.checks} checks, "
        f"{elapsed:.1f}s single-threaded): PASS"
    )


def test_criterion_5_bijection_suite():
    start = time.perf_counter()
    pictures = 0
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                by_m = {m: pw_m_set(lam, mu, m) for m in range(n + 1)}
                hooks: dict[int, list[TypedPicture]] = {}
                cohooks: dict[int, list[TypedPicture]] = {}
                for m, pics in by_m.items():
                    hooks[m], cohooks[m] = [], []
                    for tp in pics:
                        z = balanced_cocorner(tp)
                        w = balanced_corner(tp)
                        assert (z is None) != (w is None)
                        (hooks[m] if z is not None else cohooks[m]).append(tp)
                        pictures += 1
                for m in range(n):
                    assert len(hooks[m]) == len(cohooks[m + 1])
                    for tp in hooks[m]:
                        up = step_E(tp)
                        assert up in cohooks[m + 1]
                        assert step_F(up) == tp
                    for tp in cohooks[m + 1]:
                        down = step_F(tp)
                        assert down in hooks[m]
                        assert step_E(down) == tp
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 5 (bijection suite n<=6, {pictures} pictures, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_6_recurrence_suite(counts_by_pair):
    start = time.perf_counter()
    for (lam, mu), (hook, exterior) in counts_by_pair.items():
        n = sum(lam)
        assert exterior[0] == hook[0]
        for m in range(1, n):
            assert exterior[m] == hook[m - 1] + hook[m]
        assert exterior[n] == hook[n - 1]
        assert hook[n] == 0
        for m in range(n):
            alternating = sum((-1) ** (m - i) * exterior[i] for i in range(m + 1))
            assert hook[m] == alternating
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 6 (recurrence + alternating sum n<=7, "
        f"{len(counts_by_pair)} pairs, {elapsed:.1f}s): PASS"
    )


def test_criterion_7_hook_hook():
    start = time.perf_counter()
    triples = 0
    for n in range(2, 9):
        for e in range(n // 2 + 1):
            for f in range(e, n // 2 + 1):
                lam, mu = hook_partition(n, e), hook_partition(n, f)
                for m in range(n):
                    assert hook_hook_multiplicity(e, f, m, n) == multiplicity_hook(
                        lam, mu, m
                    )
                    triples += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 (hook x hook n<=8, {triples} triples, {elapsed:.1f}s): PASS")


def _tableau_lemma_checks(rng: Random, checks: Counter) -> None:
    shape = util.random_skew_shape(rng, max_outer=9)
    t = util.random_tableau(rng, shape)
    image = set(t.image())
    free = [v for v in range(1, 3 * shape.size + 5) if v not in image]
    corners = util.removable_corners(t)
    outputs = {v: delete(t, v)[1] for v in corners}

    a, b = sorted(rng.sample(free, 2))
    assert leq_sw(bump_destination(t, a).destination, bump_destination(t, b).destination)
    checks["t1"] += 1

    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            assert outputs[corners[i]] <= outputs[corners[j]]
            checks["t2"] += 1

    addable = [
        v
        for v in free
        if 0 not in bump_destination(t, v).destination
    ]
    if addable:
        a = addable[rng.randrange(len(addable))]
        u = bump_destination(t, a).destination
        grown = insert(t, a)
        rest = [v for v in free if v != a]
        for a2 in rng.sample(rest, min(3, len(rest))):
            u2 = bump_destination(grown, a2).destination
            if a < a2:
                assert lt_sw(u, u2)
            else:
                assert lt_sw(u2, u)
            checks["t3"] += 1

    if corners:
        v = corners[rng.randrange(len(corners))]
        shrunk, b1 = delete(t, v)
        for v2 in util.removable_corners(shrunk):
            b2 = delete(shrunk, v2)[1]
            if lt_sw(v, v2):
                assert b1 < b2
            else:
                assert lt_sw(v2, v) and b2 < b1
            checks["t4"] += 1

    for a in rng.sample(free, min(3, len(free))):
        u = bump_destination(t, a).destination
        for v in corners:
            if lt_sw(u, v):
                assert a < outputs[v]
                checks["t5"] += 1
        for v in cocorners(shape.inner):
            if v[0] <= shape.length and lt_sw(v, u):
                assert v in outputs and outputs[v] < a
                checks["t6"] += 1


def _picture_pool() -> list:
    pool = []
    for lam in partitions(6):
        for mu in partitions(6):
            for m in range(7):
                pool.extend(tp.picture for tp in pw_m_set(lam, mu, m))
    rng = Random(5)
    shapes = util.small_skew_shapes(max_outer=7, max_cells=6)
    by_size: dict[int, list] = {}
    for s in shapes:
        by_size.setdefault(s.size, []).append(s)
    for _ in range(400):
        size = rng.randint(1, 6)
        group = by_size[size]
        source = group[rng.randrange(len(group))]
        target = group[rng.randrange(len(group))]
        pool.extend(enumerate_pictures(source, target))
    return pool


def _picture_lemma_checks(rng: Random, p, checks: Counter) -> None:
    boundary = icc_bar(p.target)
    destinations = {z: picture_bump_destination(p, z)[0] for z in boundary}
    corners = util.removable_corners(p)
    outputs = {v: picture_delete(p, v)[1] for v in corners}

    for i in range(len(boundary)):
        for j in range(i + 1, len(boundary)):
            assert leq_sw(destinations[boundary[i]], destinations[boundary[j]])
            checks["p1"] += 1

    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            assert leq_sw(outputs[corners[i]], outputs[corners[j]])
            checks["p2"] += 1

    usable = util.addable_cocorners(p)
    if usable:
        z = usable[rng.randrange(len(usable))]
        u = destinations[z]
        grown = picture_insert(p, z)
        for z2 in inner_cocorners(grown.target):
            u2, _ = picture_bump_destination(grown, z2)
            if lt_sw(z, z2):
                assert lt_sw(u, u2)
            else:
                assert lt_sw(z2, z) and lt_sw(u2, u)
            checks["p3"] += 1

    if corners:
        v = corners[rng.randrange(len(corners))]
        w = outputs[v]
        shrunk, _ = picture_delete(p, v)
        for v2 in util.removable_corners(shrunk):
            w2 = picture_delete(shrunk, v2)[1]
            if lt_sw(v, v2):
                assert lt_sw(w, w2)
            else:
                assert lt_sw(v2, v) and lt_sw(w2, w)
            checks["p4"] += 1

    for z in boundary:
        u = destinations[z]
        for v in corners:
            if lt_sw(u, v):
                assert lt_sw(z, outputs[v])
                checks["p5"] += 1
        for v in cocorners(p.source.inner):
            if v[0] <= p.source.length and lt_sw(v, u):
                assert v in outputs and lt_sw(outputs[v], z)
                checks["p6"] += 1


def test_criterion_8_bumping_lemma_suites():
    start = time.perf_counter()
    rng = Random(20260809)
    tableau_checks: Counter = Counter()
    while sum(tableau_checks.values()) < 10500:
        _tableau_lemma_checks(rng, tableau_checks)
    assert all(tableau_checks[f"t{k}"] > 0 for k in range(1, 7))

    picture_checks: Counter = Counter()
    pool = _picture_pool()
    while sum(picture_checks.values()) < 10500:
        p = pool[rng.randrange(len(pool))]
        _picture_lemma_checks(rng, p, picture_checks)
    assert all(picture_checks[f"p{k}"] > 0 for k in range(1, 7))

    total = sum(tableau_checks.values()) + sum(picture_checks.values())
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 8 (bumping lemmas, {sum(tableau_checks.values())} tableau + "
        f"{sum(picture_checks.values())} picture instances = {total}, "
        f"{elapsed:.1f}s): PASS"
    )
