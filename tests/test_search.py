"""Exact redundancy search: requirements, backtracking, witnesses."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcckit.errors import BudgetExceeded, DimensionError
from fcckit.fcc import FccScheme, FunctionTable, builtin_function, verify_fcc
from fcckit.search import RequirementSet, exact_redundancy
from fcckit.vectors import (
    hamming_distance,
    iter_messages,
    message_rank,
    messages_by_weight,
    unrank_message,
)


def brute_force_min_r(f: FunctionTable, t: int, r_cap: int = 4) -> int:
    """Oracle: try every parity map p: F_q^k -> F_q^r, no symmetry breaking."""
    msgs = list(iter_messages(f.q, f.k))
    demands = [
        (i, j, 2 * t + 1 - hamming_distance(msgs[i], msgs[j]))
        for i, j in itertools.combinations(range(len(msgs)), 2)
        if f.values[i] != f.values[j]
        and 2 * t + 1 - hamming_distance(msgs[i], msgs[j]) > 0
    ]
    for r in range(r_cap + 1):
        vectors = list(itertools.product(range(f.q), repeat=r))
        for assignment in itertools.product(vectors, repeat=len(msgs)):
            if all(
                hamming_distance(assignment[i], assignment[j]) >= need
                for i, j, need in demands
            ):
                return r
    raise AssertionError(f"no assignment up to r = {r_cap}")


def pairwise_requirements(f: FunctionTable, t: int):
    """Oracle for RequirementSet.build: one hamming_distance call per pair."""
    order = tuple(messages_by_weight(f.q, f.k))
    labels = [f.values[message_rank(u, f.q)] for u in order]
    demands = []
    d_max = 0
    for i, u in enumerate(order):
        row = []
        for j in range(i):
            if labels[i] == labels[j]:
                continue
            need = 2 * t + 1 - hamming_distance(u, order[j])
            if need > 0:
                row.append((j, need))
                d_max = max(d_max, need)
        demands.append(tuple(row))
    return order, tuple(demands), d_max


def _parity_metric(q: int, r: int):
    """Hamming distance between parity vectors addressed by rank."""
    if q == 2:
        return lambda a, b: (a ^ b).bit_count()
    digits = [unrank_message(i, q, r) for i in range(q**r)]
    return lambda a, b: sum(1 for x, y in zip(digits[a], digits[b]) if x != y)


def loop_search(f: FunctionTable, t: int, budget: int, gate: bool = True):
    """Oracle for exact_redundancy: the same depth-first search, checking
    each candidate parity against each demand by a distance call.  Returns
    (r, witness, nodes, infeasible) or raises the same BudgetExceeded.
    A search that finishes tries at least one candidate at each message
    after the first, so more messages than budget + 1 are refused first
    (unless ``gate`` is false)."""
    total = f.q**f.k
    if gate and total - 1 > budget:
        raise BudgetExceeded(
            f"redundancy search needs at least {total - 1} nodes, budget is {budget}",
            required=total - 1,
            budget=budget,
            unit="nodes",
        )
    order, demands, r = pairwise_requirements(f, t)
    nodes = 0
    infeasible = []
    while True:
        size = f.q**r
        dist = _parity_metric(f.q, r)
        assigned = [0] * total
        next_cand = [0] * (total + 1)
        pos = 1
        while 1 <= pos < total:
            cand = next_cand[pos]
            advanced = False
            while cand < size:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(
                        f"redundancy search exceeded {budget} nodes at r = {r}",
                        nodes=nodes,
                        trying_r=r,
                        proven_infeasible=tuple(infeasible),
                        lower_bound=r,
                    )
                if all(dist(cand, assigned[j]) >= need for j, need in demands[pos]):
                    assigned[pos] = cand
                    next_cand[pos] = cand + 1
                    pos += 1
                    next_cand[pos] = 0
                    advanced = True
                    break
                cand += 1
            if not advanced:
                next_cand[pos] = 0
                pos -= 1
        if pos == total:
            witness = [()] * total
            for u, a in zip(order, assigned):
                witness[message_rank(u, f.q)] = unrank_message(a, f.q, r)
            return r, tuple(witness), nodes, tuple(infeasible)
        infeasible.append(r)
        r += 1


@st.composite
def search_cells(draw):
    """q in {2,3,4,5,7} (3, 5 and 7 leave spare bit patterns in a packed
    digit), k <= 3, t <= 2 and random labels over up to four values."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    k = draw(st.integers(1, 3))
    t = draw(st.integers(0, 2))
    image = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, image - 1), min_size=q**k, max_size=q**k))
    return FunctionTable(q, k, tuple(labels)), t


class TestPairRequirement:
    def test_requirement_set_shape(self):
        f = builtin_function("or", 2, 2)
        reqs = RequirementSet.build(f, 1)
        assert reqs.d_max == 2
        # all demands reference earlier messages only
        for i, row in enumerate(reqs.demands):
            for j, need in row:
                assert j < i
                assert 1 <= need <= 2 * reqs.t

    def test_maximal_demand_exactly_for_adjacent_pairs(self):
        f = builtin_function("identity", 3, 2)
        t = 2
        reqs = RequirementSet.build(f, t)
        for i, row in enumerate(reqs.demands):
            for j, need in row:
                d = hamming_distance(reqs.order[i], reqs.order[j])
                assert need == 2 * t + 1 - d
                assert (need == 2 * t) == (d == 1)


class TestExactRedundancy:
    def test_or_functions_reach_the_2t_floor(self):
        assert exact_redundancy(builtin_function("or", 2, 2), 1).r == 2
        assert exact_redundancy(builtin_function("or", 2, 3), 1).r == 2
        assert exact_redundancy(builtin_function("or", 2, 2), 2).r == 4

    def test_constant_needs_nothing(self):
        res = exact_redundancy(builtin_function("constant", 2, 3), 2)
        assert res.r == 0
        assert res.witness == ((),) * 8

    def test_identity_2_2_needs_three(self):
        res = exact_redundancy(builtin_function("identity", 2, 2), 1)
        assert res.r == 3
        assert res.infeasible == (2,)
        assert brute_force_min_r(builtin_function("identity", 2, 2), 1) == 3

    def test_t_zero_is_free(self):
        assert exact_redundancy(builtin_function("identity", 2, 2), 0).r == 0

    def test_witness_always_verifies(self):
        cases = [
            (builtin_function("or", 2, 3), 1),
            (builtin_function("identity", 2, 2), 1),
            (builtin_function("hamming_weight", 2, 3), 1),
            (builtin_function("or", 3, 2), 1),
        ]
        for f, t in cases:
            res = exact_redundancy(f, t)
            scheme = res.scheme()
            assert isinstance(scheme, FccScheme)
            assert verify_fcc(scheme, f, t).ok

    def test_matches_unrestricted_brute_force_q2_k2(self):
        # symmetry breaking must not change the answer for any labelling
        for mask in range(1, 15):
            values = tuple((mask >> i) & 1 for i in range(4))
            f = FunctionTable(2, 2, values)
            assert exact_redundancy(f, 1).r == brute_force_min_r(f, 1)

    def test_lower_bound_conformance_sampled(self):
        rng = random.Random(2718)
        for _ in range(40):
            mask = rng.randrange(1, 255)
            values = tuple((mask >> i) & 1 for i in range(8))
            f = FunctionTable(2, 3, values)
            if f.image_size >= 2:
                assert exact_redundancy(f, 1).r >= 2

    def test_monotone_in_t(self):
        f_or = builtin_function("or", 2, 2)
        f_id = builtin_function("identity", 2, 2)
        for f in (f_or, f_id):
            rs = [exact_redundancy(f, t).r for t in range(4)]
            assert rs == sorted(rs)

    def test_mds_region_matches_2t(self):
        rng = random.Random(31337)
        fns = [builtin_function("identity", 5, 2)]
        for _ in range(4):
            values = tuple(rng.randrange(3) for _ in range(25))
            if len(set(values)) >= 2:
                fns.append(FunctionTable(5, 2, values))
        for f in fns:
            assert exact_redundancy(f, 1).r == 2

    def test_budget_exceeded_carries_bounds(self):
        f = builtin_function("identity", 2, 3)
        with pytest.raises(BudgetExceeded) as exc:
            exact_redundancy(f, 2, budget=50)
        details = exc.value.details
        assert details["nodes"] > 50
        assert details["lower_bound"] >= details["trying_r"] >= 4

    def test_negative_t_rejected(self):
        with pytest.raises(DimensionError):
            exact_redundancy(builtin_function("or", 2, 2), -1)

    def test_deterministic_witness(self):
        f = builtin_function("hamming_weight", 2, 3)
        a = exact_redundancy(f, 1)
        b = exact_redundancy(f, 1)
        assert a == b


@settings(max_examples=80, deadline=None)
@given(cell=search_cells())
def test_requirements_match_pairwise_build(cell):
    f, t = cell
    reqs = RequirementSet.build(f, t)
    assert (reqs.order, reqs.demands, reqs.d_max) == pairwise_requirements(f, t)


@settings(max_examples=60, deadline=None)
@given(cell=search_cells(), budget=st.integers(20, 2 * 10**5))
def test_search_matches_per_candidate_loop(cell, budget):
    f, t = cell
    try:
        expected = loop_search(f, t, budget)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as got:
            exact_redundancy(f, t, budget=budget)
        assert str(got.value) == str(exc)
        assert got.value.details == exc.details
    else:
        res = exact_redundancy(f, t, budget=budget)
        assert (res.r, res.witness, res.nodes, res.infeasible) == expected


@settings(max_examples=60, deadline=None)
@given(cell=search_cells(), data=st.data())
def test_search_refused_up_front_only_when_it_would_exceed_the_budget(cell, data):
    # the gate is exact: with fewer nodes than messages after the first,
    # the search itself runs out of budget
    f, t = cell
    total = f.q**f.k
    budget = data.draw(st.integers(0, 2 * total), label="budget")
    if total - 1 > budget:
        with pytest.raises(BudgetExceeded) as exc:
            exact_redundancy(f, t, budget=budget)
        assert exc.value.details == {"required": total - 1, "budget": budget, "unit": "nodes"}
        with pytest.raises(BudgetExceeded):
            loop_search(f, t, budget, gate=False)
    else:
        try:
            assert exact_redundancy(f, t, budget=budget).nodes >= total - 1
        except BudgetExceeded as exc:
            assert exc.details["nodes"] == budget + 1


def test_identity_3_3_2_exhausts_default_budget_at_r5():
    with pytest.raises(BudgetExceeded) as exc:
        exact_redundancy(builtin_function("identity", 3, 3), 2)
    assert exc.value.details == {
        "nodes": 2**22 + 1,
        "trying_r": 5,
        "proven_infeasible": (4,),
        "lower_bound": 5,
    }
