"""ComponentDriver over a ClauseDB: the BCP ``exact:cc`` searches with,
residuals, component splitting."""

from repro.sat.kernel import ClauseDB, ComponentDriver, TRUE_V


def driver(num_vars, clauses, xors=()):
    return ComponentDriver(ClauseDB(num_vars, clauses, xors))


class TestPropagation:
    def test_unit_chain(self):
        # 1 -> 2 -> 3 via binary clauses
        search = driver(3, [[-1, 2], [-2, 3]])
        assert search.assert_roots([1])
        values = search.values
        assert values[1] == values[2] == values[3] == TRUE_V
        assert search.trail == [1, 2, 3]

    def test_clause_conflict_at_the_roots(self):
        search = driver(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert not search.assert_roots([1])
        assert search.root_conflict

    def test_clause_conflict_under_a_decision_is_learnt(self):
        search = driver(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert search.assert_roots([])
        assert search.decide(1) is None
        assert search.trail == []          # unwound
        assert search.learnts == [(-1,)]   # the decision's negation
        assert search.conflicts == 1

    def test_xor_propagates_last_variable(self):
        search = driver(3, [], xors=[((1, 2, 3), True)])
        assert search.assert_roots([1, 2])
        assert search.values[3] == TRUE_V  # 1 xor 1 xor v3 = 1 -> v3 = 1

    def test_xor_conflict(self):
        search = driver(2, [], xors=[((1, 2), False)])
        assert not search.assert_roots([1, -2])

    def test_assign_contradiction(self):
        assert not driver(1, []).assert_roots([1, -1])
        search = driver(1, [])
        assert search.assert_roots([1])
        assert search.decide(1) is not None  # re-assert is fine
        assert search.decide(-1) is None


class TestResiduals:
    def test_satisfied_clause_is_inactive(self):
        search = driver(2, [[1, 2]])
        assert search.decide(1) is not None
        assert search.residual(0) is None

    def test_clause_residual_drops_false_literals(self):
        search = driver(3, [[1, 2, 3]])
        assert search.decide(-2) is not None
        assert search.residual(0) == ("c", (1, 3))

    def test_xor_residual_folds_parity(self):
        search = driver(3, [], xors=[((1, 2, 3), True)])
        mark = search.decide(1)
        assert search.residual(0) == ("x", (2, 3), False)
        search.unwind(mark)
        assert search.decide(-1) is not None
        assert search.residual(0) == ("x", (2, 3), True)


class TestSplit:
    def test_disjoint_clauses_are_separate_components(self):
        components, free = driver(4, [[1, 2], [3, 4]]).split(range(1, 5))
        assert [c.variables for c in components] == [(1, 2), (3, 4)]
        assert [c.constraints for c in components] == [(0,), (1,)]
        assert free == []

    def test_shared_variable_joins_components(self):
        components, _ = driver(3, [[1, 2], [2, 3]]).split(range(1, 4))
        assert len(components) == 1
        assert components[0].variables == (1, 2, 3)

    def test_assignment_splits_a_component(self):
        # deciding the bridge variable 2 satisfies clause 0 and
        # reduces clause 1; components then split on what remains.
        search = driver(4, [[1, 2], [-2, 3, 4]])
        assert search.decide(2) is not None
        components, free = search.split(range(1, 5))
        assert [c.variables for c in components] == [(3, 4)]
        assert free == [1]

    def test_unconstrained_scope_variables_are_free(self):
        components, free = driver(5, [[1, 2]]).split(range(1, 6))
        assert [c.variables for c in components] == [(1, 2)]
        assert free == [3, 4, 5]

    def test_xor_rows_link_components(self):
        search = driver(4, [[1, 2]], xors=[((2, 3, 4), True)])
        components, _ = search.split(range(1, 5))
        assert len(components) == 1
        assert components[0].variables == (1, 2, 3, 4)
        assert components[0].constraints == (0, 1)
