"""BatchOneThirdRule against the scalar OneThirdRule, on hand-built heard matrices.

The backend-equivalence tests drive the kernel through oracles; these feed
``BatchOneThirdRule.step`` heard matrices directly, so each branch of the
transition -- the update gate, adopt-the-top-value, the min-heard fallback,
the > 2n/3 decision and the padded rows of the mixed-n mode -- is hit on
purpose.  After every step each real process's estimate and decision must
equal what ``OneThirdRule.transition`` computes from the same heard-of set
(senders in ascending id order, as the scalar engine delivers them).
"""

from __future__ import annotations

import pytest

from repro._optional import have_numpy
from repro.algorithms import OneThirdRule
from repro.algorithms.one_third_rule import OneThirdRuleMessage

pytestmark = pytest.mark.skipif(not have_numpy(), reason="numpy not available")


def scalar_step(round, states, heard_rows, n):
    """One scalar OneThirdRule round for processes ``0..n-1``."""
    algorithm = OneThirdRule(n)
    out = []
    for p in range(n):
        received = {
            q: OneThirdRuleMessage(x=states[q].x) for q in range(n) if heard_rows[p][q]
        }
        out.append(algorithm.transition(round, p, states[p], received))
    return out


class Harness:
    """Replicas of possibly different sizes, padded into one kernel."""

    def __init__(self, initial_values, padded=False):
        import numpy as np

        from repro.algorithms.batched import BatchOneThirdRule, encode_values

        self.np = np
        self.sizes = [len(values) for values in initial_values]
        self.n_max = max(self.sizes)
        padded_values = [
            list(values) + list(values[:1]) * (self.n_max - len(values))
            for values in initial_values
        ]
        self.kernel = BatchOneThirdRule(
            self.n_max,
            [encode_values(values) for values in padded_values],
            row_n=self.sizes if padded else None,
        )
        self.states = [
            [OneThirdRule(len(values)).initial_state(p, v) for p, v in enumerate(values)]
            for values in initial_values
        ]

    def step(self, round, heard_rows, active=None):
        """Step with per-replica ``heard_rows[r][p][q]`` lists; compare."""
        np = self.np
        replicas = len(self.sizes)
        heard = np.zeros((replicas, self.n_max, self.n_max), dtype=bool)
        for r, rows in enumerate(heard_rows):
            size = self.sizes[r]
            heard[r, :size, :size] = np.asarray(rows, dtype=bool)
        if active is None:
            active = [True] * replicas
        self.kernel.step(round, heard, np.asarray(active, dtype=bool))
        for r, size in enumerate(self.sizes):
            if active[r]:
                self.states[r] = scalar_step(round, self.states[r], heard_rows[r], size)
        self.check()

    def check(self):
        kernel = self.kernel
        for r, size in enumerate(self.sizes):
            states = self.states[r]
            assert [kernel.decode(r, int(c)) for c in kernel.x[r, :size]] == [
                s.x for s in states
            ]
            decisions, rounds = kernel.decisions_of(r)
            assert {p: v for p, v in decisions.items() if p < size} == {
                p: s.decision for p, s in enumerate(states) if s.decision is not None
            }
            assert set(rounds) == set(decisions)

    def decisions(self, r):
        return self.kernel.decisions_of(r)[0]

    def estimates(self, r):
        kernel = self.kernel
        return [kernel.decode(r, int(c)) for c in kernel.x[r, : self.sizes[r]]]


def rows_hearing(n, senders_of):
    """Heard rows where receiver p hears ``senders_of(p)``."""
    return [[q in senders_of(p) for q in range(n)] for p in range(n)]


class TestBranches:
    def test_tie_at_top_first_carrier_not_minimum(self):
        # n = 9; process 0 hears 7 senders carrying 5, 5, 1, 1, 3, 3, 9:
        # three values tie at multiplicity 2 and the first heard carrier's
        # value (5) is not the minimum (1).  The top count is too small to
        # adopt, so the min-heard branch must win.
        values = [5, 5, 1, 1, 3, 3, 9, 7, 7]
        h = Harness([values])
        h.step(1, [rows_hearing(9, lambda p: {0, 1, 2, 3, 4, 5, 6})])
        assert h.estimates(0) == [1] * 9
        assert h.decisions(0) == {}

    def test_adopt_top_over_smaller_values(self):
        # n = 6, |HO| = 5, value 8 carried four times: 5 - 4 <= 6 // 3, so
        # everyone adopts 8 although 2 is the smallest heard value.
        values = [2, 8, 8, 8, 8, 4]
        h = Harness([values])
        h.step(1, [rows_hearing(6, lambda p: {0, 1, 2, 3, 4})])
        assert h.estimates(0) == [8] * 6

    def test_min_heard_when_top_is_not_dominant(self):
        # n = 9, |HO| = 7, counts {6: 3, 4: 2, 5: 2}: 7 - 3 > 9 // 3.
        values = [6, 6, 6, 4, 4, 5, 5, 0, 0]
        h = Harness([values])
        h.step(1, [rows_hearing(9, lambda p: set(range(7)))])
        assert h.estimates(0) == [4] * 9

    def test_update_gate_at_two_thirds(self):
        # n = 6: hearing exactly 4 = 2n/3 senders leaves the state alone,
        # hearing 5 updates it.
        values = [3, 1, 1, 1, 1, 2]
        h = Harness([values])
        h.step(1, [rows_hearing(6, lambda p: {0, 1, 2, 5} if p < 3 else {1, 2, 3, 4, 5})])
        assert h.estimates(0) == [3, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("n", [6, 9])
    def test_decide_threshold(self, n):
        # Multiplicity exactly 2n/3 adopts but does not decide; one more
        # carrier decides.
        top = 2 * n // 3
        values = [7] * top + [1] * (n - top)
        h = Harness([values, values])
        h.step(1, [
            rows_hearing(n, lambda p: set(range(n))),
            rows_hearing(n, lambda p: set(range(n))),
        ])
        assert h.decisions(0) == {}
        assert h.estimates(0) == [7] * n
        h.step(2, [
            rows_hearing(n, lambda p: set(range(n))),
            rows_hearing(n, lambda p: set(range(n - 1))),
        ])
        assert h.decisions(0) == {p: 7 for p in range(n)}

    def test_above_threshold_decides_in_first_round(self):
        values = [4, 4, 4, 4, 4, 0]
        h = Harness([values])
        h.step(1, [rows_hearing(6, lambda p: set(range(6)))])
        assert h.decisions(0) == {p: 4 for p in range(6)}

    def test_inactive_replica_is_frozen(self):
        values = [4, 4, 4, 4, 4, 0]
        h = Harness([values, values])
        full = rows_hearing(6, lambda p: set(range(6)))
        h.step(1, [full, full], active=[True, False])
        assert h.decisions(1) == {}
        assert h.estimates(1) == values


class TestPaddedRows:
    def test_mixed_row_sizes(self):
        # One kernel of width 10 holding rows of 10, 6, 4 and 1 processes;
        # padded receivers hear nobody and padded senders are never heard.
        values = [
            [9, 3, 3, 3, 3, 3, 3, 3, 1, 2],
            [2, 8, 8, 8, 8, 4],
            [5, 1, 5, 5],
            [42],
        ]
        h = Harness(values, padded=True)
        h.step(1, [
            rows_hearing(10, lambda p: set(range(9))),
            rows_hearing(6, lambda p: {0, 1, 2, 3, 4}),
            rows_hearing(4, lambda p: {0, 1, 2}),
            rows_hearing(1, lambda p: {0}),
        ])
        assert h.estimates(0) == [3] * 10
        assert h.decisions(0) == {p: 3 for p in range(10)}
        assert h.estimates(1) == [8] * 6
        assert h.estimates(2) == [5] * 4
        assert h.decisions(3) == {0: 42}

    def test_padded_thresholds_use_the_row_size(self):
        # Row of 3 inside width 9: 3 of 3 heard passes the row's gate even
        # though 3 <= 2 * 9 / 3, so the row adopts its top value.
        h = Harness([[1, 1, 2], [0] * 9], padded=True)
        h.step(1, [
            rows_hearing(3, lambda p: {0, 1, 2}),
            rows_hearing(9, lambda p: set()),
        ])
        assert h.estimates(0) == [1, 1, 1]


class TestRandomisedAgainstScalar:
    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    def test_word_boundary_sizes(self, n):
        import numpy as np

        rng = np.random.default_rng(n)
        replicas = 4
        # Few distinct values make ties and dominant values common.
        values = [
            [int(v) for v in rng.integers(0, 3 + r, size=n)] for r in range(replicas)
        ]
        h = Harness(values)
        for round in range(1, 9):
            density = rng.uniform(0.55, 1.0, size=(replicas, 1, 1))
            heard = rng.random((replicas, n, n)) < density
            active = rng.random(replicas) < 0.9
            h.step(round, heard.tolist(), active=active.tolist())

    def test_mixed_sizes_across_word_boundary(self):
        import numpy as np

        rng = np.random.default_rng(7)
        sizes = [65, 64, 63, 17, 1]
        values = [[int(v) for v in rng.integers(0, 4, size=s)] for s in sizes]
        h = Harness(values, padded=True)
        for round in range(1, 7):
            heard = [(rng.random((s, s)) < 0.8).tolist() for s in sizes]
            h.step(round, heard)
