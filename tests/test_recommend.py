import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skybroker.domain import QOS_METRICS, QosVector, normalize_weights
from skybroker.recommend import (
    VOTING_METHODS,
    Ballot,
    borda,
    build_ballots,
    condorcet,
    instant_runoff,
    normalized_qos,
    plurality,
    satisfaction,
    top_weight,
)

from conftest import oracle_condorcet, oracle_irv, random_election


def qos_table(*rows):
    """A cohort's {provider_id: QosVector} table; each row is (provider_id,
    delivery_time, energy, cost, execution_time)."""
    return {pid: QosVector(*metrics) for pid, *metrics in rows}


def ballot(voter, weight, ranking):
    return Ballot(voter=voter, weight=weight, ranking=tuple(ranking))


EQUAL_WEIGHTS = {m: 0.25 for m in QOS_METRICS}


class TestBuildBallots:
    def test_delivery_time_ballot_ranks_best_first(self):
        table = qos_table((1, 30, 1, 1, 1), (2, 20, 2, 2, 2), (3, 10, 3, 3, 3))
        ballots = build_ballots(table, EQUAL_WEIGHTS)
        by_voter = {b.voter: b for b in ballots}
        assert by_voter["delivery_time"].ranking == (3, 2, 1)
        assert by_voter["energy"].ranking == (1, 2, 3)

    def test_single_provider_every_ballot_trivial(self):
        ballots = build_ballots(qos_table((7, 1, 1, 1, 1)), EQUAL_WEIGHTS)
        assert all(b.ranking == (7,) for b in ballots)
        assert len(ballots) == 4

    @given(
        st.dictionaries(
            st.integers(1, 50),
            st.tuples(*[st.floats(0.0, 1e6)] * 4),
            min_size=1,
            max_size=8,
        ),
        st.tuples(*[st.floats(0.0, 10.0)] * 4).filter(any),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_empty_table_gives_four_ballots_over_one_candidate_set(self, rows, raw):
        """What the elections trust: a non-empty table and normalize_weights'
        weights give four ballots, each a permutation of the table's
        providers, with non-negative weights."""
        table = {pid: QosVector(*metrics) for pid, metrics in rows.items()}
        weights = normalize_weights(dict(zip(QOS_METRICS, raw)))
        ballots = build_ballots(table, weights)
        assert [b.voter for b in ballots] == list(QOS_METRICS)
        assert all(sorted(b.ranking) == sorted(table) for b in ballots)
        assert all(b.weight == weights[b.voter] >= 0 for b in ballots)

    @pytest.mark.parametrize("method", VOTING_METHODS)
    @given(
        st.dictionaries(
            st.integers(1, 50),
            st.tuples(*[st.floats(0.0, 1e6)] * 4),
            min_size=1,
            max_size=8,
        ),
        st.tuples(*[st.floats(0.0, 10.0)] * 4).filter(any),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_election_over_the_ballots_elects_a_provider_of_the_table(self, method, rows, raw, seed):
        """The elections trust build_ballots' ballots, which Ballot no longer
        checks: over them each method names one of the table's providers."""
        table = {pid: QosVector(*metrics) for pid, metrics in rows.items()}
        ballots = build_ballots(table, normalize_weights(dict(zip(QOS_METRICS, raw))))
        elect = {
            "plurality": lambda: plurality(ballots).winner,
            "irv": lambda: instant_runoff(ballots, seed).winner,
            "borda": lambda: borda(ballots).winner,
            "condorcet": lambda: condorcet(ballots, seed).winner,
            "topweight": lambda: top_weight(ballots),
        }
        assert elect[method]() in table

    def test_raw_value_ties_break_by_provider_id(self):
        table = qos_table((2, 1, 1, 1, 1), (1, 1, 2, 2, 2))
        ballots = build_ballots(table, EQUAL_WEIGHTS)
        assert ballots[0].ranking == (1, 2)

    def test_matches_independent_sort(self):
        rng = random.Random(5)
        for _ in range(50):
            table = qos_table(
                *[
                    (pid, rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9))
                    for pid in range(1, rng.randint(2, 7))
                ]
            )
            ballots = build_ballots(table, EQUAL_WEIGHTS)
            for b in ballots:
                expected = tuple(sorted(table, key=lambda pid: (table[pid].get(b.voter), pid)))
                assert b.ranking == expected


class TestPlurality:
    def test_unanimous_top(self):
        ballots = [ballot(m, 0.25, (1, 2)) for m in QOS_METRICS]
        result = plurality(ballots)
        assert result.winner == 1
        assert result.tallies[1] == pytest.approx(1.0)

    def test_weighted_hand_tally(self):
        ballots = [
            ballot("delivery_time", 0.5, (1, 2)),
            ballot("energy", 0.2, (2, 1)),
            ballot("cost", 0.2, (2, 1)),
            ballot("execution_time", 0.1, (1, 2)),
        ]
        result = plurality(ballots)
        assert result.winner == 1
        assert result.tallies[1] == pytest.approx(0.6)
        assert result.tallies[2] == pytest.approx(0.4)

    def test_tie_breaks_to_lower_id(self):
        ballots = [
            ballot("delivery_time", 0.25, (1, 2)),
            ballot("energy", 0.25, (1, 2)),
            ballot("cost", 0.25, (2, 1)),
            ballot("execution_time", 0.25, (2, 1)),
        ]
        assert plurality(ballots).winner == 1


class TestInstantRunoff:
    def test_majority_wins_immediately(self):
        ballots = [
            ballot("delivery_time", 0.6, (1, 2, 3)),
            ballot("energy", 0.25, (2, 1, 3)),
            ballot("cost", 0.15, (3, 1, 2)),
        ]
        result = instant_runoff(ballots, 0)
        assert result.winner == 1
        assert result.op_count == len(ballots)  # one round

    def test_transfer_flips_the_leader(self):
        # candidate 3 is eliminated first and its weight transfers to 2
        ballots = [
            ballot("delivery_time", 0.45, (1, 3, 2)),
            ballot("energy", 0.35, (2, 3, 1)),
            ballot("cost", 0.20, (3, 2, 1)),
        ]
        result = instant_runoff(ballots, 0)
        assert result.winner == 2
        assert result.op_count == 2 * len(ballots)  # two rounds

    def test_deterministic_for_fixed_seed(self):
        ballots = [
            ballot("delivery_time", 0.25, (1, 2, 3)),
            ballot("energy", 0.25, (2, 3, 1)),
            ballot("cost", 0.25, (3, 1, 2)),
            ballot("execution_time", 0.25, (1, 3, 2)),
        ]
        winners = {instant_runoff(ballots, 42).winner for _ in range(5)}
        assert len(winners) == 1


class TestIrvOracle:
    def test_brute_force_equivalence(self):
        rng = random.Random(99)
        for case in range(500):
            ballots = random_election(rng)
            seed = rng.randrange(2**32)
            assert instant_runoff(ballots, seed).winner == oracle_irv(ballots, seed)


class TestBorda:
    def test_paper_points_example(self):
        # five unweighted voters over three candidates: ranked first twice and
        # second three times earns (3*2)+(2*3)=12 points
        ballots = [
            ballot("v1", 1.0, (1, 2, 3)),
            ballot("v2", 1.0, (1, 3, 2)),
            ballot("v3", 1.0, (2, 1, 3)),
            ballot("v4", 1.0, (3, 1, 2)),
            ballot("v5", 1.0, (2, 1, 3)),
        ]
        result = borda(ballots)
        assert result.tallies[1] == pytest.approx(12.0)

    def test_single_candidate(self):
        ballots = [ballot(m, 0.25, (5,)) for m in QOS_METRICS]
        result = borda(ballots)
        assert result.winner == 5
        assert result.tallies[5] == pytest.approx(1.0)  # 1 point times total weight

    def test_matches_recomputation(self):
        rng = random.Random(7)
        for _ in range(500):
            ballots = random_election(rng, max_candidates=5)
            result = borda(ballots)
            u = len(ballots[0].ranking)
            expected = {c: 0.0 for c in ballots[0].ranking}
            for b in ballots:
                for position, candidate in enumerate(b.ranking):
                    expected[candidate] += b.weight * (u - position)
            assert result.tallies == pytest.approx(expected)
            assert result.winner == min(expected, key=lambda c: (-expected[c], c))

    def test_points_conservation(self):
        rng = random.Random(8)
        for _ in range(100):
            ballots = random_election(rng, max_candidates=5)
            u = len(ballots[0].ranking)
            total = sum(borda(ballots).tallies.values())
            expected = sum(b.weight for b in ballots) * u * (u + 1) / 2
            assert total == pytest.approx(expected)


class TestCondorcet:
    def test_unanimous_first_is_condorcet_winner(self):
        ballots = [ballot(m, 0.25, (2, 1, 3)) for m in QOS_METRICS]
        result = condorcet(ballots, 0)
        assert result.winner == 2
        assert not result.paradox

    def test_three_cycle_paradox(self):
        ballots = [
            ballot("delivery_time", 1.0, (1, 2, 3)),
            ballot("energy", 1.0, (2, 3, 1)),
            ballot("cost", 1.0, (3, 1, 2)),
        ]
        result = condorcet(ballots, 11)
        assert result.paradox
        assert result.winner in {1, 2, 3}
        assert condorcet(ballots, 11).winner == result.winner  # seeded determinism

    def test_condorcet_winner_always_returned_without_paradox(self):
        rng = random.Random(22)
        seen = 0
        for _ in range(300):
            ballots = random_election(rng, max_candidates=4)
            wins, top = oracle_condorcet(ballots)
            # a Condorcet winner beats every other candidate head to head
            if wins[top[0]] < len(wins) - 1:
                continue
            seen += 1
            result = condorcet(ballots, rng.randrange(2**32))
            assert result.winner == top[0]
            assert not result.paradox
        assert seen > 50


class TestTopWeight:
    def test_dominant_metric_selects_its_best(self):
        table = qos_table((1, 50, 1, 1, 1), (2, 10, 9, 9, 9))
        weights = normalize_weights({"delivery_time": 0.7, "energy": 0.1, "cost": 0.1, "execution_time": 0.1})
        assert top_weight(build_ballots(table, weights)) == 2

    def test_single_provider(self):
        assert top_weight(build_ballots(qos_table((3, 1, 1, 1, 1)), EQUAL_WEIGHTS)) == 3

    def test_weight_ties_follow_metric_order(self):
        # equal weights fall back to delivery_time as the deciding metric
        table = qos_table((1, 5, 9, 9, 9), (2, 9, 1, 1, 1))
        assert top_weight(build_ballots(table, EQUAL_WEIGHTS)) == 1

    def test_matches_argmin_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            table = qos_table(
                *[
                    (pid, rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9))
                    for pid in range(1, rng.randint(2, 6))
                ]
            )
            raw = {m: rng.uniform(0.05, 1) for m in QOS_METRICS}
            weights = normalize_weights(raw)
            metric = max(QOS_METRICS, key=lambda m: weights[m])
            expected = min(table, key=lambda pid: (table[pid].get(metric), pid))
            assert top_weight(build_ballots(table, weights)) == expected


class TestVotingInvariants:
    def test_unanimity_across_all_systems(self):
        rng = random.Random(17)
        for _ in range(100):
            u = rng.randint(2, 5)
            top = rng.randint(1, u)
            rest = [c for c in range(1, u + 1) if c != top]
            ballots = []
            for metric in QOS_METRICS:
                tail = rest[:]
                rng.shuffle(tail)
                ballots.append(ballot(metric, rng.randint(1, 16) / 16, [top] + tail))
            seed = rng.randrange(2**32)
            assert plurality(ballots).winner == top
            assert instant_runoff(ballots, seed).winner == top
            assert borda(ballots).winner == top
            assert condorcet(ballots, seed).winner == top

    @given(st.integers(min_value=0, max_value=2**31), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_weight_scaling_leaves_winners_unchanged(self, seed, scale):
        rng = random.Random(seed)
        ballots = random_election(rng)
        scaled = [ballot(b.voter, b.weight * scale, b.ranking) for b in ballots]
        tie_seed = rng.randrange(2**32)
        assert plurality(ballots).winner == plurality(scaled).winner
        assert instant_runoff(ballots, tie_seed).winner == instant_runoff(scaled, tie_seed).winner
        assert borda(ballots).winner == borda(scaled).winner
        assert condorcet(ballots, tie_seed).winner == condorcet(scaled, tie_seed).winner

    def test_irv_respects_first_round_majority(self):
        rng = random.Random(23)
        for _ in range(200):
            ballots = random_election(rng)
            tally = {}
            for b in ballots:
                tally[b.ranking[0]] = tally.get(b.ranking[0], 0.0) + b.weight
            total = sum(b.weight for b in ballots)
            majority = [c for c, v in tally.items() if v > total / 2]
            if majority:
                result = instant_runoff(ballots, rng.randrange(2**32))
                assert result.winner == majority[0]
                assert result.op_count == len(ballots)  # one round

    def test_condorcet_costs_more_operations(self):
        rng = random.Random(31)
        for _ in range(100):
            u = rng.randint(4, 8)
            candidates = list(range(1, u + 1))
            ballots = []
            for metric in QOS_METRICS:
                ranking = candidates[:]
                rng.shuffle(ranking)
                ballots.append(ballot(metric, rng.randint(1, 16) / 16, ranking))
            seed = rng.randrange(2**32)
            cond_ops = condorcet(ballots, seed).op_count
            assert cond_ops == len(ballots) * u * (u - 1) // 2
            assert cond_ops > plurality(ballots).op_count
            assert cond_ops > borda(ballots).op_count
            assert cond_ops > instant_runoff(ballots, seed).op_count


class TestSatisfaction:
    def test_expectation_met_scores_exactly_zero(self):
        weights = {m: 0.25 for m in QOS_METRICS}
        cohort = {
            1: QosVector(0.0, 0.0, 0.0, 0.0),
            2: QosVector(1.0, 1.0, 1.0, 1.0),
            3: QosVector(0.75, 0.75, 0.75, 0.75),  # normalizes to exactly 0.25
        }
        normalized = normalized_qos(cohort)
        assert all(v == 0.25 for v in normalized[3].values())
        assert satisfaction(normalized, weights)[3] == 0.0

    def test_best_on_every_metric_exceeds_expectation(self):
        weights = normalize_weights({"delivery_time": 0.4, "energy": 0.3, "cost": 0.2, "execution_time": 0.1})
        cohort = {
            1: QosVector(1.0, 1.0, 1.0, 1.0),
            2: QosVector(5.0, 5.0, 5.0, 5.0),
        }
        scores = satisfaction(normalized_qos(cohort), weights)
        expected = sum(w * (1 - w) for w in weights.values()) / 4
        assert scores[1] == pytest.approx(expected)
        assert scores[1] > 0

    def test_zero_spread_metric_normalizes_to_one(self):
        cohort = {1: QosVector(5, 1, 1, 1), 2: QosVector(5, 2, 2, 2)}
        normalized = normalized_qos(cohort)
        assert normalized[1]["delivery_time"] == 1.0
        assert normalized[2]["delivery_time"] == 1.0

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError):
            satisfaction(normalized_qos({}), EQUAL_WEIGHTS)

    def test_invariant_under_affine_raw_transforms(self):
        rng = random.Random(41)
        for _ in range(100):
            cohort = {
                pid: QosVector(rng.uniform(1, 9), rng.uniform(1, 9), rng.uniform(1, 9), rng.uniform(1, 9))
                for pid in range(1, 5)
            }
            weights = normalize_weights({m: rng.uniform(0.1, 1) for m in QOS_METRICS})
            base = satisfaction(normalized_qos(cohort), weights)
            a, b = rng.uniform(0.5, 3), rng.uniform(-5, 5)
            shifted = {
                pid: QosVector(
                    a * q.delivery_time + b + 10,
                    q.energy,
                    q.cost,
                    q.execution_time,
                )
                for pid, q in cohort.items()
            }
            transformed = satisfaction(normalized_qos(shifted), weights)
            for pid in cohort:
                assert transformed[pid] == pytest.approx(base[pid], abs=1e-12)
