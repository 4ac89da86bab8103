"""Unit tests for the network layer (network_p / buffer_p / make-ready)."""

from __future__ import annotations

import pytest

from repro.sysmodel.network import BadPeriodNetwork, Envelope, Network
from repro.sysmodel.params import SynchronyParams
from repro.sysmodel.periods import GoodPeriodKind, PeriodSchedule


def make_network(n=3, schedule=None, **kwargs) -> Network:
    params = SynchronyParams(phi=1.0, delta=2.0)
    if schedule is None:
        schedule = PeriodSchedule.always_good(n)
    return Network(n=n, params=params, schedule=schedule, **kwargs)


class TestBadPeriodNetwork:
    def test_validation(self):
        with pytest.raises(ValueError):
            BadPeriodNetwork(loss_probability=1.5)
        with pytest.raises(ValueError):
            BadPeriodNetwork(min_delay=5.0, max_delay=1.0)

    def test_certain_loss_and_certain_delivery(self):
        import random

        rng = random.Random(0)
        assert BadPeriodNetwork(loss_probability=1.0).sample_delay(rng) is None
        delay = BadPeriodNetwork(loss_probability=0.0, min_delay=1.0, max_delay=2.0).sample_delay(rng)
        assert 1.0 <= delay <= 2.0


class TestSendAndMakeReady:
    def test_send_puts_message_in_every_receiver_network_set(self):
        network = make_network()
        envelopes = network.send(0, [0, 1, 2], "hello", time=1.0)
        assert len(envelopes) == 3
        for p in range(3):
            assert len(network.network[p]) == 1
            assert network.buffer[p] == []
        assert network.messages_sent == 3

    def test_plan_delivery_in_good_period_respects_delta(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) == pytest.approx(5.0 + 2.0)

    def test_plan_delivery_scaled_by_good_delay_factor(self):
        network = make_network(good_delay_factor=0.5)
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) == pytest.approx(5.0 + 1.0)

    def test_plan_delivery_in_bad_period_can_drop(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=100.0, length=10.0, kind=GoodPeriodKind.PI_GOOD
        )
        network = make_network(
            schedule=schedule, bad_behavior=BadPeriodNetwork(loss_probability=1.0)
        )
        envelope = network.send(0, [1], "m", time=5.0)[0]
        assert network.plan_delivery(envelope) is None
        assert network.messages_dropped == 1

    def test_plan_delivery_outside_pi0_uses_bad_behavior(self):
        schedule = PeriodSchedule.always_good(
            3, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=[0, 1]
        )
        network = make_network(
            schedule=schedule, bad_behavior=BadPeriodNetwork(loss_probability=1.0)
        )
        # Sender 2 is outside pi0: its message gets the bad-period treatment.
        envelope = network.send(2, [0], "m", time=1.0)[0]
        assert network.plan_delivery(envelope) is None
        # Between pi0 members the delta bound applies.
        envelope2 = network.send(0, [1], "m", time=1.0)[0]
        assert network.plan_delivery(envelope2) == pytest.approx(3.0)

    def test_make_ready_moves_message_to_buffer(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        assert network.make_ready(envelope)
        assert network.network[1] == []
        assert network.buffer[1] == [envelope]
        assert network.messages_made_ready == 1

    def test_make_ready_after_purge_is_a_noop(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        network.purge_process_state(1)
        assert not network.make_ready(envelope)
        assert network.buffer[1] == []

    def test_take_from_buffer(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        network.make_ready(envelope)
        network.take_from_buffer(1, envelope)
        assert network.buffer[1] == []


class TestPurges:
    def test_purge_messages_from_senders(self):
        network = make_network()
        network.send(0, [1, 2], "from-0", time=0.0)
        kept = network.send(1, [2], "from-1", time=0.0)[0]
        network.make_ready(kept)
        purged = network.purge_messages_from([0])
        assert purged == 2
        assert network.network[1] == []
        assert network.buffer[2] == [kept]

    def test_purge_process_state_clears_both_sets(self):
        network = make_network()
        first, second = network.send(0, [1, 1], "m", time=0.0)
        network.make_ready(first)
        network.purge_process_state(1)
        assert network.network[1] == []
        assert network.buffer[1] == []

    def test_good_delay_factor_validation(self):
        with pytest.raises(ValueError):
            make_network(good_delay_factor=0.0)
        with pytest.raises(ValueError):
            make_network(good_delay_factor=1.5)


class TestEnvelopeIdentity:
    """Envelopes compare by identity: only the envelope passed in moves."""

    def _twins(self):
        first = Envelope(sender=0, receiver=1, payload="m", send_time=0.0, sequence=7)
        second = Envelope(sender=0, receiver=1, payload="m", send_time=0.0, sequence=7)
        return first, second

    def test_equal_fields_are_distinct(self):
        first, second = self._twins()
        assert first != second
        assert first == first

    def test_make_ready_moves_only_the_passed_envelope(self):
        network = make_network()
        first, second = self._twins()
        network.network[1].extend([first, second])
        assert network.make_ready(second)
        assert len(network.network[1]) == 1 and network.network[1][0] is first
        assert len(network.buffer[1]) == 1 and network.buffer[1][0] is second

    def test_take_from_buffer_removes_only_the_passed_envelope(self):
        network = make_network()
        first, second = self._twins()
        network.buffer[1].extend([first, second])
        network.take_from_buffer(1, second)
        assert len(network.buffer[1]) == 1 and network.buffer[1][0] is first

    def test_make_ready_of_sender_purged_envelope_never_reaches_buffer(self):
        network = make_network()
        envelope = network.send(0, [1], "m", time=0.0)[0]
        network.purge_messages_from([0])
        assert not network.make_ready(envelope)
        assert network.buffer[1] == []
        assert network.messages_made_ready == 0


class TestPlanDeliveryPeriod:
    def test_passed_period_matches_the_lookup(self):
        schedule = PeriodSchedule.single_good_period(
            3, start=10.0, length=5.0, kind=GoodPeriodKind.PI0_ARBITRARY, pi0=[0, 1]
        )
        looked_up = make_network(schedule=schedule, seed=4)
        passed = make_network(schedule=schedule, seed=4)
        for time in (0.0, 10.0, 12.0, 15.0):
            for receiver in range(3):
                envelope = looked_up.send(0, [receiver], "m", time=time)[0]
                twin = passed.send(0, [receiver], "m", time=time)[0]
                period = schedule.period_at(time)
                assert looked_up.plan_delivery(envelope) == passed.plan_delivery(twin, period)
