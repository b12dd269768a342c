"""White-box tests for SACK generation, delayed ACKs and recovery
mechanics — the machinery the §3-§5 reproductions stand on."""

import pytest

from repro.core.uncoupled import RenoController
from repro.net.packet import AckPacket, DataPacket
from repro.sim.simulation import Simulation
from repro.tcp.receiver import MAX_SACK_BLOCKS, TcpReceiver
from repro.tcp.sender import TcpSender

from conftest import lossy_route


class AckTrap:
    """Stands in for a sender endpoint: records ACKs instead of reacting."""

    def __init__(self):
        self.acks = []

    def receive(self, ack):
        self.acks.append(ack)


def make_receiver(sim, **kwargs):
    receiver = TcpReceiver(sim, name="rx", **kwargs)
    trap = AckTrap()
    receiver.attach((trap,))
    return receiver, trap


def feed(receiver, seq, flow=None, retransmit=False):
    packet = DataPacket((receiver,), flow=flow, seq=seq, timestamp=0.0,
                        is_retransmit=retransmit)
    receiver.receive(packet)


class TestReceiverSack:
    def test_in_order_data_has_no_sack_blocks(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        for seq in range(3):
            feed(receiver, seq)
        assert all(a.sack_blocks == () for a in trap.acks)

    def test_hole_generates_sack_block(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        feed(receiver, 0)
        feed(receiver, 2)
        assert trap.acks[-1].ack_seq == 1
        assert trap.acks[-1].sack_blocks == ((2, 3),)

    def test_most_recent_block_first(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        feed(receiver, 0)
        feed(receiver, 5)
        feed(receiver, 2)
        assert trap.acks[-1].sack_blocks[0] == (2, 3)

    def test_at_most_max_blocks(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        for seq in (2, 4, 6, 8, 10, 12):
            feed(receiver, seq)
        assert len(trap.acks[-1].sack_blocks) <= MAX_SACK_BLOCKS

    def test_rotation_eventually_advertises_all_ranges(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        holes = (2, 4, 6, 8, 10, 12)
        for seq in holes:
            feed(receiver, seq)
        advertised = set()
        for _ in range(8):
            feed(receiver, 2)  # duplicates trigger fresh ACKs
            advertised.update(trap.acks[-1].sack_blocks)
        for seq in holes:
            assert (seq, seq + 1) in advertised

    def test_blocks_cleared_when_holes_fill(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        feed(receiver, 1)
        feed(receiver, 0)
        assert trap.acks[-1].ack_seq == 2
        assert trap.acks[-1].sack_blocks == ()

    def test_sack_disabled(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1, enable_sack=False)
        feed(receiver, 0)
        feed(receiver, 2)
        assert trap.acks[-1].sack_blocks == ()


class TestDelayedAcks:
    def test_acks_every_second_segment(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2)
        for seq in range(4):
            feed(receiver, seq)
        assert len(trap.acks) == 2
        assert [a.ack_seq for a in trap.acks] == [2, 4]

    def test_lone_segment_acked_after_timeout(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2, delack_timeout=0.04)
        feed(receiver, 0)
        assert trap.acks == []
        sim.run_until(0.1)
        assert [a.ack_seq for a in trap.acks] == [1]

    def test_out_of_order_acked_immediately(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2)
        feed(receiver, 0)          # held (delayed)
        feed(receiver, 3)          # hole -> immediate ACK
        assert len(trap.acks) == 1
        assert trap.acks[-1].ack_seq == 1

    def test_duplicate_acked_immediately(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2)
        feed(receiver, 0)
        feed(receiver, 0)
        assert len(trap.acks) == 1

    def test_delack_timer_not_left_running(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2, delack_timeout=0.04)
        feed(receiver, 0)
        feed(receiver, 1)          # second segment flushes; timer cancelled
        count = len(trap.acks)
        sim.run_until(1.0)
        assert len(trap.acks) == count


class TestWindowUpdate:
    """A pure window update advertises ``ack_extension`` afresh without a
    data arrival (repro.mptcp: an application read reopened the window)."""

    def test_repeats_the_last_ack_marked(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=1)
        window = [(7, 0)]
        receiver.ack_extension = lambda: window[-1]
        feed(receiver, 0)
        window.append((7, 4))
        receiver.send_window_update()
        first, update = trap.acks
        assert not first.window_update and update.window_update
        assert (update.ack_seq, update.echo_timestamp) \
            == (first.ack_seq, first.echo_timestamp)
        assert (first.rwnd, update.rwnd) == (0, 4)

    def test_releases_a_pending_delayed_ack_instead(self, sim):
        receiver, trap = make_receiver(sim, delayed_ack=2)
        feed(receiver, 0)              # held (delayed)
        receiver.send_window_update()
        assert [(a.ack_seq, a.window_update) for a in trap.acks] \
            == [(1, False)]
        sim.run_until(1.0)             # and the timer finds nothing left
        assert len(trap.acks) == 1

    def test_nothing_to_repeat_before_the_first_ack(self, sim):
        receiver, trap = make_receiver(sim)
        receiver.send_window_update()
        assert trap.acks == []

    def test_sender_takes_it_for_neither_dupack_nor_rtt_sample(self, sim):
        sender = TcpSender(sim, RenoController(), name="tx")
        sender.attach(lossy_route(sim, 0.0), TcpReceiver(sim, name="rx"))
        seen = []
        sender.on_ack_extension = lambda data_ack, rwnd: seen.append(rwnd)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 5
        for rwnd in (1, 2, 3):
            sender.receive(AckPacket(
                (sender,), flow=sender, ack_seq=0, echo_timestamp=0.0,
                rwnd=rwnd, window_update=True))
        assert seen == [1, 2, 3]
        assert sender.dup_acks == 0 and sender.loss_events == 0
        # Not even when it is the first to report a cumulative advance
        # (the ACK it repeats was lost): its echo is stale.
        sender.receive(AckPacket(
            (sender,), flow=sender, ack_seq=2, echo_timestamp=0.0,
            window_update=True))
        assert sender.rtt.srtt is None and sender.last_acked == 0


class TestSenderRecoveryInternals:
    def _sender(self, sim, **kwargs):
        sender = TcpSender(sim, RenoController(), name="tx", **kwargs)
        route = lossy_route(sim, 0.0)
        receiver = TcpReceiver(sim, name="rx")
        sender.attach(route, receiver)
        return sender, receiver

    def test_scoreboard_updates_from_sack_blocks(self, sim):
        sender, _ = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 10
        ack = AckPacket((sender,), flow=sender, ack_seq=0, echo_timestamp=0.0,
                        sack_blocks=((4, 6), (8, 9)))
        sender.receive(ack)
        sb = sender._sb
        assert sb.is_sacked(4) and sb.is_sacked(5) and sb.is_sacked(8)
        assert not sb.is_sacked(6)

    def test_loss_detection_marks_holes_below_three_sacked(self, sim):
        sender, _ = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 12
        sender.ssthresh = 1.0  # avoid slow start interfering
        # Three dup ACKs with growing SACK info trigger recovery, then
        # loss detection marks holes with >= 3 SACKed packets above.
        for blocks in (((5, 6),), ((5, 7),), ((5, 8),)):
            sender.receive(AckPacket((sender,), flow=sender, ack_seq=0,
                                     echo_timestamp=0.0, sack_blocks=blocks))
        assert sender.in_recovery
        # seqs 1..4 have sacked 5,6,7 above; seq 0 was fast-retransmitted.
        assert {1, 2, 3, 4}.issubset(sender._sb.lost_set() | sender._sb.rtx_set())

    def test_rto_collapses_window_and_rewinds(self, sim):
        sender, _ = self._sender(sim)
        sender.running = True
        sender.cwnd = 16.0
        sender.highest_sent = sender.max_seq_sent = 20
        sender.last_acked = 4
        sender._on_timeout()
        assert sender.cwnd == sender.min_cwnd
        assert sender.ssthresh == pytest.approx(8.0)
        assert sender.timeouts == 1
        # go-back-N rewound the cursor and resent from last_acked
        assert sender.highest_sent > 4

    def test_go_back_n_skips_sacked_sequences(self, sim):
        # min_cwnd=4 so the post-timeout window admits several resends.
        sender, _ = self._sender(sim, min_cwnd=4.0)
        sender.running = True
        sender.cwnd = 4.0
        sender.highest_sent = sender.max_seq_sent = 10
        sender.last_acked = 0
        sender._sb.mark_sacked(1, 3)   # receiver already holds 1 and 2
        sent_before = sender.packets_sent
        sender._on_timeout()
        # seq 0 and 3 transmitted; 1-2 skipped without transmission
        assert sender.packets_sent - sent_before <= 3
        assert sender.highest_sent >= 4

    def test_backoff_doubles_rto_between_timeouts(self, sim):
        sender, _ = self._sender(sim)
        sender.running = True
        sender.rtt.sample(0.1)
        first = sender.rtt.rto
        sender.highest_sent = sender.max_seq_sent = 5
        sender._on_timeout()
        assert sender.rtt.rto == pytest.approx(2 * first)

    def test_effective_window_inflates_only_without_sack(self, sim):
        sender, _ = self._sender(sim, enable_sack=False)
        sender.cwnd = 10.0
        sender.in_recovery = True
        sender.dup_acks = 5
        assert sender.effective_window() == 15
        sender.enable_sack = True
        assert sender.effective_window() == 10

    def test_newreno_bugfix_prevents_double_decrease(self, sim):
        sender, _ = self._sender(sim, enable_sack=False)
        sender.running = True
        sender.ssthresh = 1.0
        sender.cwnd = 8.0
        sender.highest_sent = sender.max_seq_sent = 10
        sender.recover_seq = 20  # an earlier episode covered up to 20
        for _ in range(3):
            sender._on_dup_ack()
        assert sender.loss_events == 0  # stale dupacks ignored

    def test_dsn_mappings_released_on_ack(self, sim):
        sender, _ = self._sender(sim)
        sender._dsn_map = {0: 10, 1: 11, 2: 12}
        sender.highest_sent = sender.max_seq_sent = 3
        sender.running = True
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=2,
                                 echo_timestamp=0.0))
        assert 0 not in sender._dsn_map and 1 not in sender._dsn_map
        assert 2 in sender._dsn_map


class TestKarnRttSampling:
    """Karn's algorithm: ACKs that may acknowledge a retransmitted copy
    carry no usable RTT information and must not feed the estimator."""

    def _sender(self, sim, **kwargs):
        sender = TcpSender(sim, RenoController(), name="tx", **kwargs)
        sender.attach(lossy_route(sim, 0.0), TcpReceiver(sim, name="rx"))
        return sender

    def test_retransmit_registers_pending_ambiguity(self, sim):
        sender = self._sender(sim)
        sender._transmit(3, None, is_retransmit=True)
        assert sender._sb.is_retx(3)
        sender._transmit(4, None, is_retransmit=False)
        assert not sender._sb.is_retx(4)

    def test_ack_flagged_for_retransmit_is_not_sampled(self, sim):
        sender = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 2
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=1,
                                 echo_timestamp=0.0, for_retransmit=True))
        assert sender.rtt.srtt is None

    def test_ack_covering_retransmitted_seq_is_not_sampled(self, sim):
        sender = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 4
        sender._sb.mark_retx(0)
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=4,
                                 echo_timestamp=0.0))
        assert sender.rtt.srtt is None
        assert sender._sb.retx_set() == set()  # ambiguity consumed

    def test_rto_does_not_collapse_below_true_path_rtt(self, sim):
        """The bug this guards against: after an RTO the retransmitted
        segment's ACK echoed the *retransmission's* timestamp, yielding a
        near-zero apparent RTT that dragged SRTT (and with it the RTO)
        far below the true path RTT — guaranteeing a spurious timeout."""
        true_rtt = 0.5
        sender = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 4
        sender.rtt.back_off()            # an RTO has fired
        sender._sb.mark_retx(0)          # ...and seq 0 was resent
        sim.run_until(0.6)
        # Cumulative ACK covering the retransmit, apparent RTT of 10 ms.
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=4,
                                 echo_timestamp=0.59))
        assert sender.rtt.srtt is None           # sample suppressed
        assert sender.rtt.backoff == 2.0         # backoff still in force
        assert sender.rtt.rto >= true_rtt

    def test_unambiguous_ack_resumes_sampling(self, sim):
        sender = self._sender(sim)
        sender.running = True
        sender.highest_sent = sender.max_seq_sent = 6
        sender._sb.mark_retx(2)
        # ACK up to 2: does not cover the retransmitted seq — sampled.
        sim.run_until(0.1)
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=2,
                                 echo_timestamp=0.0))
        assert sender.rtt.srtt == pytest.approx(0.1)
        # ACK covering seq 2: suppressed (estimate unchanged).
        sim.run_until(0.2)
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=4,
                                 echo_timestamp=0.0))
        assert sender.rtt.srtt == pytest.approx(0.1)
        # Ambiguity cleared: the next ACK is sampled again (EWMA moves
        # towards the 50 ms sample).
        sim.run_until(0.3)
        sender.receive(AckPacket((sender,), flow=sender, ack_seq=6,
                                 echo_timestamp=0.25))
        assert sender.rtt.srtt == pytest.approx(0.1 + 0.125 * (0.05 - 0.1))


class CollapsingController(RenoController):
    """Models a coupled controller whose timeout hook touches the flow's
    window (it owns shared multi-subflow state)."""

    def on_timeout(self, flow):
        flow.cwnd = flow.min_cwnd


class TestTimeoutSsthreshOrdering:
    def test_ssthresh_derives_from_window_at_timeout(self, sim):
        """Regression: ssthresh was computed *after* the controller hook
        ran, so a hook that collapsed cwnd double-penalized the flow
        (ssthresh = collapsed/2 instead of old_window/2)."""
        sender = TcpSender(sim, CollapsingController(), name="tx")
        sender.cwnd = 16.0
        sender.highest_sent = sender.max_seq_sent = 20
        sender.last_acked = 4
        sender._on_timeout()
        assert sender.ssthresh == pytest.approx(8.0)
        assert sender.cwnd == sender.min_cwnd

    def test_every_registry_controller_halves_timeout_window(self):
        from repro.core.registry import ALGORITHMS, make_controller
        from repro.sim.simulation import Simulation

        for name in sorted(ALGORITHMS):
            sim = Simulation(seed=42)
            sender = TcpSender(sim, make_controller(name), name=f"tx-{name}")
            sender.cwnd = 12.0
            sender.highest_sent = sender.max_seq_sent = 15
            sender._on_timeout()
            assert sender.ssthresh == pytest.approx(6.0), name
            assert sender.cwnd == sender.min_cwnd, name
