"""Unit tests for connection-level reassembly and the shared buffer (§6)."""

import pytest

from repro.mptcp.reassembly import DataReassembler, SharedReceiveBuffer


class TestDataReassembler:
    def test_in_order_stream(self):
        r = DataReassembler()
        for dsn in range(5):
            assert r.receive(dsn)
        assert r.data_cum_ack == 5
        assert r.delivered == 5
        assert r.buffered == 0

    def test_out_of_order_held_then_released(self):
        r = DataReassembler()
        r.receive(1)
        r.receive(2)
        assert r.data_cum_ack == 0
        assert r.buffered == 2
        r.receive(0)
        assert r.data_cum_ack == 3
        assert r.buffered == 0

    def test_duplicates_detected(self):
        r = DataReassembler()
        r.receive(0)
        assert not r.receive(0)
        r.receive(2)
        assert not r.receive(2)
        assert r.duplicates == 2

    def test_delivery_callback_in_dsn_order(self):
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(dsn)
        for dsn in (3, 1, 0, 2, 4):
            r.receive(dsn)
        assert seen == [0, 1, 2, 3, 4]

    def test_listener_sees_the_stream_already_advanced(self):
        """``on_data`` is per DSN and in order even when one arrival
        releases a held run, and each call finds ``data_cum_ack`` and
        ``delivered`` already past its DSN, with the payload it held."""
        r = DataReassembler()
        seen = []
        r.on_data = lambda dsn, payload: seen.append(
            (dsn, payload, r.data_cum_ack, r.delivered))
        for dsn in (3, 1, 2):
            r.receive(dsn, f"p{dsn}")
        assert seen == []
        r.receive(0, "p0")
        assert seen == [(d, f"p{d}", d + 1, d + 1) for d in range(4)]

    def test_held_run_released_in_one_call_without_a_listener(self):
        r = DataReassembler()
        for dsn in (4, 2, 1, 6, 0, 3, 5):
            assert r.receive(dsn)
            assert r.delivered == r.data_cum_ack
        assert r.data_cum_ack == 7
        assert r.buffered == 0
        assert not r.receive(3)           # below the cumulative ACK
        r.receive(9)
        assert not r.receive(9)           # already held
        assert r.duplicates == 2 and r.delivered == 7

    def test_interleaving_two_subflow_streams(self):
        """DSNs striped across two subflows arrive interleaved; the stream
        reassembles regardless of per-subflow ordering."""
        r = DataReassembler()
        subflow1 = [0, 2, 4, 6]
        subflow2 = [1, 3, 5, 7]
        for a, b in zip(subflow1, subflow2):
            r.receive(b)
            r.receive(a)
        assert r.data_cum_ack == 8
        assert r.delivered == 8


class TestSharedReceiveBuffer:
    def test_unlimited_buffer_has_no_window(self):
        buf = SharedReceiveBuffer(capacity=None)
        assert buf.rwnd is None

    def test_window_shrinks_as_app_lags(self):
        buf = SharedReceiveBuffer(capacity=10)
        buf.on_in_order(4)
        assert buf.rwnd == 6
        buf.app_read(2)
        assert buf.rwnd == 8

    def test_window_floor_is_zero(self):
        buf = SharedReceiveBuffer(capacity=2)
        buf.on_in_order(5)  # app very slow
        assert buf.rwnd == 0

    def test_app_read_bounded_by_unread(self):
        buf = SharedReceiveBuffer(capacity=10)
        buf.on_in_order(3)
        assert buf.app_read(10) == 3
        assert buf.unread == 0

    def test_occupancy_includes_reassembly_holes(self):
        buf = SharedReceiveBuffer(capacity=10)
        r = DataReassembler()
        buf.bind(r)
        r.receive(1)
        r.receive(2)
        assert buf.occupancy == 2  # two out-of-order packets held

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SharedReceiveBuffer(capacity=0)
