"""Tests for packet records."""

import pytest

from repro.sim.packet import Packet, PacketKind


class TestPacket:
    def test_recovery_traffic_classification(self):
        assert Packet(PacketKind.REQUEST, 0, origin=1).is_recovery_traffic
        assert Packet(PacketKind.NACK, 0, origin=1).is_recovery_traffic
        assert Packet(PacketKind.REPAIR, 0, origin=1).is_recovery_traffic
        assert not Packet(PacketKind.DATA, 0, origin=1).is_recovery_traffic
        assert not Packet(
            PacketKind.SESSION, 0, origin=1, highest_seq=5
        ).is_recovery_traffic

    def test_non_session_needs_seq(self):
        with pytest.raises(ValueError):
            Packet(PacketKind.DATA, -1, origin=1)
        with pytest.raises(ValueError):
            Packet(PacketKind.REQUEST, -3, origin=1)

    def test_session_may_omit_seq(self):
        packet = Packet(PacketKind.SESSION, -1, origin=1, highest_seq=9)
        assert packet.highest_seq == 9

    def test_immutable(self):
        packet = Packet(PacketKind.DATA, 0, origin=1)
        with pytest.raises(AttributeError):
            packet.seq = 5  # type: ignore[misc]

    def test_defaults(self):
        packet = Packet(PacketKind.DATA, 0, origin=1)
        assert packet.req_id == -1
        assert packet.highest_seq == -1
