"""Tests for flit and packet construction."""

import dataclasses
import pickle

import pytest

from repro.core.flit import Flit, make_packet, reset_packet_ids


class TestMakePacket:
    def test_single_flit_packet_is_head_and_tail(self):
        (flit,) = make_packet(dest=3, size=1)
        assert flit.is_head
        assert flit.is_tail

    def test_multi_flit_packet_structure(self):
        flits = make_packet(dest=5, size=4)
        assert [f.is_head for f in flits] == [True, False, False, False]
        assert [f.is_tail for f in flits] == [False, False, False, True]
        assert [f.flit_index for f in flits] == [0, 1, 2, 3]

    def test_flits_share_packet_id(self):
        flits = make_packet(dest=0, size=3)
        assert len({f.packet_id for f in flits}) == 1

    def test_distinct_packets_get_distinct_ids(self):
        a = make_packet(dest=0, size=1)[0]
        b = make_packet(dest=0, size=1)[0]
        assert a.packet_id != b.packet_id

    def test_explicit_packet_id(self):
        flits = make_packet(dest=0, size=2, packet_id=777)
        assert all(f.packet_id == 777 for f in flits)

    def test_dest_src_and_timestamps_propagate(self):
        flits = make_packet(dest=9, size=2, src=4, created_at=123)
        for f in flits:
            assert f.dest == 9
            assert f.src == 4
            assert f.created_at == 123

    def test_measured_flag(self):
        flits = make_packet(dest=0, size=2, measured=True)
        assert all(f.measured for f in flits)

    def test_route_is_copied_per_flit(self):
        flits = make_packet(dest=0, size=2, route=[1, 2])
        flits[0].route.append(99)
        assert flits[1].route == [1, 2]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet(dest=0, size=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet(dest=0, size=-1)

    def test_reset_packet_ids(self):
        reset_packet_ids()
        first = make_packet(dest=0, size=1)[0].packet_id
        reset_packet_ids()
        again = make_packet(dest=0, size=1)[0].packet_id
        assert first == again == 0


class TestFlit:
    def test_default_out_vc_unallocated(self):
        f = Flit(packet_id=1, flit_index=0, is_head=True, is_tail=True, src=0, dest=1)
        assert f.out_vc is None

    def test_wire_form_carries_every_field(self):
        f = Flit(
            packet_id=9, flit_index=1, is_head=False, is_tail=True,
            src=2, dest=3, vc=1, out_vc=2, created_at=40, injected_at=44,
            measured=True, hops=2, route=[4, 5, 1],
        )
        wire = f.to_wire()
        assert len(wire) == len(dataclasses.fields(Flit))
        assert Flit.from_wire(wire) == f

    def test_is_slotted_and_keeps_its_dataclass_surface(self):
        (flit,) = make_packet(dest=2, size=1, route=[1, 0])
        assert not hasattr(flit, "__dict__")
        with pytest.raises(AttributeError):
            flit.stray = 1
        assert [f.name for f in dataclasses.fields(Flit)] == list(
            Flit.__slots__)
        assert flit == Flit(*flit.to_wire())
        assert pickle.loads(pickle.dumps(flit)) == flit
        assert repr(flit).startswith("Flit(packet_id=")
