package netsim

import (
	"testing"
	"testing/quick"
)

func TestFrameWireLenPadding(t *testing.T) {
	f := &Frame{Type: EtherIPv4, Packet: &Packet{Proto: ProtoUDP, PayloadLen: 0}}
	// 28-byte L3 payload < 46 minimum, so padded.
	if got := f.WireLen(); got != EthMinPayload+EthOverhead {
		t.Fatalf("WireLen = %d, want %d", got, EthMinPayload+EthOverhead)
	}
	f.Packet.PayloadLen = 1400
	if got := f.WireLen(); got != 1400+IPv4HeaderLen+UDPHeaderLen+EthOverhead {
		t.Fatalf("WireLen = %d", got)
	}
}

func TestFrameCloneIndependence(t *testing.T) {
	p := &Packet{Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2), Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
	f := &Frame{Dst: MAC{1}, Src: MAC{2}, Type: EtherIPv4, Packet: p}
	c := f.Clone()
	c.Packet.Dst = IP(99, 99, 99, 99)
	c.Dst = MAC{9}
	if f.Packet.Dst != IP(10, 0, 0, 2) || f.Dst != (MAC{1}) {
		t.Fatal("Clone aliases the original headers")
	}
}

func TestPacketTotalLen(t *testing.T) {
	udp := &Packet{Proto: ProtoUDP, PayloadLen: 100}
	if udp.TotalLen() != 128 {
		t.Fatalf("udp TotalLen = %d, want 128", udp.TotalLen())
	}
	tcp := &Packet{Proto: ProtoTCP, PayloadLen: 100}
	if tcp.TotalLen() != 140 {
		t.Fatalf("tcp TotalLen = %d, want 140", tcp.TotalLen())
	}
}

func TestFlowTupleReverseInvolution(t *testing.T) {
	tu := FlowTuple{Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	if tu.Reverse().Reverse() != tu {
		t.Fatal("Reverse must be an involution")
	}
	r := tu.Reverse()
	if r.Src != tu.Dst || r.SrcPort != tu.DstPort {
		t.Fatal("Reverse did not swap endpoints")
	}
}

func TestARPFrameMarshalRoundTrip(t *testing.T) {
	f := &Frame{
		Dst: BroadcastMAC, Src: MAC{0x52, 0x54, 0, 0, 0, 1}, Type: EtherARP,
		ARP: &ARPPayload{Op: ARPRequest, SenderMAC: MAC{1, 2, 3, 4, 5, 6}, SenderIP: IP(10, 0, 0, 1), TargetIP: IP(10, 0, 0, 2)},
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Frame
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || *g.ARP != *f.ARP {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestFrameMarshalErrors(t *testing.T) {
	if _, err := (&Frame{Type: EtherARP}).MarshalBinary(); err == nil {
		t.Error("ARP frame without payload must fail")
	}
	if _, err := (&Frame{Type: EtherIPv4}).MarshalBinary(); err == nil {
		t.Error("IPv4 frame without packet must fail")
	}
	if _, err := (&Frame{Type: 0x1234}).MarshalBinary(); err == nil {
		t.Error("unknown ethertype must fail")
	}
	var g Frame
	if err := g.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer must fail")
	}
}

// Property: IPv4 frames round-trip through MarshalBinary/UnmarshalBinary.
func TestIPv4FrameRoundTripProperty(t *testing.T) {
	prop := func(dst, src [6]byte, sip, dip [4]byte, sp, dp uint16, ttl uint8, plen uint16, kind uint8, seq, ack, cid uint64) bool {
		f := &Frame{
			Dst: MAC(dst), Src: MAC(src), Type: EtherIPv4,
			Packet: &Packet{
				Src: IPv4(sip), Dst: IPv4(dip), Proto: ProtoTCP,
				SrcPort: sp, DstPort: dp, TTL: ttl, PayloadLen: int(plen),
				Seg: Seg{Kind: SegKind(kind % 4), Seq: seq, AckSeq: ack, ConnID: cid},
			},
		}
		data, err := f.MarshalBinary()
		if err != nil {
			return false
		}
		var g Frame
		if err := g.UnmarshalBinary(data); err != nil {
			return false
		}
		return g.Dst == f.Dst && g.Src == f.Src && g.Type == f.Type &&
			g.Packet.Src == f.Packet.Src && g.Packet.Dst == f.Packet.Dst &&
			g.Packet.SrcPort == f.Packet.SrcPort && g.Packet.DstPort == f.Packet.DstPort &&
			g.Packet.TTL == f.Packet.TTL && g.Packet.PayloadLen == f.Packet.PayloadLen &&
			g.Packet.Seg == f.Packet.Seg
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStageCost(t *testing.T) {
	c := StageCost{PerPacket: 1000, PerByteNs: 0.5}
	if c.For(0) != 1000 {
		t.Fatalf("For(0) = %v", c.For(0))
	}
	if c.For(2000) != 2000 {
		t.Fatalf("For(2000) = %v", c.For(2000))
	}
	if c.For(-5) != 1000 {
		t.Fatalf("negative size must clamp: %v", c.For(-5))
	}
	s := c.Scale(2)
	if s.PerPacket != 2000 || s.PerByteNs != 1.0 {
		t.Fatalf("Scale wrong: %+v", s)
	}
}

// TestFrameCloneCopiesSegMeta: each packet owns its stream segment
// metadata, so a clone (a duplicated or reflected segment) keeps its
// messages after the original's metadata is recycled and reused.
func TestFrameCloneCopiesSegMeta(t *testing.T) {
	_, n := newWorld()
	m := n.getSegMeta()
	m.completes = append(m.completes, message{size: 10, app: "req"})
	f := &Frame{Type: EtherIPv4, Packet: &Packet{Proto: ProtoTCP, App: m}}
	c := f.Clone()
	n.putSegMeta(m)
	reused := n.getSegMeta()
	reused.completes = append(reused.completes, message{size: 99})
	got := c.Packet.App.(*segMeta).completes
	if len(got) != 1 || got[0].size != 10 || got[0].app != "req" {
		t.Fatalf("clone's messages = %+v after the original was recycled, want one 10-byte \"req\"", got)
	}
}
