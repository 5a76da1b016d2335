package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nestless/internal/sim"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulator.
const (
	EtherIPv4 EtherType = 0x0800
	EtherARP  EtherType = 0x0806
)

// Ethernet framing constants (bytes on the wire).
const (
	EthHeaderLen  = 14 // dst + src + ethertype
	EthOverhead   = 24 // header + FCS + preamble + IFG equivalent
	EthMinPayload = 46
)

// Frame is one Ethernet frame. Exactly one of Packet and ARP is set,
// matching Type.
type Frame struct {
	Dst, Src MAC
	Type     EtherType
	Packet   *Packet
	ARP      *ARPPayload

	// EnqueuedAt is stamped by measurement points (sockets) to compute
	// one-way delays; devices leave it untouched.
	EnqueuedAt sim.Time

	// Corrupted marks a frame damaged by the fault injector; the
	// receiving namespace's FCS check discards it at input.
	Corrupted bool
}

// PayloadLen returns the L3 payload length in bytes.
func (f *Frame) PayloadLen() int {
	switch {
	case f.Packet != nil:
		return f.Packet.TotalLen()
	case f.ARP != nil:
		return arpWireLen
	default:
		return 0
	}
}

// WireLen returns the number of bytes this frame occupies on a link,
// including Ethernet overhead and minimum-frame padding.
func (f *Frame) WireLen() int {
	p := f.PayloadLen()
	if p < EthMinPayload {
		p = EthMinPayload
	}
	return p + EthOverhead
}

// Clone returns a deep copy of the frame's headers. Payload bytes are
// shared (they are immutable by convention); header rewrites by NAT never
// alias between clones. A stream segment's message metadata is copied
// too, because each packet owns its segMeta until the receiver recycles
// it (see pool.go). Devices that fan a frame out to several receivers
// (bridge flooding, the Hostlo reflect) must clone.
func (f *Frame) Clone() *Frame {
	nf := *f
	if f.Packet != nil {
		p := *f.Packet
		if m, ok := p.App.(*segMeta); ok {
			p.App = &segMeta{completes: append([]message(nil), m.completes...)}
		}
		nf.Packet = &p
	}
	if f.ARP != nil {
		a := *f.ARP
		nf.ARP = &a
	}
	return &nf
}

// String formats the frame for diagnostics.
func (f *Frame) String() string {
	switch {
	case f.Packet != nil:
		return fmt.Sprintf("eth %s>%s %v", f.Src, f.Dst, f.Packet)
	case f.ARP != nil:
		return fmt.Sprintf("eth %s>%s %v", f.Src, f.Dst, f.ARP)
	default:
		return fmt.Sprintf("eth %s>%s type=%#04x", f.Src, f.Dst, uint16(f.Type))
	}
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

const arpWireLen = 28

// ARPPayload is an IPv4-over-Ethernet ARP message.
type ARPPayload struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

// String formats the ARP message for diagnostics.
func (a *ARPPayload) String() string {
	if a.Op == ARPRequest {
		return fmt.Sprintf("arp who-has %s tell %s", a.TargetIP, a.SenderIP)
	}
	return fmt.Sprintf("arp %s is-at %s", a.SenderIP, a.SenderMAC)
}

// MarshalBinary encodes the header fields of the frame (not the payload
// bytes, which the simulator carries out of band). Used for property
// tests and for on-disk traces.
func (f *Frame) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, f.Dst[:]...)
	buf = append(buf, f.Src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.Type))
	switch f.Type {
	case EtherARP:
		if f.ARP == nil {
			return nil, errors.New("netsim: ARP frame without ARP payload")
		}
		buf = binary.BigEndian.AppendUint16(buf, f.ARP.Op)
		buf = append(buf, f.ARP.SenderMAC[:]...)
		buf = append(buf, f.ARP.SenderIP[:]...)
		buf = append(buf, f.ARP.TargetMAC[:]...)
		buf = append(buf, f.ARP.TargetIP[:]...)
	case EtherIPv4:
		if f.Packet == nil {
			return nil, errors.New("netsim: IPv4 frame without packet")
		}
		pb, err := f.Packet.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = append(buf, pb...)
	default:
		return nil, fmt.Errorf("netsim: cannot marshal ethertype %#04x", uint16(f.Type))
	}
	return buf, nil
}

// UnmarshalBinary decodes a frame encoded with MarshalBinary.
func (f *Frame) UnmarshalBinary(data []byte) error {
	if len(data) < EthHeaderLen {
		return errors.New("netsim: frame too short")
	}
	copy(f.Dst[:], data[0:6])
	copy(f.Src[:], data[6:12])
	f.Type = EtherType(binary.BigEndian.Uint16(data[12:14]))
	rest := data[EthHeaderLen:]
	f.Packet, f.ARP = nil, nil
	switch f.Type {
	case EtherARP:
		if len(rest) < 2+6+4+6+4 {
			return errors.New("netsim: ARP payload too short")
		}
		a := &ARPPayload{Op: binary.BigEndian.Uint16(rest[0:2])}
		copy(a.SenderMAC[:], rest[2:8])
		copy(a.SenderIP[:], rest[8:12])
		copy(a.TargetMAC[:], rest[12:18])
		copy(a.TargetIP[:], rest[18:22])
		f.ARP = a
	case EtherIPv4:
		p := new(Packet)
		if err := p.UnmarshalBinary(rest); err != nil {
			return err
		}
		f.Packet = p
	default:
		return fmt.Errorf("netsim: cannot unmarshal ethertype %#04x", uint16(f.Type))
	}
	return nil
}
