package core

import (
	"encoding/binary"
	"fmt"
)

// Sample is one observation of the variables the adaptation mechanism
// monitors (paper Section 3.2.2): the lengths of the ready and backup
// queues and the depth of the application-level buffer of pending
// client requests, extended with the wire-telemetry variables the
// bandwidth-adaptation plane watches. Mirror sites attach an encoded
// Sample to their CHKPT_REP control events so adaptation decisions at
// the central site see the whole cluster without extra traffic.
type Sample struct {
	Ready   int
	Backup  int
	Pending int
	// WireBytes is the EWMA of wire payload bytes the fan-out ships
	// per checkpoint round on its busiest link (central site only;
	// 0 at mirrors). It is the bandwidth-pressure monitored variable.
	WireBytes int
	// Outbox is the deepest per-link outbox high-water mark in the
	// current telemetry window (central site only; 0 at mirrors).
	Outbox int
	// ApplyLag is the site's smoothed mirror-apply lag in microseconds
	// (central ingress to replica EDE emission; mirror sites only).
	ApplyLag int
}

// Max returns the component-wise maximum of s and o — the aggregation
// the central decision-maker applies across sites.
func (s Sample) Max(o Sample) Sample {
	if o.Ready > s.Ready {
		s.Ready = o.Ready
	}
	if o.Backup > s.Backup {
		s.Backup = o.Backup
	}
	if o.Pending > s.Pending {
		s.Pending = o.Pending
	}
	if o.WireBytes > s.WireBytes {
		s.WireBytes = o.WireBytes
	}
	if o.Outbox > s.Outbox {
		s.Outbox = o.Outbox
	}
	if o.ApplyLag > s.ApplyLag {
		s.ApplyLag = o.ApplyLag
	}
	return s
}

// sampleWire is the encoded size of a Sample: six little-endian
// uint32 variables.
const sampleWire = 24

// EncodeSample serializes s for piggybacking on control events.
func EncodeSample(s Sample) []byte {
	b := make([]byte, sampleWire)
	binary.LittleEndian.PutUint32(b[0:], uint32(s.Ready))
	binary.LittleEndian.PutUint32(b[4:], uint32(s.Backup))
	binary.LittleEndian.PutUint32(b[8:], uint32(s.Pending))
	binary.LittleEndian.PutUint32(b[12:], uint32(s.WireBytes))
	binary.LittleEndian.PutUint32(b[16:], uint32(s.Outbox))
	binary.LittleEndian.PutUint32(b[20:], uint32(s.ApplyLag))
	return b
}

// DecodeSample parses a Sample encoded by EncodeSample; any other
// length is rejected.
func DecodeSample(b []byte) (Sample, error) {
	if len(b) != sampleWire {
		return Sample{}, fmt.Errorf("core: sample is %d bytes, want %d", len(b), sampleWire)
	}
	return Sample{
		Ready:     int(binary.LittleEndian.Uint32(b[0:])),
		Backup:    int(binary.LittleEndian.Uint32(b[4:])),
		Pending:   int(binary.LittleEndian.Uint32(b[8:])),
		WireBytes: int(binary.LittleEndian.Uint32(b[12:])),
		Outbox:    int(binary.LittleEndian.Uint32(b[16:])),
		ApplyLag:  int(binary.LittleEndian.Uint32(b[20:])),
	}, nil
}
