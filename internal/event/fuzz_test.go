package event

import (
	"bytes"
	"testing"

	"adaptmirror/internal/vclock"
)

// FuzzUnmarshal hardens the wire decoder against malformed frames:
// it must never panic and never over-read, and any event it accepts
// must re-encode to bytes it accepts again.
func FuzzUnmarshal(f *testing.F) {
	f.Add(sampleEvent().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	e := NewPosition(7, 9, 1.5, -2.5, 30000, 300)
	e.VT = vclock.VC{4, 5, 6}
	f.Add(e.Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		ev, n, err := Unmarshal(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := ev.Marshal()
		ev2, _, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of accepted event failed: %v", err)
		}
		if !eventsEqual(ev, ev2) {
			t.Fatalf("re-decode mismatch: %s vs %s", ev, ev2)
		}
	})
}

// FuzzCodecCorrupt models a corrupting link rather than a random byte
// source: it starts from a stream of well-formed frames (or a
// fuzzer-supplied stream), flips one byte and truncates, then runs
// both decoders over the damage. Neither may panic or over-read, any
// frame still accepted must round-trip exactly, and a frame whose
// length prefix survived but whose body was damaged must come out as
// either a clean decode or a clean error — never a half-initialized
// event.
func FuzzCodecCorrupt(f *testing.F) {
	valid := validStream()
	f.Add([]byte(nil), uint32(0), byte(0), uint32(0))
	f.Add([]byte(nil), uint32(3), byte(0x80), uint32(0))
	f.Add([]byte(nil), uint32(40), byte(0xFF), uint32(17))
	f.Add(valid, uint32(7), byte(1), uint32(0))
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4}, uint32(0), byte(0), uint32(2))

	f.Fuzz(func(t *testing.T, stream []byte, pos uint32, mask byte, cut uint32) {
		if len(stream) == 0 {
			stream = validStream()
		}
		data := append([]byte(nil), stream...)
		data[int(pos)%len(data)] ^= mask
		if cut > 0 {
			data = data[:len(data)-int(cut)%len(data)]
		}

		// Contiguous decode path (batch buffers).
		rest := data
		for len(rest) > 0 {
			ev, n, err := Unmarshal(rest)
			if err != nil {
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("consumed %d of %d bytes", n, len(rest))
			}
			roundTrip(t, ev)
			rest = rest[n:]
		}

		// Framed stream path (TCP links).
		r := NewReader(bytes.NewReader(data))
		for i := 0; i <= len(data); i++ {
			ev, err := r.ReadEvent()
			if err != nil {
				break
			}
			roundTrip(t, ev)
		}
	})
}

// validStream frames a representative event mix the mirroring links
// actually carry: positions, a status change, and checkpoint control
// traffic with VT and payload.
func validStream() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pos := NewPosition(7, 9, 1.5, -2.5, 30000, 64)
	pos.VT = vclock.VC{41, 7}
	st := NewStatus(3, 10, StatusLanded, 48)
	st.VT = vclock.VC{42, 7}
	chk := NewControl(TypeChkpt, vclock.VC{42, 7})
	chk.Seq = 5
	rep := NewControl(TypeChkptReply, vclock.VC{40, 6})
	rep.Seq = 5
	rep.Stream = 1
	rep.Payload = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, e := range []*Event{pos, st, chk, rep} {
		w.WriteEvent(e)
	}
	w.Flush()
	return buf.Bytes()
}

// roundTrip asserts an accepted event re-encodes to bytes that decode
// back to the same event.
func roundTrip(t *testing.T, ev *Event) {
	t.Helper()
	re := ev.Marshal()
	ev2, n, err := Unmarshal(re)
	if err != nil {
		t.Fatalf("re-decode of accepted event failed: %v", err)
	}
	if n != len(re) {
		t.Fatalf("re-decode consumed %d of %d bytes", n, len(re))
	}
	if !eventsEqual(ev, ev2) {
		t.Fatalf("re-decode mismatch: %s vs %s", ev, ev2)
	}
}

// FuzzReader hardens the stream unframer: arbitrary byte streams must
// produce clean errors, never panics, and decoded events must
// round-trip.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteEvent(sampleEvent())
	w.WriteEvent(NewPosition(1, 2, 3, 4, 5, 64))
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			ev, err := r.ReadEvent()
			if err != nil {
				return
			}
			if _, _, err := Unmarshal(ev.Marshal()); err != nil {
				t.Fatalf("accepted event does not round-trip: %v", err)
			}
		}
	})
}
