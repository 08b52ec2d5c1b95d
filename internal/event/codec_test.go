package event

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptmirror/internal/vclock"
)

func sampleEvent() *Event {
	return &Event{
		Type:      TypeDeltaStatus,
		Flight:    1234,
		Stream:    1,
		Seq:       987654321,
		Status:    StatusLanded,
		Coalesced: 3,
		VT:        vclock.VC{10, 20},
		Ingress:   1700000000000000000,
		Payload:   []byte("hello, mirror"),
	}
}

func eventsEqual(a, b *Event) bool {
	if a.Type != b.Type || a.Flight != b.Flight || a.Stream != b.Stream ||
		a.Seq != b.Seq || a.Status != b.Status || a.Coalesced != b.Coalesced ||
		a.Ingress != b.Ingress {
		return false
	}
	if a.VT.Compare(b.VT) != vclock.Equal {
		return false
	}
	return bytes.Equal(a.Payload, b.Payload)
}

func TestMarshalRoundTrip(t *testing.T) {
	e := sampleEvent()
	b := e.Marshal()
	if len(b) != e.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(b), e.EncodedSize())
	}
	got, n, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if !eventsEqual(e, got) {
		t.Fatalf("round trip mismatch:\n in: %s\nout: %s", e, got)
	}
}

func TestMarshalRoundTripEmpty(t *testing.T) {
	e := &Event{Type: TypeChkpt}
	got, _, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !eventsEqual(e, got) {
		t.Fatalf("round trip mismatch: %s vs %s", e, got)
	}
	if got.Payload != nil {
		t.Fatal("empty payload must decode as nil")
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(ty uint16, fl uint32, stream uint8, seq uint64, st uint8, co uint32, ing int64, vt []uint64, payload []byte) bool {
		if len(vt) > 256 {
			vt = vt[:256]
		}
		e := &Event{
			Type: Type(ty), Flight: FlightID(fl), Stream: stream, Seq: seq,
			Status: Status(st), Coalesced: co, Ingress: ing,
			VT: vclock.VC(vt), Payload: payload,
		}
		got, n, err := Unmarshal(e.Marshal())
		if err != nil {
			return false
		}
		if n != e.EncodedSize() {
			return false
		}
		if len(payload) == 0 {
			// nil and empty payloads are equivalent on the wire.
			return eventsEqual(&Event{Type: e.Type, Flight: e.Flight, Stream: e.Stream,
				Seq: e.Seq, Status: e.Status, Coalesced: e.Coalesced, Ingress: e.Ingress,
				VT: e.VT}, got) || eventsEqual(e, got)
		}
		return eventsEqual(e, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	e := sampleEvent()
	full := e.Marshal()
	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(full); n++ {
		if _, _, err := Unmarshal(full[:n]); err == nil {
			t.Fatalf("prefix of %d bytes unexpectedly decoded", n)
		}
	}
}

func TestUnmarshalRejectsHugePayload(t *testing.T) {
	e := &Event{Type: TypeFAAPosition}
	b := e.Marshal()
	// Corrupt the payload-length field (last 4 bytes) to a huge value.
	b[len(b)-4] = 0xFF
	b[len(b)-3] = 0xFF
	b[len(b)-2] = 0xFF
	b[len(b)-1] = 0x7F
	if _, _, err := Unmarshal(b); err == nil {
		t.Fatal("want error for oversized payload length")
	}
}

func TestUnmarshalTrailingBytesIgnored(t *testing.T) {
	e := sampleEvent()
	b := append(e.Marshal(), 1, 2, 3)
	got, n, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b)-3 {
		t.Fatalf("consumed %d, want %d", n, len(b)-3)
	}
	if !eventsEqual(e, got) {
		t.Fatal("mismatch with trailing bytes present")
	}
}

func TestUnmarshalDoesNotAliasInput(t *testing.T) {
	e := sampleEvent()
	b := e.Marshal()
	got, _, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF
	}
	if !bytes.Equal(got.Payload, e.Payload) {
		t.Fatal("decoded payload must not alias the input buffer")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := rand.New(rand.NewSource(7))
	var sent []*Event
	for i := 0; i < 100; i++ {
		e := NewPosition(FlightID(rng.Intn(50)), uint64(i), rng.Float64(), rng.Float64(), rng.Float64(), rng.Intn(2048))
		e.VT = vclock.New(2).Tick(0)
		sent = append(sent, e)
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range sent {
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !eventsEqual(want, got) {
			t.Fatalf("event %d mismatch: %s vs %s", i, want, got)
		}
	}
	if _, err := r.ReadEvent(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvent(sampleEvent()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.ReadEvent(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	b := []byte{0xFF, 0xFF, 0xFF, 0x7F}
	r := NewReader(bytes.NewReader(b))
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("want error for oversized frame header")
	}
}

func TestReaderFrameLengthMismatch(t *testing.T) {
	e := sampleEvent()
	enc := e.Marshal()
	var buf bytes.Buffer
	// Frame claims 3 extra bytes that are actually junk.
	lenPrefix := []byte{byte(len(enc) + 3), 0, 0, 0}
	buf.Write(lenPrefix)
	buf.Write(enc)
	buf.Write([]byte{9, 9, 9})
	r := NewReader(&buf)
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("want error on frame/encoding length mismatch")
	}
}

func BenchmarkMarshal(b *testing.B) {
	for _, size := range []int{64, 1024, 8192} {
		e := NewPosition(1, 1, 1, 2, 3, size)
		e.VT = vclock.VC{1, 2}
		b.Run(byteLabel(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			buf := make([]byte, 0, e.EncodedSize())
			for i := 0; i < b.N; i++ {
				buf = e.Append(buf[:0])
			}
		})
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	for _, size := range []int{64, 1024, 8192} {
		e := NewPosition(1, 1, 1, 2, 3, size)
		e.VT = vclock.VC{1, 2}
		enc := e.Marshal()
		b.Run(byteLabel(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, _, err := Unmarshal(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteLabel(n int) string { return fmt.Sprintf("%dB", n) }
