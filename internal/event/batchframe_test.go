package event

import (
	"bytes"
	"io"
	"testing"

	"adaptmirror/internal/vclock"
)

// bev builds one data event with distinguishable fields.
func bev(i int) *Event {
	return &Event{
		Type:      TypeFAAPosition,
		Flight:    FlightID(i + 1),
		Stream:    uint8(i % 3),
		Seq:       uint64(i * 7),
		Status:    StatusUnknown,
		Coalesced: 1,
		VT:        vclock.VC{uint64(i + 1), uint64(2 * i)},
		Ingress:   int64(1000 + i),
		Payload:   bytes.Repeat([]byte{byte(i + 1)}, 16+i),
	}
}

func sameEvent(t *testing.T, got, want *Event, i int) {
	t.Helper()
	if got.Type != want.Type || got.Flight != want.Flight || got.Stream != want.Stream ||
		got.Seq != want.Seq || got.Status != want.Status || got.Coalesced != want.Coalesced ||
		got.Ingress != want.Ingress {
		t.Fatalf("event %d: header mismatch: got %v want %v", i, got, want)
	}
	if got.VT.Compare(want.VT) != vclock.Equal || len(got.VT) != len(want.VT) {
		t.Fatalf("event %d: VT %v, want %v", i, got.VT, want.VT)
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("event %d: payload mismatch (%d vs %d bytes)", i, len(got.Payload), len(want.Payload))
	}
	if got.ReadyAt != 0 || got.ForwardAt != 0 {
		t.Fatalf("event %d: trace stamps leaked onto the wire", i)
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	src := make([]*Event, 17)
	for i := range src {
		src[i] = bev(i)
		src[i].ReadyAt = 99 // must not travel
	}
	// Break every hoistable column so the ×N paths are exercised.
	src[3].Type = TypeDeltaStatus
	src[3].Status = StatusBoarding
	src[5].Stream = 7
	src[9].Coalesced = 4
	src[11].VT = vclock.VC{1, 2, 3} // non-uniform width
	src[12].Payload = nil           // empty payload slot
	src[12].VT = nil                // nil timestamp round-trips as nil

	frame, err := AppendBatchFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBatchFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if len(b.Events) != len(src) {
		t.Fatalf("decoded %d events, want %d", len(b.Events), len(src))
	}
	for i, v := range b.Events {
		sameEvent(t, v, src[i], i)
	}
	if b.Events[12].VT != nil {
		t.Fatalf("nil VT decoded as %v", b.Events[12].VT)
	}
	if b.Events[12].Payload != nil {
		t.Fatalf("empty payload decoded as %v", b.Events[12].Payload)
	}
}

func TestBatchFrameHoistedColumns(t *testing.T) {
	uniform := make([]*Event, 8)
	for i := range uniform {
		uniform[i] = bev(0)
		uniform[i].Seq = uint64(i)
		uniform[i].Flight = FlightID(i)
	}
	hoisted, err := AppendBatchFrame(nil, uniform)
	if err != nil {
		t.Fatal(err)
	}
	varied := make([]*Event, 8)
	for i := range varied {
		varied[i] = bev(i)
		varied[i].Type = Type(uint16(i%2) + uint16(TypeFAAPosition))
		varied[i].Status = Status(i % 3)
		varied[i].Coalesced = uint32(i + 1)
	}
	full, err := AppendBatchFrame(nil, varied)
	if err != nil {
		t.Fatal(err)
	}
	if len(hoisted) >= len(full) {
		t.Fatalf("hoisted frame (%d bytes) not smaller than varied frame (%d bytes)", len(hoisted), len(full))
	}
	for _, frame := range [][]byte{hoisted, full} {
		b, err := ParseBatchFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
}

func TestBatchFrameRejectsMalformed(t *testing.T) {
	src := []*Event{bev(0), bev(1), bev(2)}
	frame, err := AppendBatchFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation of a valid frame must fail cleanly.
	for n := 0; n < len(frame); n++ {
		if b, err := ParseBatchFrame(frame[:n]); err == nil {
			b.Release()
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}

	corrupt := func(mutate func([]byte)) error {
		c := append([]byte(nil), frame...)
		mutate(c)
		b, err := ParseBatchFrame(c)
		if err == nil {
			b.Release()
		}
		return err
	}
	if err := corrupt(func(c []byte) { c[2] = 99 }); err == nil {
		t.Fatal("unknown version accepted")
	}
	if err := corrupt(func(c []byte) { c[3] |= 0x80 }); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := corrupt(func(c []byte) { c[4], c[5], c[6], c[7] = 0, 0, 0, 0 }); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := corrupt(func(c []byte) { c[4], c[5], c[6], c[7] = 0xFF, 0xFF, 0xFF, 0xFF }); err == nil {
		t.Fatal("giant count accepted")
	}
	// A decreasing offset table must be rejected: patch the last two
	// entries so offsets[N-1] > offsets[N].
	payloadLen := len(src[2].Payload)
	if err := corrupt(func(c []byte) {
		end := len(c) - BatchPayloadBytes(src)
		le := c[end-8 : end-4]
		le[0], le[1], le[2], le[3] = 0xFF, 0xFF, 0, 0
	}); err == nil {
		t.Fatalf("decreasing offset table accepted (payload len %d)", payloadLen)
	}
}

func TestReadFrameMixedGenerations(t *testing.T) {
	var wire bytes.Buffer
	w := NewWriter(&wire)
	legacy := bev(100)
	if err := w.WriteEvent(legacy); err != nil {
		t.Fatal(err)
	}
	batch := []*Event{bev(0), bev(1), bev(2), bev(3)}
	if err := w.WriteBatchFrame(batch); err != nil {
		t.Fatal(err)
	}
	legacy2 := bev(200)
	if err := w.WriteEvent(legacy2); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&wire)
	e, b, err := r.ReadFrame()
	if err != nil || e == nil || b != nil {
		t.Fatalf("first frame: e=%v b=%v err=%v, want legacy event", e, b, err)
	}
	sameEvent(t, e, legacy, 0)

	e, b, err = r.ReadFrame()
	if err != nil || e != nil || b == nil {
		t.Fatalf("second frame: e=%v b=%v err=%v, want batch", e, b, err)
	}
	if len(b.Events) != len(batch) {
		t.Fatalf("batch decoded %d events, want %d", len(b.Events), len(batch))
	}
	for i, v := range b.Events {
		sameEvent(t, v, batch[i], i)
	}
	b.Release()

	e, _, err = r.ReadFrame()
	if err != nil || e == nil {
		t.Fatalf("third frame: %v, %v", e, err)
	}
	sameEvent(t, e, legacy2, 0)

	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestShallowBatchAliasesPayloads(t *testing.T) {
	src := []*Event{bev(0), bev(1)}
	b := ShallowBatch(src)
	if len(b.Events) != 2 {
		t.Fatalf("ShallowBatch produced %d views", len(b.Events))
	}
	for i, v := range b.Events {
		if v == src[i] {
			t.Fatalf("view %d is the source pointer, want a copy", i)
		}
		if &v.Payload[0] != &src[i].Payload[0] {
			t.Fatalf("view %d payload does not alias the source", i)
		}
		if &v.VT[0] != &src[i].VT[0] {
			t.Fatalf("view %d VT does not alias the source", i)
		}
	}
	// Header mutation on the view must not touch the source.
	b.Events[0].Coalesced = 42
	if src[0].Coalesced == 42 {
		t.Fatal("view header mutation reached the source event")
	}
	b.Release()
}

func TestBatchRetainRelease(t *testing.T) {
	src := []*Event{bev(0)}
	b := ShallowBatch(src)
	b.Retain()
	b.Release()
	b.Release() // final: back to pool
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("release past zero did not panic")
			}
		}()
		b.Release()
	}()
	_, _, retained := SlabPoolStats()
	if retained == 0 {
		t.Fatal("Retain not counted")
	}
}

// TestBatchDecodeReuseSteadyStateAllocs pins the zero-allocation claim
// at the codec layer: once pools are warm, one encode→decode→release
// cycle of a full batch performs no per-event allocations.
func TestBatchDecodeReuseSteadyStateAllocs(t *testing.T) {
	const n = 64
	src := make([]*Event, n)
	for i := range src {
		src[i] = bev(i)
	}
	frame, err := AppendBatchFrame(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool.
	for i := 0; i < 4; i++ {
		b, err := ParseBatchFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		b, err := ParseBatchFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	// ParseBatchFrame itself may allocate nothing once the slab is
	// warm; allow a tiny constant slack for the pool's interface boxing
	// but nothing proportional to the batch size.
	if allocs > 2 {
		t.Fatalf("decode cycle allocates %.1f objects per run for %d events; want ≤ 2", allocs, n)
	}
}

// TestWireFrameRoundTripZeroAllocs pins the data-link wire path at the
// Writer/Reader layer: once the slab pool and the buffers are warm, one
// WriteBatchFrame → Flush → ReadFrame → Release cycle allocates
// nothing per event — only ReadFrame's 4-byte length buffer, which
// escapes through io.ReadFull once per frame whatever the batch size.
// The bound leaves room for the slab-pool misses the race detector
// injects (sync.Pool drops a share of Puts under -race), still far
// below one allocation per event at the smallest batch.
func TestWireFrameRoundTripZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		batch := make([]*Event, n)
		for i := range batch {
			batch[i] = bev(i)
		}
		var wire bytes.Buffer // drained each cycle, so it never regrows
		w := NewWriter(&wire)
		r := NewReader(&wire)
		cycle := func() {
			if err := w.WriteBatchFrame(batch); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			_, b, err := r.ReadFrame()
			if err != nil || b == nil || len(b.Events) != n {
				t.Fatalf("n=%d: decoded %v, %v", n, b, err)
			}
			b.Release()
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 4 {
			t.Fatalf("n=%d: wire round trip allocates %.0f objects per batch, want a small constant", n, allocs)
		}
	}
}

func FuzzBatchFrame(f *testing.F) {
	// Seed with valid frames of both generations plus mutations the
	// fuzzer can splice: a hoisted columnar frame, a varied columnar
	// frame, and a legacy frame.
	uniform := make([]*Event, 4)
	for i := range uniform {
		uniform[i] = bev(0)
		uniform[i].Seq = uint64(i)
	}
	varied := []*Event{bev(0), bev(3), bev(7)}
	varied[1].Type = TypeDeltaStatus
	varied[1].VT = vclock.VC{9}
	for _, events := range [][]*Event{uniform, varied} {
		frame, err := AppendBatchFrame(nil, events)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(bev(5).Marshal())
	f.Add([]byte{0xFF, 0xFF, 1, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder must never panic or over-read; on success the
		// views must be internally consistent and re-encodable.
		b, err := ParseBatchFrame(data)
		if err != nil {
			return
		}
		if len(b.Events) == 0 {
			t.Fatal("decoded batch with zero events")
		}
		for _, v := range b.Events {
			_ = v.String()
			if len(v.Payload) > MaxPayload {
				t.Fatalf("decoded payload of %d bytes", len(v.Payload))
			}
		}
		reenc, err := AppendBatchFrame(nil, b.Events)
		if err != nil {
			t.Fatalf("re-encoding decoded batch: %v", err)
		}
		b2, err := ParseBatchFrame(reenc)
		if err != nil {
			t.Fatalf("decoding re-encoded batch: %v", err)
		}
		if len(b2.Events) != len(b.Events) {
			t.Fatalf("re-encode changed count: %d vs %d", len(b2.Events), len(b.Events))
		}
		for i := range b.Events {
			a, c := b.Events[i], b2.Events[i]
			if a.Type != c.Type || a.Seq != c.Seq || !bytes.Equal(a.Payload, c.Payload) ||
				a.VT.Compare(c.VT) != vclock.Equal {
				t.Fatalf("event %d not stable under re-encode", i)
			}
		}
		b2.Release()
		b.Release()
	})
}
