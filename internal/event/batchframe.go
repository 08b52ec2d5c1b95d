package event

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/vclock"
)

// The columnar batch frame packs a whole send batch into one frame so
// the wire path pays one header and one buffered write per batch
// instead of per event, and so the decoder can hand out views that
// borrow from the frame buffer instead of allocating per event.
//
// After the transport's 4-byte length prefix the frame reads:
//
//	offset  size        field
//	0       2           marker 0xFFFF (Type 0xFFFF is never produced,
//	                    so per-event frames self-discriminate
//	                    on their first two bytes)
//	2       1           version (currently 1)
//	3       1           flags (constant-column hoisting, see below)
//	4       4           count N (1 .. MaxBatchEvents)
//	8       ...         types      u16 ×1 if hoisted, else ×N
//	...     ...         flights    u32 ×N
//	...     ...         streams    u8  ×1 if hoisted, else ×N
//	...     ...         statuses   u8  ×1 if hoisted, else ×N
//	...     ...         seqs       u64 ×N
//	...     ...         coalesced  u32 ×1 if hoisted, else ×N
//	...     ...         ingress    u64 ×N
//	...     ...         VTs: uniform width → u16 K then N×K×u64;
//	                    else per event u16 len + len×u64
//	...     4×(N+1)     payload offsets (u32, non-decreasing,
//	                    offsets[0] = 0, offsets[N] = blob length)
//	...     offsets[N]  payload blob
//
// A flag bit set means the column is constant across the batch and is
// encoded once. ReadyAt/ForwardAt are trace stamps and never travel.
const (
	batchMarker  = 0xFFFF
	batchVersion = 1

	// MaxBatchEvents bounds the event count of one columnar frame.
	MaxBatchEvents = 1 << 16

	// MaxBatchFrame bounds the total encoded size of one columnar
	// frame accepted by the Reader (per-event frames stay bounded by the
	// tighter per-event limit).
	MaxBatchFrame = 64 << 20
)

const (
	flagTypeConst = 1 << iota
	flagStreamConst
	flagStatusConst
	flagCoalescedConst
	flagVTUniform

	flagsKnown = flagTypeConst | flagStreamConst | flagStatusConst |
		flagCoalescedConst | flagVTUniform
)

// IsBatchFrame reports whether buf starts with the columnar batch
// marker rather than a per-event header.
func IsBatchFrame(buf []byte) bool {
	return len(buf) >= 2 && binary.LittleEndian.Uint16(buf) == batchMarker
}

// Ref is the reference-counting lifetime handle passed alongside
// borrowed event views. *Batch implements it for single-slab batches;
// the fan-out layer aggregates several slabs behind one Ref when a
// drained outbox merges batches. The convention is borrow-during-call:
// views handed to a function are valid until it returns, and a
// receiver keeping them longer must Retain first and Release when
// done.
type Ref interface {
	Retain()
	Release()
}

// maxRetainedSlab caps the frame buffer capacity a pooled Batch keeps
// between uses, so one oversized frame does not pin megabytes in the
// pool forever.
const maxRetainedSlab = 4 << 20

var (
	slabPool sync.Pool // of *Batch

	slabHits     atomic.Uint64
	slabMisses   atomic.Uint64
	slabRetained atomic.Uint64
)

// SlabPoolStats returns the cumulative slab pool counters: acquisitions
// served from the pool (hits), acquisitions that had to allocate
// (misses), and Retain calls extending a slab's lifetime (retained).
func SlabPoolStats() (hits, misses, retained uint64) {
	return slabHits.Load(), slabMisses.Load(), slabRetained.Load()
}

// Batch is a pooled, reference-counted slab holding one decoded (or
// shallow-copied) batch of events. Events points at views whose Payload
// and VT borrow from the slab's backing arrays; they stay valid until
// the last reference is released, at which point the slab returns to a
// sync.Pool for reuse.
//
// Ownership protocol: the function that acquires a Batch owns one
// reference. Passing the views to another component is
// borrow-during-call — the receiver must Retain before keeping any view
// past the call's return, and Release once done with it.
type Batch struct {
	// Events are the decoded views, valid until the last Release.
	Events []*Event

	refs   atomic.Int32
	buf    []byte   // raw frame bytes; payloads alias into this
	events []Event  // view structs
	vts    []uint64 // decoded timestamp words
	ptrs   []*Event // backing array for Events
}

// acquireBatch returns a Batch with one reference held by the caller.
func acquireBatch() *Batch {
	var b *Batch
	if v := slabPool.Get(); v != nil {
		b = v.(*Batch)
		slabHits.Add(1)
	} else {
		b = &Batch{}
		slabMisses.Add(1)
	}
	b.refs.Store(1)
	return b
}

// Retain adds a reference, extending the lifetime of every view in the
// batch until a matching Release.
func (b *Batch) Retain() {
	b.refs.Add(1)
	slabRetained.Add(1)
}

// Release drops one reference; the last release clears the views (so
// the pool retains no payload memory through dangling pointers) and
// returns the slab to the pool.
func (b *Batch) Release() {
	switch n := b.refs.Add(-1); {
	case n > 0:
	case n == 0:
		b.recycle()
	default:
		panic("event: Batch released more times than retained")
	}
}

func (b *Batch) recycle() {
	clear(b.events)
	clear(b.ptrs)
	b.Events = nil
	b.events = b.events[:0]
	b.ptrs = b.ptrs[:0]
	b.vts = b.vts[:0]
	if cap(b.buf) > maxRetainedSlab {
		b.buf = nil
	} else {
		b.buf = b.buf[:0]
	}
	slabPool.Put(b)
}

// Frame resizes the batch's backing buffer to n bytes and returns it
// for the caller to fill with one wire frame before DecodeFrame.
func (b *Batch) Frame(n int) []byte {
	if cap(b.buf) < n {
		b.buf = make([]byte, n)
	}
	b.buf = b.buf[:n]
	return b.buf
}

// growViews sizes the view arrays for n events; caller fills them.
func (b *Batch) growViews(n int) {
	if cap(b.events) < n {
		b.events = make([]Event, n)
	} else {
		b.events = b.events[:n]
	}
	if cap(b.ptrs) < n {
		b.ptrs = make([]*Event, n)
	} else {
		b.ptrs = b.ptrs[:n]
	}
}

// growVTs sizes the timestamp word slab; caller fills it.
func (b *Batch) growVTs(words int) {
	if cap(b.vts) < words {
		b.vts = make([]uint64, words)
	} else {
		b.vts = b.vts[:words]
	}
}

// ShallowBatch returns a pooled batch of shallow copies of src: each
// view aliases its source event's Payload and VT (both immutable once
// admitted) while carrying its own mutable header fields, so the
// mirror pipeline can filter, coalesce and re-stamp without cloning
// payload bytes. The caller owns one reference.
func ShallowBatch(src []*Event) *Batch {
	b := acquireBatch()
	b.growViews(len(src))
	for i, e := range src {
		v := &b.events[i]
		*v = *e
		b.ptrs[i] = v
	}
	b.Events = b.ptrs[:len(src)]
	return b
}

// AppendBatchFrame appends the columnar encoding of events to dst and
// returns the extended slice. The caller adds the transport's length
// prefix. Batches must hold 1..MaxBatchEvents events with payloads of
// at most MaxPayload bytes each.
func AppendBatchFrame(dst []byte, events []*Event) ([]byte, error) {
	n := len(events)
	if n == 0 {
		return dst, fmt.Errorf("event: empty batch frame")
	}
	if n > MaxBatchEvents {
		return dst, fmt.Errorf("event: batch of %d events exceeds maximum %d", n, MaxBatchEvents)
	}

	first := events[0]
	flags := uint8(flagTypeConst | flagStreamConst | flagStatusConst |
		flagCoalescedConst | flagVTUniform)
	vtWidth := len(first.VT)
	blob := 0
	for i, e := range events {
		if len(e.Payload) > MaxPayload {
			return dst, fmt.Errorf("event: payload length %d exceeds maximum %d", len(e.Payload), MaxPayload)
		}
		blob += len(e.Payload)
		if i == 0 {
			continue
		}
		if e.Type != first.Type {
			flags &^= flagTypeConst
		}
		if e.Stream != first.Stream {
			flags &^= flagStreamConst
		}
		if e.Status != first.Status {
			flags &^= flagStatusConst
		}
		if e.Coalesced != first.Coalesced {
			flags &^= flagCoalescedConst
		}
		if len(e.VT) != vtWidth {
			flags &^= flagVTUniform
		}
	}
	if blob > MaxBatchFrame {
		return dst, fmt.Errorf("event: batch payload blob %d exceeds maximum frame %d", blob, MaxBatchFrame)
	}

	dst = binary.LittleEndian.AppendUint16(dst, batchMarker)
	dst = append(dst, batchVersion, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))

	if flags&flagTypeConst != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(first.Type))
	} else {
		for _, e := range events {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(e.Type))
		}
	}
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Flight))
	}
	if flags&flagStreamConst != 0 {
		dst = append(dst, first.Stream)
	} else {
		for _, e := range events {
			dst = append(dst, e.Stream)
		}
	}
	if flags&flagStatusConst != 0 {
		dst = append(dst, byte(first.Status))
	} else {
		for _, e := range events {
			dst = append(dst, byte(e.Status))
		}
	}
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	}
	if flags&flagCoalescedConst != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, first.Coalesced)
	} else {
		for _, e := range events {
			dst = binary.LittleEndian.AppendUint32(dst, e.Coalesced)
		}
	}
	for _, e := range events {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Ingress))
	}
	if flags&flagVTUniform != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(vtWidth))
		for _, e := range events {
			for _, w := range e.VT {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
	} else {
		for _, e := range events {
			dst = e.VT.AppendBinary(dst)
		}
	}
	off := uint32(0)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for _, e := range events {
		off += uint32(len(e.Payload))
		dst = binary.LittleEndian.AppendUint32(dst, off)
	}
	for _, e := range events {
		dst = append(dst, e.Payload...)
	}
	return dst, nil
}

// DecodeFrame decodes the columnar frame previously loaded into the
// batch's buffer (via Frame) into pooled event views. Payloads alias
// the frame buffer; timestamps are decoded into the batch's word slab.
// The frame is validated strictly — any malformed length, flag or
// offset table fails the whole frame without reading past the buffer.
func (b *Batch) DecodeFrame() error {
	buf := b.buf
	if len(buf) < 8 {
		return fmt.Errorf("event: batch frame too short: %d bytes", len(buf))
	}
	if binary.LittleEndian.Uint16(buf) != batchMarker {
		return fmt.Errorf("event: not a batch frame")
	}
	if v := buf[2]; v != batchVersion {
		return fmt.Errorf("event: unsupported batch frame version %d", v)
	}
	flags := buf[3]
	if flags&^uint8(flagsKnown) != 0 {
		return fmt.Errorf("event: unknown batch frame flags %#x", flags)
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if n == 0 || n > MaxBatchEvents {
		return fmt.Errorf("event: batch frame count %d out of range", n)
	}
	off := 8
	need := func(k int) error {
		if len(buf)-off < k {
			return fmt.Errorf("event: truncated batch frame: need %d bytes at offset %d, have %d", k, off, len(buf)-off)
		}
		return nil
	}
	colWidth := func(flag uint8, unit int) int {
		if flags&flag != 0 {
			return unit
		}
		return unit * n
	}

	typesOff := off
	if err := need(colWidth(flagTypeConst, 2)); err != nil {
		return err
	}
	off += colWidth(flagTypeConst, 2)

	flightsOff := off
	if err := need(4 * n); err != nil {
		return err
	}
	off += 4 * n

	streamsOff := off
	if err := need(colWidth(flagStreamConst, 1)); err != nil {
		return err
	}
	off += colWidth(flagStreamConst, 1)

	statusesOff := off
	if err := need(colWidth(flagStatusConst, 1)); err != nil {
		return err
	}
	off += colWidth(flagStatusConst, 1)

	seqsOff := off
	if err := need(8 * n); err != nil {
		return err
	}
	off += 8 * n

	coalOff := off
	if err := need(colWidth(flagCoalescedConst, 4)); err != nil {
		return err
	}
	off += colWidth(flagCoalescedConst, 4)

	ingressOff := off
	if err := need(8 * n); err != nil {
		return err
	}
	off += 8 * n

	// Timestamp section: size the word slab exactly before decoding so
	// views never alias a slab that a later append would move.
	vtOff := off
	vtWidth := 0
	totalWords := 0
	if flags&flagVTUniform != 0 {
		if err := need(2); err != nil {
			return err
		}
		vtWidth = int(binary.LittleEndian.Uint16(buf[off:]))
		totalWords = vtWidth * n
		if err := need(2 + 8*totalWords); err != nil {
			return err
		}
		vtOff = off + 2
		off += 2 + 8*totalWords
	} else {
		scan := off
		for i := 0; i < n; i++ {
			if len(buf)-scan < 2 {
				return fmt.Errorf("event: truncated batch frame timestamp %d", i)
			}
			k := int(binary.LittleEndian.Uint16(buf[scan:]))
			scan += 2
			if len(buf)-scan < 8*k {
				return fmt.Errorf("event: truncated batch frame timestamp %d: need %d words", i, k)
			}
			scan += 8 * k
			totalWords += k
		}
		off = scan
	}

	offsetsOff := off
	if err := need(4 * (n + 1)); err != nil {
		return err
	}
	off += 4 * (n + 1)
	blobOff := off
	blobLen := len(buf) - blobOff
	if first := binary.LittleEndian.Uint32(buf[offsetsOff:]); first != 0 {
		return fmt.Errorf("event: batch frame offset table starts at %d, want 0", first)
	}
	prev := uint32(0)
	for i := 1; i <= n; i++ {
		o := binary.LittleEndian.Uint32(buf[offsetsOff+4*i:])
		if o < prev {
			return fmt.Errorf("event: batch frame offset table decreases at %d: %d after %d", i, o, prev)
		}
		if o-prev > MaxPayload {
			return fmt.Errorf("event: batch frame payload %d length %d exceeds maximum %d", i-1, o-prev, MaxPayload)
		}
		prev = o
	}
	if int(prev) != blobLen {
		return fmt.Errorf("event: batch frame blob length %d does not match offset table end %d", blobLen, prev)
	}

	b.growViews(n)
	b.growVTs(totalWords)
	vts := b.vts
	word := 0
	vtCur := vtOff
	pPrev := uint32(0)
	for i := 0; i < n; i++ {
		v := &b.events[i]
		*v = Event{}
		if flags&flagTypeConst != 0 {
			v.Type = Type(binary.LittleEndian.Uint16(buf[typesOff:]))
		} else {
			v.Type = Type(binary.LittleEndian.Uint16(buf[typesOff+2*i:]))
		}
		v.Flight = FlightID(binary.LittleEndian.Uint32(buf[flightsOff+4*i:]))
		if flags&flagStreamConst != 0 {
			v.Stream = buf[streamsOff]
		} else {
			v.Stream = buf[streamsOff+i]
		}
		if flags&flagStatusConst != 0 {
			v.Status = Status(buf[statusesOff])
		} else {
			v.Status = Status(buf[statusesOff+i])
		}
		v.Seq = binary.LittleEndian.Uint64(buf[seqsOff+8*i:])
		if flags&flagCoalescedConst != 0 {
			v.Coalesced = binary.LittleEndian.Uint32(buf[coalOff:])
		} else {
			v.Coalesced = binary.LittleEndian.Uint32(buf[coalOff+4*i:])
		}
		v.Ingress = int64(binary.LittleEndian.Uint64(buf[ingressOff+8*i:]))

		k := vtWidth
		if flags&flagVTUniform == 0 {
			k = int(binary.LittleEndian.Uint16(buf[vtCur:]))
			vtCur += 2
		}
		if k > 0 {
			dst := vts[word : word+k : word+k]
			for j := 0; j < k; j++ {
				dst[j] = binary.LittleEndian.Uint64(buf[vtCur+8*j:])
			}
			v.VT = vclock.VC(dst)
			word += k
			vtCur += 8 * k
		}

		pEnd := binary.LittleEndian.Uint32(buf[offsetsOff+4*(i+1):])
		if pEnd > pPrev {
			lo, hi := blobOff+int(pPrev), blobOff+int(pEnd)
			v.Payload = buf[lo:hi:hi]
		}
		pPrev = pEnd
		b.ptrs[i] = v
	}
	b.Events = b.ptrs[:n]
	return nil
}

// ParseBatchFrame copies data into a pooled batch and decodes it,
// returning the batch (one reference owned by the caller) or the decode
// error. It is the convenience entry for tests and fuzzing; the wire
// path uses Frame + DecodeFrame to avoid the copy.
func ParseBatchFrame(data []byte) (*Batch, error) {
	b := acquireBatch()
	copy(b.Frame(len(data)), data)
	if err := b.DecodeFrame(); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// BatchPayloadBytes sums the payload sizes of a batch — the blob size
// its columnar frame will carry.
func BatchPayloadBytes(events []*Event) int {
	total := 0
	for _, e := range events {
		total += len(e.Payload)
	}
	return total
}
