package event

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"adaptmirror/internal/vclock"
)

// The wire format is a fixed little-endian header followed by the
// vector timestamp and payload:
//
//	offset  size  field
//	0       2     Type
//	2       4     Flight
//	6       1     Stream
//	7       1     Status
//	8       8     Seq
//	16      4     Coalesced
//	20      8     Ingress (UnixNano)
//	28      2+8k  VT (length-prefixed)
//	...     4+n   Payload (length-prefixed)
const headerSize = 28

// MaxPayload bounds payload sizes accepted by the decoder, protecting
// sites from malformed frames.
const MaxPayload = 16 << 20

func putFloat(b []byte, f float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(f))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// EncodedSize returns the exact number of bytes Append will produce.
func (e *Event) EncodedSize() int {
	return headerSize + e.VT.EncodedSize() + 4 + len(e.Payload)
}

// Append appends the binary encoding of e to b and returns the
// extended slice.
func (e *Event) Append(b []byte) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(e.Type))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Flight))
	b = append(b, e.Stream, byte(e.Status))
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint32(b, e.Coalesced)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Ingress))
	b = e.VT.AppendBinary(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Payload)))
	b = append(b, e.Payload...)
	return b
}

// Marshal returns the binary encoding of e.
func (e *Event) Marshal() []byte {
	return e.Append(make([]byte, 0, e.EncodedSize()))
}

// Unmarshal decodes an event from b, returning the event and the
// number of bytes consumed.
func Unmarshal(b []byte) (*Event, int, error) {
	if len(b) < headerSize {
		return nil, 0, fmt.Errorf("event: short header: %d bytes", len(b))
	}
	e := &Event{
		Type:      Type(binary.LittleEndian.Uint16(b[0:])),
		Flight:    FlightID(binary.LittleEndian.Uint32(b[2:])),
		Stream:    b[6],
		Status:    Status(b[7]),
		Seq:       binary.LittleEndian.Uint64(b[8:]),
		Coalesced: binary.LittleEndian.Uint32(b[16:]),
		Ingress:   int64(binary.LittleEndian.Uint64(b[20:])),
	}
	off := headerSize
	vt, n, err := vclock.DecodeVC(b[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("event: decoding VT: %w", err)
	}
	e.VT = vt
	off += n
	if len(b) < off+4 {
		return nil, 0, fmt.Errorf("event: truncated payload length")
	}
	plen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("event: payload length %d exceeds maximum %d", plen, MaxPayload)
	}
	if len(b) < off+plen {
		return nil, 0, fmt.Errorf("event: truncated payload: need %d bytes, have %d", plen, len(b)-off)
	}
	if plen > 0 {
		e.Payload = make([]byte, plen)
		copy(e.Payload, b[off:off+plen])
	}
	return e, off + plen, nil
}

// Writer frames events onto an io.Writer with a 4-byte length prefix
// per event. It is not safe for concurrent use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a framing Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteEvent frames and buffers one event. Call Flush to push buffered
// frames to the underlying writer.
func (w *Writer) WriteEvent(e *Event) error {
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(e.EncodedSize()))
	w.buf = e.Append(w.buf)
	_, err := w.w.Write(w.buf)
	return err
}

// WriteBatchFrame frames a whole batch as one columnar frame (see
// batchframe.go) built in the writer's reused buffer and handed to the
// underlying bufio writer with a single Write call. Batches larger than
// MaxBatchEvents are split across consecutive frames.
func (w *Writer) WriteBatchFrame(events []*Event) error {
	for len(events) > 0 {
		n := len(events)
		if n > MaxBatchEvents {
			n = MaxBatchEvents
		}
		chunk := events[:n]
		events = events[n:]
		w.buf = append(w.buf[:0], 0, 0, 0, 0)
		var err error
		w.buf, err = AppendBatchFrame(w.buf, chunk)
		if err != nil {
			return err
		}
		if len(w.buf)-4 > MaxBatchFrame {
			return fmt.Errorf("event: batch frame length %d exceeds maximum %d", len(w.buf)-4, MaxBatchFrame)
		}
		binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
		if _, err := w.w.Write(w.buf); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered frames.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader unframes events from an io.Reader. It is not safe for
// concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader returns an unframing Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// ReadEvent reads one framed event. It returns io.EOF at a clean end
// of stream and io.ErrUnexpectedEOF on a truncated frame.
func (r *Reader) ReadEvent() (*Event, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > MaxPayload+headerSize+1024 {
		return nil, fmt.Errorf("event: frame length %d exceeds maximum", n)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	e, used, err := Unmarshal(buf)
	if err != nil {
		return nil, err
	}
	if used != n {
		return nil, fmt.Errorf("event: frame length %d does not match encoding %d", n, used)
	}
	return e, nil
}

// ReadFrame reads one frame of either link class: a columnar batch
// frame (data links) yields a pooled Batch of zero-copy views (the
// caller owns one reference and must Release it), a per-event frame
// (control and client links) yields a single decoded event. Exactly one
// of the two results is non-nil on success.
// It returns io.EOF at a clean end of stream and io.ErrUnexpectedEOF on
// a truncated frame.
func (r *Reader) ReadFrame() (*Event, *Batch, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > MaxBatchFrame {
		return nil, nil, fmt.Errorf("event: frame length %d exceeds maximum", n)
	}
	// The frame is read straight into a pooled slab so a batch frame's
	// payloads need no further copy; a per-event frame just borrows the
	// slab for the duration of the decode.
	b := acquireBatch()
	buf := b.Frame(n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		b.Release()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, err
	}
	if IsBatchFrame(buf) {
		if err := b.DecodeFrame(); err != nil {
			b.Release()
			return nil, nil, err
		}
		return nil, b, nil
	}
	defer b.Release()
	if n > MaxPayload+headerSize+1024 {
		return nil, nil, fmt.Errorf("event: frame length %d exceeds maximum", n)
	}
	e, used, err := Unmarshal(buf)
	if err != nil {
		return nil, nil, err
	}
	if used != n {
		return nil, nil, fmt.Errorf("event: frame length %d does not match encoding %d", n, used)
	}
	return e, nil, nil
}
