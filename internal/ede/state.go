// Package ede implements the Event Derivation Engine — the business
// logic the OIS runs over incoming update events (paper Section 2).
// The EDE performs "transactional and analytical processing of newly
// arrived data events, according to a set of business rules" — e.g.
// determining from gate-reader events that all passengers of a flight
// have boarded — maintains the operational state those rules update,
// and prepares initialization-state snapshots for thin clients. All
// mirror sites run the same EDE over the same events, which is what
// makes their states replicas.
package ede

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/event"
)

// FlightState is the operational state tracked for one flight.
type FlightState struct {
	ID     event.FlightID
	Status event.Status

	// Current position from FAA radar.
	Lat, Lon, Alt float64

	// Boarding progress from gate readers.
	PaxExpected uint32
	PaxBoarded  uint32

	// PositionUpdates counts raw position reports applied, weighted by
	// coalesce counts, so mirrors processing coalesced streams stay
	// comparable with the central site.
	PositionUpdates uint64

	// Derived markers.
	AllBoarded bool
	Arrived    bool
}

// flightRecordSize is the per-flight size of a state snapshot.
const flightRecordSize = 4 + 1 + 24 + 8 + 8 + 2

// DefaultShards is the shard count of a State when Config.Shards is
// unset. Sixteen stripes keep rule application, point reads, and
// snapshot building from contending on one lock while staying small
// enough that per-shard snapshot segments amortize well.
const DefaultShards = 16

// shard is one lock stripe of the flight table. Rule application for
// an event locks only its flight's shard, so concurrent point reads,
// snapshot rebuilds of other shards, and applies to other flights
// proceed in parallel.
type shard struct {
	mu      sync.RWMutex
	flights map[event.FlightID]*FlightState
	ext     map[event.FlightID]*extState // crew/baggage/weather

	// journal maps flight -> scalar position (VT sum) of its last
	// mutation, maintained while the State's mutation journal is
	// enabled (see journal.go). Guarded by mu's write lock; nil until
	// the first note.
	journal map[event.FlightID]uint64

	// epoch counts mutations under mu's write lock; the snapshot cache
	// compares it against the epoch its cached segment was built at to
	// decide whether the shard is dirty. Atomic so the cache's warm
	// path can check cleanliness without touching the shard lock.
	epoch atomic.Uint64

	// members counts changes to the set of flights (a flight created,
	// the table replaced by Install), guarded by mu. The snapshot cache
	// re-sorts its cached flight order only when it moves.
	members uint64

	// Padding out to a cache line would be overkill here: shards are
	// accessed through pointer-chasing maps whose buckets dominate any
	// false sharing of the shard headers.
}

// State is the full operational state of one site, striped into
// hash-partitioned shards (hash on FlightID).
type State struct {
	shards    []shard
	mask      uint32
	processed atomic.Uint64

	// padding is appended per flight in snapshots to model richer
	// per-flight state than this reproduction tracks explicitly; pad is
	// that many zero bytes, shared read-only by every encoder.
	padding int
	pad     []byte

	// journal coordinates the per-shard mutation maps (journal.go).
	journal journal

	cache snapCache
}

// NewStateSharded returns an empty state with the given shard count,
// rounded up to a power of two (0 uses DefaultShards); paddingPerFlight
// inflates snapshot sizes to model the paper's multi-gigabyte
// operational state.
func NewStateSharded(paddingPerFlight, shards int) *State {
	if paddingPerFlight < 0 {
		paddingPerFlight = 0
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &State{shards: make([]shard, n), mask: uint32(n - 1), padding: paddingPerFlight, pad: make([]byte, paddingPerFlight)}
	for i := range s.shards {
		s.shards[i].flights = make(map[event.FlightID]*FlightState)
	}
	s.cache.init(n)
	s.RegisterMetrics(nil, "")
	return s
}

// Shards returns the number of lock stripes.
func (s *State) Shards() int { return len(s.shards) }

// shardOf returns the stripe owning flight f. Flight IDs are typically
// small and dense, so the low bits alone distribute them evenly.
func (s *State) shardOf(f event.FlightID) *shard {
	return &s.shards[uint32(f)&s.mask]
}

// flight returns (creating if needed) the record for f. Caller must
// hold the write lock of f's shard.
func (s *State) flight(f event.FlightID) *FlightState {
	sh := s.shardOf(f)
	fs := sh.flights[f]
	if fs == nil {
		fs = &FlightState{ID: f}
		sh.flights[f] = fs
		sh.members++
	}
	return fs
}

// Get returns a copy of the flight's state and whether it exists.
func (s *State) Get(f event.FlightID) (FlightState, bool) {
	sh := s.shardOf(f)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fs, ok := sh.flights[f]
	if !ok {
		return FlightState{}, false
	}
	return *fs, true
}

// Flights returns the number of tracked flights.
func (s *State) Flights() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.flights)
		sh.mu.RUnlock()
	}
	return n
}

// Processed returns the weighted number of events applied.
func (s *State) Processed() uint64 { return s.processed.Load() }

// SnapshotSize returns the size in bytes of a full snapshot.
func (s *State) SnapshotSize() int {
	return 8 + s.Flights()*(flightRecordSize+s.padding)
}

// appendFlight encodes one flight record (plus padding) onto buf.
func appendFlight(buf []byte, fs *FlightState, pad []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(fs.ID))
	buf = append(buf, byte(fs.Status))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(fs.Lat))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(fs.Lon))
	buf = binary.LittleEndian.AppendUint64(buf, floatBits(fs.Alt))
	buf = binary.LittleEndian.AppendUint32(buf, fs.PaxExpected)
	buf = binary.LittleEndian.AppendUint32(buf, fs.PaxBoarded)
	buf = binary.LittleEndian.AppendUint64(buf, fs.PositionUpdates)
	flags := uint16(0)
	if fs.AllBoarded {
		flags |= 1
	}
	if fs.Arrived {
		flags |= 2
	}
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	return append(buf, pad...)
}

// Snapshot serializes the full state: the initialization view sent to
// thin clients so they can interpret subsequent update events. It is
// the uncached reference encoder (the serving path uses
// CachedSnapshot, whose bytes must equal these). The snapshot is
// built shard by shard, each under its read lock, so it is per-shard
// consistent; concurrent applies to other shards are not blocked.
// Within each shard flights are encoded in ID order, so the bytes are
// deterministic for a given state and shard count: an 8-byte flight
// count, then fixed-size records.
func (s *State) Snapshot() []byte {
	buf := make([]byte, 8, s.SnapshotSize())
	var ids []event.FlightID
	flights := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids = ids[:0]
		for id := range sh.flights {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			buf = appendFlight(buf, sh.flights[id], s.pad)
		}
		sh.mu.RUnlock()
		flights += len(ids)
	}
	binary.LittleEndian.PutUint64(buf, uint64(flights))
	return buf
}

// Install replaces the full operational state with the contents of a
// snapshot produced by Snapshot on a state with the same padding. It
// is the receiving half of mirror recovery: the rejoining site
// installs the central site's snapshot, then applies only events past
// the snapshot's consistency cut. Each shard is swapped under its
// write lock and has its epoch bumped, so concurrent point reads stay
// shard-consistent and cached snapshot segments are invalidated.
func (s *State) Install(buf []byte) error {
	flights, err := DecodeSnapshot(buf, s.padding)
	if err != nil {
		return err
	}
	fresh := make([]map[event.FlightID]*FlightState, len(s.shards))
	for i := range fresh {
		fresh[i] = make(map[event.FlightID]*FlightState)
	}
	for id, fs := range flights {
		rec := fs
		fresh[uint32(id)&s.mask][id] = &rec
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.flights = fresh[i]
		sh.ext = nil
		// The mutation journal describes the replaced state; whatever it
		// tracked no longer corresponds to the installed flights.
		sh.journal = nil
		sh.members++
		sh.epoch.Add(1)
		sh.mu.Unlock()
	}
	return nil
}

// DecodeSnapshot parses a snapshot produced by Snapshot, returning the
// flight states keyed by ID. paddingPerFlight must match the encoder's
// and cannot be negative.
func DecodeSnapshot(buf []byte, paddingPerFlight int) (map[event.FlightID]FlightState, error) {
	if paddingPerFlight < 0 {
		return nil, fmt.Errorf("ede: negative snapshot padding %d", paddingPerFlight)
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("ede: snapshot too short: %d bytes", len(buf))
	}
	n := binary.LittleEndian.Uint64(buf)
	rec := flightRecordSize + paddingPerFlight
	// Compare in the int domain: multiplying the attacker-controlled
	// count would overflow uint64 and bypass the size check.
	body := len(buf) - 8
	if body%rec != 0 || n != uint64(body/rec) {
		return nil, fmt.Errorf("ede: snapshot size %d does not match %d flights", len(buf), n)
	}
	out := make(map[event.FlightID]FlightState, n)
	off := 8
	for i := uint64(0); i < n; i++ {
		b := buf[off:]
		fs := FlightState{
			ID:     event.FlightID(binary.LittleEndian.Uint32(b)),
			Status: event.Status(b[4]),
			Lat:    bitsFloat(binary.LittleEndian.Uint64(b[5:])),
			Lon:    bitsFloat(binary.LittleEndian.Uint64(b[13:])),
			Alt:    bitsFloat(binary.LittleEndian.Uint64(b[21:])),
		}
		fs.PaxExpected = binary.LittleEndian.Uint32(b[29:])
		fs.PaxBoarded = binary.LittleEndian.Uint32(b[33:])
		fs.PositionUpdates = binary.LittleEndian.Uint64(b[37:])
		flags := binary.LittleEndian.Uint16(b[45:])
		fs.AllBoarded = flags&1 != 0
		fs.Arrived = flags&2 != 0
		out[fs.ID] = fs
		off += rec
	}
	return out, nil
}
