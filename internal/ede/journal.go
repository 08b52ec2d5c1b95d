package ede

// The mutation journal is the central-site half of incremental mirror
// rejoin: per shard, it remembers for each flight the scalar position
// of the last event that mutated it, keyed against the checkpoint
// cuts the coordinator commits. A rejoiner that presents a committed
// cut within the retained horizon receives only the flights that
// mutated past it (as absolute statedelta records) instead of the
// full snapshot.
//
// The scalar key is the vector timestamp's component sum: the central
// receiving task stamps every event from one clock, so stamping order,
// vector order, and sum order all agree — "mutated after cut C" is
// exactly "mutation sum > C.Sum()". Commit cuts are event timestamps
// (or merges of them from the same totally ordered sequence), so the
// same projection orders them too.
//
// Horizon bookkeeping is a ring of sealed commit sums. When a seal
// falls off the ring, the journal floor rises to it; a cut below the
// floor can no longer be served incrementally and falls back to the
// snapshot path. Entries at or below the floor are dead — every reader
// compares against the floor — and are compacted away once the floor
// has risen `horizon` more seals since the last sweep, so a commit
// costs O(flights / horizon) amortized rather than a sweep of every
// shard. The journal therefore holds only flights that mutated within
// the last 2×`horizon` committed cuts — bounded working state, not a
// second event log.

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
	"adaptmirror/internal/vclock"
)

// DefaultJournalHorizon is how many committed checkpoint cuts the
// mutation journal retains when EnableJournal is given no bound.
const DefaultJournalHorizon = 64

// journal is the State-level coordination half of the mutation
// journal; the per-flight maps live on the shards (guarded by the
// shard locks, written on the rule-application path).
type journal struct {
	// on is checked on the per-event rule-application path, so it is
	// atomic; everything else is recovery/commit-rate state under mu.
	on atomic.Bool

	mu      sync.Mutex
	horizon int
	floor   uint64   // sums at or below this are dead entries
	seals   []uint64 // sealed commit sums, ascending, len <= horizon
	// risen counts the seals the floor has risen by since the last
	// sweep compacted the dead entries away.
	risen int
}

// EnableJournal turns on mutation journaling with the given horizon
// in committed cuts (<= 0 uses DefaultJournalHorizon). Coverage
// starts at the current processed position: the floor is set to the
// given watermark's sum so a cut from before enablement is never
// served incrementally.
func (s *State) EnableJournal(horizon int, since vclock.VC) {
	if horizon <= 0 {
		horizon = DefaultJournalHorizon
	}
	s.journal.mu.Lock()
	s.journal.horizon = horizon
	s.journal.floor = since.Sum()
	s.journal.seals = s.journal.seals[:0]
	s.journal.risen = 0
	s.journal.on.Store(true)
	s.journal.mu.Unlock()
}

// JournalEnabled reports whether mutation journaling is on.
func (s *State) JournalEnabled() bool { return s.journal.on.Load() }

// RebaseJournal re-anchors an enabled journal at cut. Recovery
// transfers (snapshot installs and absolute deltas) replace flight
// history without passing through the journaled rule path, so after
// one lands the journal can no longer prove what mutated between its
// old floor and the transfer's cut — serving such a span would ship an
// incomplete delta. The floor rises to the cut's sum, the sealed-cut
// ring resets, and stale per-flight entries at or below the new floor
// are compacted; older cuts fall back to the snapshot path. No-op
// while journaling is off.
func (s *State) RebaseJournal(cut vclock.VC) {
	j := &s.journal
	if !j.on.Load() {
		return
	}
	j.mu.Lock()
	sum := cut.Sum()
	if sum > j.floor {
		j.floor = sum
	}
	j.seals = j.seals[:0]
	s.sweepJournal()
	j.mu.Unlock()
}

// sweepJournal compacts away every entry at or below the floor. Caller
// holds j.mu, so a concurrent DeltaSince (which checked its cut against
// the floor before walking the shards) cannot lose entries it still
// needs.
func (s *State) sweepJournal() {
	j := &s.journal
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for f, last := range sh.journal {
			if last <= j.floor {
				delete(sh.journal, f)
			}
		}
		sh.mu.Unlock()
	}
	j.risen = 0
}

// journalNote records that flight f mutated at scalar position sum.
// Caller holds the write lock of f's shard.
func (s *State) journalNote(sh *shard, f event.FlightID, sum uint64) {
	if sh.journal == nil {
		sh.journal = make(map[event.FlightID]uint64)
	}
	if sum > sh.journal[f] {
		sh.journal[f] = sum
	}
}

// SealCut records one committed checkpoint cut with the journal. Cuts
// beyond the horizon raise the floor at once, so which cuts DeltaSince
// serves is exact per seal. The entries the floor covers are compacted
// only once it has risen by horizon seals since the last sweep: one
// sweep of every shard per horizon commits instead of one per commit.
// No-op while journaling is off.
func (s *State) SealCut(ts vclock.VC) {
	j := &s.journal
	if !j.on.Load() {
		return
	}
	j.mu.Lock()
	sum := ts.Sum()
	if n := len(j.seals); n > 0 && sum <= j.seals[n-1] {
		// Re-delivered or stale commit; the ring stays ascending.
		j.mu.Unlock()
		return
	}
	j.seals = append(j.seals, sum)
	if len(j.seals) > j.horizon {
		evict := len(j.seals) - j.horizon
		j.floor = j.seals[evict-1]
		j.seals = append(j.seals[:0], j.seals[evict:]...)
		if j.risen += evict; j.risen >= j.horizon {
			s.sweepJournal()
		}
	}
	j.mu.Unlock()
}

// JournalFlights returns the number of flights the mutation journal
// tracks above its floor (the statedelta_journal_flights gauge): the
// flights a rejoin delta could still have to carry.
func (s *State) JournalFlights() int {
	s.journal.mu.Lock()
	floor := s.journal.floor
	s.journal.mu.Unlock()
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, last := range sh.journal {
			if last > floor {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// JournalSeals returns the retained sealed-cut count and the current
// floor sum (tests, diagnostics).
func (s *State) JournalSeals() (seals int, floor uint64) {
	s.journal.mu.Lock()
	defer s.journal.mu.Unlock()
	return len(s.journal.seals), s.journal.floor
}

// recordOf captures one flight's full absolute state as a statedelta
// record. Caller holds at least the read lock of fs's shard.
func recordOf(fs *FlightState) statedelta.Record {
	r := statedelta.Record{
		Flight:      fs.ID,
		Mask:        statedelta.MaskAll,
		Status:      uint8(fs.Status),
		Lat:         fs.Lat,
		Lon:         fs.Lon,
		Alt:         fs.Alt,
		PaxExpected: fs.PaxExpected,
		PaxBoarded:  fs.PaxBoarded,
		PosUpdates:  fs.PositionUpdates,
	}
	if fs.AllBoarded {
		r.Flags |= statedelta.FlagAllBoarded
	}
	if fs.Arrived {
		r.Flags |= statedelta.FlagArrived
	}
	return r
}

// DeltaSince returns absolute records for every flight that mutated
// after cut, in flight-ID order, or ok=false when the cut cannot be
// served incrementally (journaling off, nil cut, or cut older than
// the journal floor). Call it where the state is known quiescent for
// the intended consistency point — the recovery path captures it
// under the main unit's barrier, exactly like the full snapshot.
func (s *State) DeltaSince(cut vclock.VC) (recs []statedelta.Record, ok bool) {
	if cut == nil {
		return nil, false
	}
	j := &s.journal
	if !j.on.Load() {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sumC := cut.Sum()
	if sumC < j.floor {
		return nil, false
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for f, last := range sh.journal {
			if last <= sumC {
				continue
			}
			if fs := sh.flights[f]; fs != nil {
				recs = append(recs, recordOf(fs))
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(recs, func(a, b statedelta.Record) int { return cmp.Compare(a.Flight, b.Flight) })
	return recs, true
}

// ApplyDeltaAbsolute installs a framed absolute delta (the payload of
// a TypeRecoveryDelta event): each record overwrites its flight's
// masked fields with the carried values. Overwriting is idempotent,
// so re-delivered recovery deltas are harmless. The frame is fully
// validated before any flight is touched — a corrupted payload
// changes nothing.
func (s *State) ApplyDeltaAbsolute(buf []byte) error {
	var d statedelta.Decoder
	if err := d.Reset(buf); err != nil {
		return err
	}
	var r statedelta.Record
	for d.Next(&r) {
		sh := s.shardOf(r.Flight)
		sh.mu.Lock()
		fs := s.flight(r.Flight)
		if r.Mask&statedelta.MaskStatus != 0 {
			fs.Status = event.Status(r.Status)
		}
		if r.Mask&statedelta.MaskPosition != 0 {
			fs.Lat, fs.Lon, fs.Alt = r.Lat, r.Lon, r.Alt
		}
		if r.Mask&statedelta.MaskPax != 0 {
			fs.PaxExpected = r.PaxExpected
			fs.PaxBoarded = r.PaxBoarded
		}
		if r.Mask&statedelta.MaskCounters != 0 {
			fs.PositionUpdates = r.PosUpdates
		}
		if r.Mask&statedelta.MaskFlags != 0 {
			fs.AllBoarded = r.Flags&statedelta.FlagAllBoarded != 0
			fs.Arrived = r.Flags&statedelta.FlagArrived != 0
		}
		sh.epoch.Add(1)
		sh.mu.Unlock()
	}
	return nil
}
