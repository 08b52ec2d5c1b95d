package ede

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
)

// Snapshot is an immutable init-state snapshot in segmented form: the
// 8-byte flight-count header followed by one encoded segment per shard.
// Its contiguous bytes are exactly State.Snapshot's wire format; the
// segments are never concatenated on the serving path. A Snapshot is a
// small value: copying it shares the segments, which nothing writes
// after they are built, so it stays valid forever. The zero Snapshot
// is empty (Len 0).
type Snapshot struct {
	head  [8]byte
	parts [][]byte
	size  int
}

// Len returns the snapshot's size in bytes.
func (sn Snapshot) Len() int { return sn.size }

// AppendTo appends the snapshot's bytes to dst and returns the
// extended slice.
func (sn Snapshot) AppendTo(dst []byte) []byte {
	if sn.size == 0 {
		return dst
	}
	dst = append(dst, sn.head[:]...)
	for _, p := range sn.parts {
		dst = append(dst, p...)
	}
	return dst
}

// Bytes returns the snapshot's bytes in a fresh buffer.
func (sn Snapshot) Bytes() []byte {
	if sn.size == 0 {
		return nil
	}
	return sn.AppendTo(make([]byte, 0, sn.size))
}

// snapCache is the epoch-versioned snapshot cache behind the serving
// path. Each shard's flights are kept as one encoded segment tagged
// with the shard epoch it was built at; serving a snapshot hands out
// the cached segments, rebuilding only those whose shard has been
// mutated since. A storm of init-state requests against a quiet (or
// slowly changing) state therefore shares one set of segments instead
// of paying one full-table serialization per request — the paper's
// power-failure scenario is exactly such a storm.
//
// Rebuilds are single-flight: cold requesters serialize on the cache
// write lock, and whoever enters first rebuilds the dirty segments;
// the rest find the epochs current and take the warm handout.
type snapCache struct {
	mu sync.RWMutex
	// snap is the snapshot for the cached epochs. A rebuild replaces it
	// with a value on a fresh parts slice, so warm hits hand the same
	// segments to every requester by value.
	snap   Snapshot
	epochs []uint64
	// order is each shard's flights sorted by ID: the encoding order,
	// and the flight count, of its cached segment. It is re-sorted only
	// when the shard's members counter has moved past members[i] (a
	// flight was created or the table replaced); otherwise a rebuild
	// re-encodes the cached order.
	order   [][]*FlightState
	members []uint64
	// primed flips on the first build; until then every epoch slot
	// would spuriously match a never-mutated shard's epoch 0.
	primed bool

	hits      *metrics.Counter
	misses    *metrics.Counter
	rebuilds  *metrics.Counter // segments rebuilt, not requests
	rebuildNs *metrics.DurationCounter
}

// The snapshot cache's families, labeled site="...".
var (
	famCacheHits        = obs.Declare("snapshot_cache_hits_total", obs.KindCounter, "Init-state snapshots served from the warm cache.")
	famCacheMisses      = obs.Declare("snapshot_cache_misses_total", obs.KindCounter, "Init-state snapshots that rebuilt at least one segment.")
	famCacheRebuilds    = obs.Declare("snapshot_cache_rebuilds_total", obs.KindCounter, "Snapshot segments rebuilt.")
	famCacheRebuildTime = obs.Declare("snapshot_cache_rebuild_seconds_total", obs.KindCounter, "Cumulative snapshot segment rebuild time.")
)

func (c *snapCache) init(shards int) {
	c.epochs = make([]uint64, shards)
	c.order = make([][]*FlightState, shards)
	c.members = make([]uint64, shards)
}

// cleanLocked reports whether every cached segment is current. Caller
// holds c.mu (read or write).
func (c *snapCache) cleanLocked(s *State) bool {
	if !c.primed {
		return false
	}
	for i := range s.shards {
		if s.shards[i].epoch.Load() != c.epochs[i] {
			return false
		}
	}
	return true
}

// CachedSnapshot serves a full snapshot from the epoch cache,
// rebuilding only the segments of shards mutated since their segment
// was cached. It returns the snapshot plus the number of segment bytes
// freshly rebuilt (0 on a warm hit) — the serving path's cost-model
// split: the response is charged as request work, the rebuilt bytes as
// serialization work.
//
// The returned Snapshot shares its segments with other requesters and
// with the cache; it never changes, because a later rebuild puts its
// segments on a fresh parts slice rather than mutating this one.
func (s *State) CachedSnapshot() (snap Snapshot, rebuiltBytes int) {
	c := &s.cache

	// Warm path: all segments current — hand out the cached value under
	// the read lock, so a storm serves concurrently at the cost of one
	// epoch check.
	c.mu.RLock()
	if c.cleanLocked(s) {
		snap = c.snap
		c.mu.RUnlock()
		c.hits.Inc()
		return snap, 0
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cleanLocked(s) {
		// Another requester rebuilt while we waited: the single-flight
		// property — N concurrent cold requests, one rebuild.
		c.hits.Inc()
		return c.snap, 0
	}
	c.misses.Inc()
	start := time.Now()
	parts := make([][]byte, len(s.shards))
	copy(parts, c.snap.parts)
	size, flights := 8, 0
	for i := range s.shards {
		sh := &s.shards[i]
		if !c.primed || sh.epoch.Load() != c.epochs[i] {
			sh.mu.RLock()
			// Read the epoch under the shard lock: a mutation between the
			// dirty check and this lock is folded into the segment, and
			// one arriving after merely re-dirties the shard for the next
			// request.
			c.epochs[i] = sh.epoch.Load()
			if sh.members != c.members[i] {
				c.order[i] = sortedFlights(c.order[i], sh)
				c.members[i] = sh.members
			}
			parts[i] = s.encodeFlights(c.order[i])
			sh.mu.RUnlock()
			c.rebuilds.Inc()
			rebuiltBytes += len(parts[i])
		}
		size += len(parts[i])
		flights += len(c.order[i])
	}
	c.snap = Snapshot{parts: parts, size: size}
	binary.LittleEndian.PutUint64(c.snap.head[:], uint64(flights))
	c.primed = true
	c.rebuildNs.Add(time.Since(start))
	return c.snap, rebuiltBytes
}

// sortedFlights refills order (reusing its backing) with sh's flights
// in ID order. Caller holds at least sh's read lock.
func sortedFlights(order []*FlightState, sh *shard) []*FlightState {
	// Drop every old pointer first: after an Install the tail past the
	// new length would otherwise pin the replaced records.
	clear(order)
	order = order[:0]
	for _, fs := range sh.flights {
		order = append(order, fs)
	}
	slices.SortFunc(order, func(a, b *FlightState) int { return cmp.Compare(a.ID, b.ID) })
	return order
}

// encodeFlights encodes flights, in the given order, into one buffer
// of exact size. Caller holds the read lock of the flights' shard.
func (s *State) encodeFlights(flights []*FlightState) []byte {
	buf := make([]byte, 0, len(flights)*(flightRecordSize+s.padding))
	for _, fs := range flights {
		buf = appendFlight(buf, fs, s.pad)
	}
	return buf
}

// CacheStats reports the snapshot cache's counters: warm hits (served
// from the cached segments alone), misses (at least one segment
// rebuilt), segments rebuilt, and cumulative rebuild time.
func (s *State) CacheStats() (hits, misses, rebuilds uint64, rebuildTime time.Duration) {
	c := &s.cache
	return c.hits.Value(), c.misses.Value(), c.rebuilds.Value(), c.rebuildNs.Value()
}

// RegisterMetrics makes the snapshot cache count on r's
// snapshot_cache_* series for site (on private instruments when r is
// nil). It replaces the instruments, so it belongs to construction,
// before the state is shared.
func (s *State) RegisterMetrics(r *obs.Registry, site string) {
	c := &s.cache
	l := obs.L("site", site)
	c.hits = r.Counter(famCacheHits, l)
	c.misses = r.Counter(famCacheMisses, l)
	c.rebuilds = r.Counter(famCacheRebuilds, l)
	c.rebuildNs = r.DurationCounter(famCacheRebuildTime, l)
}
