package ede

import (
	"encoding/binary"
	"sync"
	"time"

	"adaptmirror/internal/metrics"
	"adaptmirror/internal/obs"
)

// snapCache is the epoch-versioned snapshot cache behind the serving
// path. Each shard's flights are kept as one encoded segment tagged
// with the shard epoch it was built at; serving a snapshot
// concatenates the segments, rebuilding only those whose shard has
// been mutated since. A storm of init-state requests against a quiet
// (or slowly changing) state therefore shares one assembled buffer
// instead of paying one full-table serialization per request — the
// paper's power-failure scenario is exactly such a storm.
//
// Rebuilds are single-flight: cold requesters serialize on the cache
// write lock, and whoever enters first rebuilds the dirty segments;
// the rest find the epochs current and only pay the concatenation.
type snapCache struct {
	mu     sync.RWMutex
	segs   [][]byte
	counts []int
	epochs []uint64
	// full is the assembled snapshot for the cached epochs. Rebuilds
	// replace it with a fresh allocation and nothing ever writes into
	// it afterwards, so warm hits hand the same buffer to every
	// requester — a storm costs one pointer copy per request, not one
	// 100KB+ allocation.
	full []byte
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
	famCacheRebuildTime = obs.Declare("snapshot_cache_rebuild_seconds_total", obs.KindSeconds, "Cumulative snapshot segment rebuild time.")
)

func (c *snapCache) init(shards int) {
	c.segs = make([][]byte, shards)
	c.counts = make([]int, shards)
	c.epochs = make([]uint64, shards)
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

// assembleLocked concatenates the cached segments into a full
// snapshot. Caller holds c.mu (read or write).
func (c *snapCache) assembleLocked() []byte {
	total, flights := 0, 0
	for i, seg := range c.segs {
		total += len(seg)
		flights += c.counts[i]
	}
	buf := make([]byte, 0, 8+total)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(flights))
	for _, seg := range c.segs {
		buf = append(buf, seg...)
	}
	return buf
}

// CachedSnapshot serves a full snapshot from the epoch cache,
// rebuilding only the segments of shards mutated since their segment
// was cached. It returns the snapshot plus the number of segment bytes
// freshly rebuilt (0 on a warm hit) — the serving path's cost-model
// split: the response is charged as request work, the rebuilt bytes as
// serialization work.
//
// The returned buffer is shared between requesters and with the cache
// itself: callers must treat it as read-only. It stays valid forever —
// a later rebuild assembles into a fresh allocation rather than
// mutating it.
func (s *State) CachedSnapshot() (buf []byte, rebuiltBytes int) {
	c := &s.cache

	// Warm path: all segments current — hand out the shared assembled
	// buffer under the read lock, so a storm serves concurrently at
	// pointer-copy cost.
	c.mu.RLock()
	if c.cleanLocked(s) {
		buf = c.full
		c.mu.RUnlock()
		c.hits.Inc()
		return buf, 0
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cleanLocked(s) {
		// Another requester rebuilt while we waited: the single-flight
		// property — N concurrent cold requests, one rebuild.
		c.hits.Inc()
		return c.full, 0
	}
	c.misses.Inc()
	start := time.Now()
	for i := range s.shards {
		sh := &s.shards[i]
		if c.primed && sh.epoch.Load() == c.epochs[i] {
			continue
		}
		sh.mu.RLock()
		// Read the epoch under the shard lock: a mutation between the
		// dirty check and this lock is folded into the segment, and
		// one arriving after merely re-dirties the shard for the next
		// request.
		epoch := sh.epoch.Load()
		seg, n := s.encodeShard(sh)
		sh.mu.RUnlock()
		c.segs[i] = seg
		c.counts[i] = n
		c.epochs[i] = epoch
		c.rebuilds.Inc()
		rebuiltBytes += len(seg)
	}
	c.primed = true
	c.full = c.assembleLocked()
	c.rebuildNs.Add(time.Since(start))
	return c.full, rebuiltBytes
}

// CacheStats reports the snapshot cache's counters: warm hits (served
// by concatenation alone), misses (at least one segment rebuilt),
// segments rebuilt, and cumulative rebuild time.
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
