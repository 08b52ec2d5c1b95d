package ede

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
)

func TestNewStateShardedRoundsToPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards},
		{1, 1},
		{2, 2},
		{3, 4},
		{16, 16},
		{17, 32},
	}
	for _, c := range cases {
		if got := NewStateSharded(0, c.in).Shards(); got != c.want {
			t.Errorf("NewStateSharded(0, %d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCachedSnapshotMatchesSnapshot(t *testing.T) {
	en := New(Config{StatePadding: 16})
	for f := 0; f < 100; f++ {
		en.Process(event.NewPosition(event.FlightID(f), 1, float64(f), float64(-f), 1000, 32))
	}
	direct := en.State().Snapshot()
	cached, rebuilt := en.State().CachedSnapshot()
	if !bytes.Equal(direct, cached.Bytes()) {
		t.Fatal("cached snapshot differs from direct serialization")
	}
	if cached.Len() != len(direct) || cached.Len() != en.State().SnapshotSize() {
		t.Fatalf("Len = %d, want %d", cached.Len(), len(direct))
	}
	if rebuilt == 0 {
		t.Fatal("first cached snapshot reported 0 rebuilt bytes")
	}
	// Mutate one flight: the cache must fold it in.
	en.Process(event.NewStatus(7, 2, event.StatusLanded, 16))
	direct = en.State().Snapshot()
	cached, _ = en.State().CachedSnapshot()
	if !bytes.Equal(direct, cached.Bytes()) {
		t.Fatal("cached snapshot stale after mutation")
	}
}

// cacheMatches fails t unless the cached snapshot's bytes equal the
// reference encoder's.
func cacheMatches(t *testing.T, st *State) {
	t.Helper()
	cached, _ := st.CachedSnapshot()
	if got, want := cached.Bytes(), st.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("cached snapshot (%d bytes) differs from Snapshot (%d bytes)", len(got), len(want))
	}
}

// TestCachedSnapshotEquivalence pins the cache to the reference
// encoder on every path that changes a shard's flights or their
// values behind a cached segment and flight order.
func TestCachedSnapshotEquivalence(t *testing.T) {
	const padding = 8
	populated := func() *Engine {
		en := New(Config{StatePadding: padding, Shards: 4})
		for f := event.FlightID(1); f <= 20; f++ {
			feedPosition(en, f, uint64(f))
		}
		cacheMatches(t, en.State())
		return en
	}

	t.Run("install", func(t *testing.T) {
		en := populated()
		// Same flight IDs, different values: a cached order pointing at
		// the replaced records would encode stale fields.
		src := New(Config{StatePadding: padding, Shards: 4})
		for f := event.FlightID(1); f <= 20; f++ {
			feedPosition(src, f, uint64(100+f))
		}
		if err := en.State().Install(src.State().Snapshot()); err != nil {
			t.Fatal(err)
		}
		cacheMatches(t, en.State())
		// A smaller table replaces it again.
		small := New(Config{StatePadding: padding, Shards: 4})
		feedPosition(small, 3, 1)
		if err := en.State().Install(small.State().Snapshot()); err != nil {
			t.Fatal(err)
		}
		cacheMatches(t, en.State())
	})

	t.Run("new-flight-in-cached-shard", func(t *testing.T) {
		en := populated()
		// Shard 1 of 4 already holds 1, 5, ..., 17 in its cached order;
		// 21 and 0x10001 land there after it.
		for _, f := range []event.FlightID{21, 0x10001} {
			feedPosition(en, f, 50)
			cacheMatches(t, en.State())
		}
		// A new flight must also sort before the cached members.
		en2 := New(Config{StatePadding: padding, Shards: 4})
		feedPosition(en2, 9, 1)
		cacheMatches(t, en2.State())
		feedPosition(en2, 1, 2)
		cacheMatches(t, en2.State())
	})

	t.Run("apply-delta-absolute", func(t *testing.T) {
		en := populated()
		frame, err := statedelta.EncodeFrame([]statedelta.Record{
			{Flight: 2, Mask: statedelta.MaskAll, Status: uint8(event.StatusLanded), Lat: 1, Lon: 2, Alt: 3, PosUpdates: 9},
			{Flight: 40, Mask: statedelta.MaskPosition, Lat: 4, Lon: 5, Alt: 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := en.State().ApplyDeltaAbsolute(frame); err != nil {
			t.Fatal(err)
		}
		cacheMatches(t, en.State())
	})
}

// TestCachedSnapshotQuickEquivalence drives a random mix of position,
// status, gate-reader, absolute-delta and install operations over a
// small, collision-heavy flight space and checks the cache against the
// reference encoder after every operation.
func TestCachedSnapshotQuickEquivalence(t *testing.T) {
	const padding = 4
	f := func(ops []uint32) bool {
		en := New(Config{StatePadding: padding, Shards: 4})
		for i, op := range ops {
			fl := event.FlightID(op>>3) % 48
			seq := uint64(i + 1)
			switch op % 6 {
			case 0, 1:
				en.Process(event.NewPosition(fl, seq, float64(op), float64(i), 1000, 16))
			case 2:
				en.Process(event.NewStatus(fl, seq, event.Status(op>>8)%6, 16))
			case 3:
				en.Process(&event.Event{Type: event.TypeGateReader, Flight: fl, Seq: seq, Coalesced: 1, Payload: []byte{3, 0, 0, 0}})
			case 4:
				frame, err := statedelta.EncodeFrame([]statedelta.Record{{Flight: fl, Mask: statedelta.MaskPosition | statedelta.MaskCounters, Lat: float64(op), PosUpdates: seq}})
				if err != nil || en.State().ApplyDeltaAbsolute(frame) != nil {
					return false
				}
			case 5:
				src := New(Config{StatePadding: padding, Shards: 4})
				for g := event.FlightID(0); g < fl%8; g++ {
					src.Process(event.NewPosition(g*3, seq, 1, 2, 3, 16))
				}
				if en.State().Install(src.State().Snapshot()) != nil {
					return false
				}
			}
			cached, _ := en.State().CachedSnapshot()
			if !bytes.Equal(cached.Bytes(), en.State().Snapshot()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotImmutable holds a served snapshot while 1,000 further
// applies each force a rebuild, reading it concurrently throughout:
// its bytes must never change (and, under -race, no rebuild may write
// memory the snapshot shares).
func TestSnapshotImmutable(t *testing.T) {
	en := New(Config{StatePadding: 16})
	for f := event.FlightID(0); f < 100; f++ {
		en.Process(event.NewPosition(f, 1, 1, 2, 3, 32))
	}
	held := en.ServeInitState()
	want := held.Bytes()

	stop := make(chan struct{})
	changed := make(chan bool, 1)
	go func() {
		for {
			select {
			case <-stop:
				changed <- false
				return
			default:
			}
			if !bytes.Equal(held.Bytes(), want) {
				changed <- true
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		// Every tenth apply creates a flight, so the cached orders are
		// re-sorted as well as re-encoded.
		f := event.FlightID(i % 100)
		if i%10 == 0 {
			f = event.FlightID(100 + i)
		}
		en.Process(event.NewPosition(f, uint64(2+i), float64(i), 0, 0, 32))
		en.ServeInitState()
	}
	close(stop)
	if <-changed {
		t.Fatal("a held snapshot changed under later rebuilds")
	}
	if !bytes.Equal(held.Bytes(), want) {
		t.Fatal("a held snapshot changed under later rebuilds")
	}
}

// TestServeInitStateAllocs guards the serving path's allocation
// budget: a warm hit allocates nothing, and a rebuild after one dirty
// flight allocates only the re-encoded segment and the fresh parts
// slice.
func TestServeInitStateAllocs(t *testing.T) {
	en := New(Config{StatePadding: 64})
	const flights = 1000
	for f := event.FlightID(0); f < flights; f++ {
		en.Process(event.NewPosition(f, 1, 1, 2, 3, 64))
	}
	en.ServeInitState()
	if n := testing.AllocsPerRun(100, func() { en.ServeInitState() }); n != 0 {
		t.Fatalf("warm ServeInitState: %v allocs, want 0", n)
	}
	// Dirty one existing flight per run without going through Process,
	// whose own allocations are not the serving path's.
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		f := event.FlightID(next % flights)
		sh := en.state.shardOf(f)
		sh.mu.Lock()
		en.state.flight(f).Lat++
		sh.epoch.Add(1)
		sh.mu.Unlock()
		next++
		en.ServeInitState()
	}); n > 2 {
		t.Fatalf("one-dirty-flight ServeInitState: %v allocs, want <= 2", n)
	}
}

func TestCachedSnapshotHitMissCounters(t *testing.T) {
	en := New(Config{})
	en.Process(event.NewPosition(1, 1, 0, 0, 0, 32))

	if _, rebuilt := en.State().CachedSnapshot(); rebuilt == 0 {
		t.Fatal("cold request must rebuild")
	}
	if _, rebuilt := en.State().CachedSnapshot(); rebuilt != 0 {
		t.Fatalf("warm request rebuilt %d bytes, want 0", rebuilt)
	}
	hits, misses, rebuilds, _ := en.State().CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// A cold build encodes every shard, even empty ones.
	if rebuilds != uint64(en.State().Shards()) {
		t.Fatalf("rebuilds = %d, want %d", rebuilds, en.State().Shards())
	}

	// Dirtying one flight must rebuild only that flight's shard.
	en.Process(event.NewPosition(1, 2, 1, 1, 1, 32))
	if _, rebuilt := en.State().CachedSnapshot(); rebuilt == 0 {
		t.Fatal("mutation must dirty the cache")
	}
	_, _, rebuilds2, _ := en.State().CacheStats()
	if rebuilds2 != rebuilds+1 {
		t.Fatalf("rebuilds after one dirty flight = %d, want %d", rebuilds2, rebuilds+1)
	}
}

// TestSnapshotByteStable checks the wire-format guarantee the cache
// depends on: the same set of flights serializes to the same bytes
// regardless of insertion order (flights are sorted by ID within each
// shard), and repeated snapshots are identical.
func TestSnapshotByteStable(t *testing.T) {
	f := func(raw []uint16) bool {
		forward := New(Config{StatePadding: 8})
		backward := New(Config{StatePadding: 8})
		for _, id := range raw {
			forward.Process(event.NewPosition(event.FlightID(id), 1, float64(id), 2, 3, 32))
		}
		for i := len(raw) - 1; i >= 0; i-- {
			id := raw[i]
			backward.Process(event.NewPosition(event.FlightID(id), 1, float64(id), 2, 3, 32))
		}
		a := forward.State().Snapshot()
		if !bytes.Equal(a, forward.State().Snapshot()) {
			return false
		}
		// Duplicate IDs collapse to one flight with a higher update
		// count, and position updates overwrite Lat/Lon/Alt, so the two
		// insertion orders only agree when each ID appears once.
		seen := map[uint16]bool{}
		for _, id := range raw {
			if seen[id] {
				return true
			}
			seen[id] = true
		}
		return bytes.Equal(a, backward.State().Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotQuickRoundTrip(t *testing.T) {
	const padding = 8
	f := func(raw []uint16) bool {
		en := New(Config{StatePadding: padding})
		want := map[event.FlightID]bool{}
		for _, id := range raw {
			en.Process(event.NewPosition(event.FlightID(id), 1, 1, 2, 3, 32))
			want[event.FlightID(id)] = true
		}
		snap, _ := en.State().CachedSnapshot()
		got, err := DecodeSnapshot(snap.Bytes(), padding)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for id := range want {
			if _, ok := got[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStormDecodes races an init-state storm against the
// apply path: every snapshot served mid-mutation must decode cleanly
// and hold a plausible flight count. Run under -race this also checks
// the shard/cache locking.
func TestConcurrentStormDecodes(t *testing.T) {
	const (
		readers    = 8
		perReader  = 50
		maxFlights = 400
	)
	en := New(Config{StatePadding: 16})
	en.Process(event.NewPosition(0, 1, 0, 0, 0, 32))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 1; f < maxFlights; f++ {
			en.Process(event.NewPosition(event.FlightID(f), uint64(f), float64(f), 2, 3, 32))
		}
	}()

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				snap := en.ServeInitState()
				got, err := DecodeSnapshot(snap.Bytes(), 16)
				if err != nil {
					errs <- err
					return
				}
				if len(got) < 1 || len(got) > maxFlights {
					errs <- errFlightCount(len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errFlightCount int

func (e errFlightCount) Error() string {
	return "snapshot flight count out of range"
}
