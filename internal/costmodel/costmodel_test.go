package costmodel

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestCostsScaleWithSize(t *testing.T) {
	m := Default
	if m.EventCost(8192) <= m.EventCost(0) {
		t.Fatal("event cost must grow with payload size")
	}
	if m.SerializeCost(8192) <= m.SerializeCost(0) {
		t.Fatal("serialize cost must grow with payload size")
	}
	if m.SubmitCost(8192) <= m.SubmitCost(0) {
		t.Fatal("submit cost must grow with payload size")
	}
	if m.RequestCost(8192) <= m.RequestCost(0) {
		t.Fatal("request cost must grow with state size")
	}
	if m.CheckpointCost(1000) <= m.CheckpointCost(0) {
		t.Fatal("checkpoint cost must grow with backlog")
	}
}

func TestCostsExactValues(t *testing.T) {
	m := Model{
		EventBase:  10 * time.Microsecond,
		EventPerKB: 4 * time.Microsecond,
	}
	if got := m.EventCost(0); got != 10*time.Microsecond {
		t.Fatalf("EventCost(0) = %v, want 10µs", got)
	}
	if got := m.EventCost(2048); got != 18*time.Microsecond {
		t.Fatalf("EventCost(2048) = %v, want 18µs", got)
	}
	if got := m.EventCost(512); got != 12*time.Microsecond {
		t.Fatalf("EventCost(512) = %v, want 12µs", got)
	}
}

func TestMirroringOverheadFraction(t *testing.T) {
	// Figure 4's premise: mirroring to one site costs ~15-20% of event
	// processing, growing with event size.
	for _, n := range []int{0, 1024, 4096, 8192} {
		mirror := Default.SerializeCost(n) + Default.SubmitCost(n)
		frac := float64(mirror) / float64(Default.EventCost(n))
		if frac < 0.10 || frac > 0.30 {
			t.Fatalf("size %d: one-mirror overhead fraction %.2f outside [0.10, 0.30]", n, frac)
		}
	}
}

func TestAdditionalMirrorUnderTenPercent(t *testing.T) {
	// Figure 5's premise: each additional mirror adds < 10%.
	for _, n := range []int{0, 1024, 8192} {
		oneMirror := Default.EventCost(n) + Default.SerializeCost(n) + Default.SubmitCost(n)
		added := Default.SubmitCost(n)
		if frac := float64(added) / float64(oneMirror); frac >= 0.10 {
			t.Fatalf("size %d: extra-mirror fraction %.2f >= 0.10", n, frac)
		}
	}
}

func TestRequestCostAtRealisticStateSize(t *testing.T) {
	// A realistic init-state snapshot (tens of flights → several KiB)
	// must cost at least as much as processing a small event, so
	// request bursts genuinely perturb event processing.
	if Default.RequestCost(6<<10) < Default.EventCost(0) {
		t.Fatal("init-state requests too cheap to perturb event processing")
	}
}

func TestCPULedgerAccrues(t *testing.T) {
	cpu := &CPU{}
	start := time.Now()
	var release time.Time
	for i := 0; i < 100; i++ {
		release = cpu.Charge(100 * time.Microsecond)
	}
	virtual := release.Sub(start)
	// 100 × 100µs = 10ms of booked work; allow the catch-up window of
	// slack on both sides.
	if virtual < 10*time.Millisecond-catchUpWindow {
		t.Fatalf("ledger advanced only %v, want ~10ms", virtual)
	}
	if virtual > 10*time.Millisecond+20*time.Millisecond {
		t.Fatalf("ledger advanced %v, far beyond 10ms", virtual)
	}
}

func TestCPUChargePacesWhenBacklogged(t *testing.T) {
	cpu := &CPU{}
	start := time.Now()
	for i := 0; i < 100; i++ {
		cpu.Charge(time.Millisecond) // 100ms booked
	}
	// Caller must have been paced to within sleepSlack of the ledger.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond-sleepSlack-catchUpWindow {
		t.Fatalf("caller ran %v ahead of a 100ms ledger", elapsed)
	}
}

func TestCPUsRunInParallel(t *testing.T) {
	// Two nodes each booking 100ms must finish in ~100ms wall, not
	// 200ms — the point of virtual CPUs on a single host core.
	a, b := &CPU{}, &CPU{}
	start := time.Now()
	var wg sync.WaitGroup
	for _, cpu := range []*CPU{a, b} {
		cpu := cpu
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cpu.Charge(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	WaitIdle(a, b)
	elapsed := time.Since(start)
	if elapsed > 160*time.Millisecond {
		t.Fatalf("two parallel 100ms nodes took %v, want ~100ms", elapsed)
	}
}

func TestCPUIdleDoesNotBackfill(t *testing.T) {
	cpu := &CPU{}
	cpu.Charge(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // genuine idle
	before := time.Now()
	release := cpu.Charge(time.Millisecond)
	// The release must be anchored near now, not at the old deadline.
	if release.Before(before.Add(-catchUpWindow)) {
		t.Fatalf("idle CPU back-filled: release %v before now", before.Sub(release))
	}
}

func TestWaitIdleReturnsLatest(t *testing.T) {
	a, b := &CPU{}, &CPU{}
	a.Charge(5 * time.Millisecond)
	rb := b.Charge(40 * time.Millisecond)
	latest := WaitIdle(a, b)
	if latest.Before(rb) {
		t.Fatalf("WaitIdle returned %v, want >= %v", latest, rb)
	}
	if time.Now().Before(rb) {
		t.Fatal("WaitIdle returned before the latest deadline passed")
	}
}

func TestWaitIdleNoCPUs(t *testing.T) {
	start := time.Now()
	WaitIdle()
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("WaitIdle with no CPUs must return immediately")
	}
}

func TestNilCPUSpins(t *testing.T) {
	var cpu *CPU
	start := time.Now()
	release := cpu.Charge(2 * time.Millisecond)
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("nil CPU must spin for the charge")
	}
	if release.Before(start) {
		t.Fatal("release must be after start")
	}
	if cpu.BusyUntil().IsZero() {
		t.Fatal("nil CPU BusyUntil must report now")
	}
}

func TestChargeNegativeDuration(t *testing.T) {
	cpu := &CPU{}
	r1 := cpu.Charge(time.Millisecond)
	r2 := cpu.Charge(-time.Second)
	if r2.Before(r1) {
		t.Fatal("negative charge must not rewind the ledger")
	}
}

func TestSpinBurnsApproximatelyRequestedTime(t *testing.T) {
	const d = 2 * time.Millisecond
	start := time.Now()
	Spin(d)
	elapsed := time.Since(start)
	if elapsed < d {
		t.Fatalf("Spin(%v) returned after %v", d, elapsed)
	}
	if elapsed > 20*d {
		t.Fatalf("Spin(%v) took %v, far too long", d, elapsed)
	}
}

func TestSpinZeroAndNegative(t *testing.T) {
	start := time.Now()
	Spin(0)
	Spin(-time.Second)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("Spin must return immediately for non-positive durations")
	}
}

func BenchmarkCharge(b *testing.B) {
	cpu := &CPU{}
	for i := 0; i < b.N; i++ {
		cpu.Charge(0)
	}
}

func TestBatchCosts(t *testing.T) {
	m := Model{
		SerializeBase:  2 * time.Microsecond,
		SerializePerKB: 1 * time.Microsecond,
		SubmitBase:     3 * time.Microsecond,
		SubmitPerKB:    4 * time.Microsecond,
	}
	// Serialization is per-event work: the batch form must equal the sum
	// of the per-event costs (one ledger operation, same total).
	if got, want := m.SerializeBatchCost(5, 5*1024), 5*m.SerializeCost(1024); got != want {
		t.Fatalf("SerializeBatchCost(5, 5KB) = %v, want %v", got, want)
	}
	// Submission pays the fixed cost once per batch: cheaper than the
	// per-event sum for any batch larger than one, identical at one.
	if got, want := m.SubmitBatchCost(1, 1024), m.SubmitCost(1024); got != want {
		t.Fatalf("SubmitBatchCost(1, 1KB) = %v, want %v", got, want)
	}
	batched := m.SubmitBatchCost(8, 8*1024)
	serial := 8 * m.SubmitCost(1024)
	if batched >= serial {
		t.Fatalf("SubmitBatchCost(8, 8KB) = %v, not below per-event sum %v", batched, serial)
	}
	if want := serial - 7*m.SubmitBase; batched != want {
		t.Fatalf("SubmitBatchCost(8, 8KB) = %v, want %v (one base per batch)", batched, want)
	}
	// Empty batches are free.
	if m.SerializeBatchCost(0, 0) != 0 || m.SubmitBatchCost(0, 0) != 0 {
		t.Fatal("empty batch must cost nothing")
	}
}

// TestChargeRunMatchesSingleCharges replays the ledger operation of
// ChargeRun against the one-charge-at-a-time rule on a simulated wall
// clock that advances only when the caller is paced: whatever the run
// length, every charge must get the completion instant, and leave the
// ledger, exactly as a Charge of its own would.
func TestChargeRunMatchesSingleCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := make([]time.Duration, 5000)
	for i := range costs {
		switch rng.Intn(10) {
		case 0:
			costs[i] = 0
		case 1:
			costs[i] = time.Duration(rng.Intn(12)) * time.Millisecond // paced on its own
		default:
			costs[i] = time.Duration(1+rng.Intn(90)) * time.Microsecond
		}
	}
	epoch := time.Now()
	// replay books costs in runs of runLen and returns each charge's
	// completion instant and the final ledger.
	replay := func(runLen int) (done []time.Time, ledger time.Time) {
		c := &CPU{}
		now := epoch
		for at := 0; at < len(costs); {
			end := at + runLen
			if end > len(costs) {
				end = len(costs)
			}
			for at < end {
				first, n := c.bookRun(now, costs[at:end])
				if n < 1 {
					t.Fatalf("bookRun booked %d charges", n)
				}
				// Charge's pacing: sleep until the ledger leads by the
				// catch-up window.
				if first.Sub(now) > sleepSlack {
					now = first.Add(-catchUpWindow)
				}
				at0 := at
				for ; at < at0+n; at++ {
					if at > at0 {
						first = first.Add(costs[at])
					}
					done = append(done, first)
				}
			}
		}
		return done, c.busyUntil
	}
	want, wantLedger := replay(1)
	for _, runLen := range []int{2, 64, 256, len(costs)} {
		got, ledger := replay(runLen)
		if !ledger.Equal(wantLedger) {
			t.Fatalf("runs of %d leave the ledger at %v, single charges at %v", runLen, ledger.Sub(epoch), wantLedger.Sub(epoch))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("runs of %d: charge %d completes at %v, alone at %v", runLen, i, got[i].Sub(epoch), want[i].Sub(epoch))
			}
		}
	}
}

// TestZeroChargeOnIdleLedgerCompletesNow: a charge that books nothing
// has nothing to queue behind on an idle ledger, so it completes at
// the wall clock — not the catch-up window in the past — while one
// that finds the ledger ahead still completes behind the booked work.
func TestZeroChargeOnIdleLedgerCompletesNow(t *testing.T) {
	for name, charge := range map[string]func(*CPU, time.Duration) time.Time{
		"Charge":      (*CPU).Charge,
		"ChargeAsync": (*CPU).ChargeAsync,
	} {
		cpu := &CPU{}
		before := time.Now()
		if got := charge(cpu, 0); got.Before(before) {
			t.Fatalf("%s(0) on a fresh ledger completed %v in the past", name, before.Sub(got))
		}
		busy := charge(cpu, 6*time.Millisecond) // leads the wall clock by ~2ms
		if got := charge(cpu, 0); !got.Equal(busy) {
			t.Fatalf("%s(0) behind booked work completed at %v, want the ledger's %v", name, got, busy)
		}
		time.Sleep(time.Until(busy) + time.Millisecond)
		before = time.Now()
		if got := charge(cpu, 0); got.Before(before) {
			t.Fatalf("%s(0) on a drained ledger completed %v in the past", name, before.Sub(got))
		}
	}
}

// TestChargeRunBooksZeroCostPrefixAtOnce: on an idle ledger a run's
// leading zero-cost charges are booked together with one clock read
// and leave the ledger untouched; a mixed run stops at its first
// positive cost, which the next call books on the ledger.
func TestChargeRunBooksZeroCostPrefixAtOnce(t *testing.T) {
	cpu := &CPU{}
	before := time.Now()
	first, n := cpu.ChargeRun([]time.Duration{0, 0, 0, 0})
	if n != 4 {
		t.Fatalf("all-zero run booked %d charges, want 4", n)
	}
	if first.Before(before) || first.After(time.Now()) {
		t.Fatalf("zero-cost run completed at %v, outside the call", first.Sub(before))
	}
	if !cpu.BusyUntil().IsZero() {
		t.Fatal("zero-cost run touched the ledger")
	}

	costs := []time.Duration{0, 0, time.Microsecond, 0}
	if _, n := cpu.ChargeRun(costs); n != 2 {
		t.Fatalf("mixed run booked %d charges, want the 2-charge zero prefix", n)
	}
	if _, n := cpu.ChargeRun(costs[2:]); n != 2 {
		t.Fatalf("rest of the mixed run booked %d charges, want 2", n)
	}
	if cpu.BusyUntil().IsZero() {
		t.Fatal("the positive charge was not booked on the ledger")
	}

	// Behind booked work a zero-cost run completes with the ledger.
	busy := cpu.Charge(6 * time.Millisecond)
	if first, n := cpu.ChargeRun([]time.Duration{0, 0, 0}); n != 3 || !first.Equal(busy) {
		t.Fatalf("zero-cost run behind booked work: n=%d at %v, want 3 at the ledger's %v", n, first, busy)
	}
}

// TestNilCPUChargeRunCompletesZeroTailTogether: a nil CPU spins the
// first charge and completes the zero-cost charges after it at the
// same instant, stopping at the next positive cost.
func TestNilCPUChargeRunCompletesZeroTailTogether(t *testing.T) {
	var cpu *CPU
	if _, n := cpu.ChargeRun([]time.Duration{0, 0, 0}); n != 3 {
		t.Fatalf("all-zero run booked %d charges, want 3", n)
	}
	start := time.Now()
	first, n := cpu.ChargeRun([]time.Duration{time.Millisecond, 0, 0, time.Microsecond})
	if n != 3 {
		t.Fatalf("run booked %d charges, want the spun charge and its 2-charge zero tail", n)
	}
	if first.Sub(start) < time.Millisecond {
		t.Fatalf("completed %v after the call began, want the 1ms spin", first.Sub(start))
	}
}
