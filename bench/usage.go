package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a reading of what the process has consumed so far.
type usage struct {
	cpu time.Duration // user + system
	mem runtime.MemStats
}

func takeUsage() usage {
	u := usage{cpu: cpuTime()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// cpuTime is the user + system CPU time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peakRSSMB reads the peak of the measured window and not of the
// set-ups (or of an earlier workload run by the same process). Where
// the kernel refuses, the mark stays process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in
// MB; 0 where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ratio is num/den, 0 when den is 0: an idle layer reads 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters derives the per-layer metrics that come from the
// system's public counters and the benchmark's own spans, over the
// measured window (c0/begin at its start, c1/end at its end).
func (h *harness) layerCounters(res *result, c0, c1 counters, begin, end usage, ob *observer,
	fs *feedStats, cycles []cycle, callMs []float64, events, elapsed float64) {
	v := res.Vals
	v["event.slab_pool_hit_ratio"] = ratio(float64(c1.slabHit-c0.slabHit),
		float64(c1.slabHit-c0.slabHit+c1.slabMiss-c0.slabMiss))
	v["queue.ready_len_mean"] = ob.ready.mean()
	v["queue.backup_len_max"] = ob.backup.max
	v["ede.snapshot_cache_hit_ratio"] = ratio(float64(c1.cacheHit-c0.cacheHit),
		float64(c1.cacheHit-c0.cacheHit+c1.cacheMiss-c0.cacheMiss))

	sort.Float64s(fs.ingestNs)
	v["core.ingest_call_ns_p99"] = percentile(fs.ingestNs, 99)
	v["core.mirrored_ratio"] = ratio(float64(c1.stats.Mirrored-c0.stats.Mirrored),
		float64(c1.stats.Received-c0.stats.Received))
	v["core.outbox_depth_max"] = ob.outbox.max
	var stall time.Duration
	var dropped uint64
	for i := range c1.links {
		stall += c1.links[i].Stall - c0.links[i].Stall
		dropped += c1.links[i].Dropped - c0.links[i].Dropped
	}
	v["core.link_stall_share"] = ratio(stall.Seconds(), elapsed*float64(len(c1.links)))
	v["core.link_dropped"] = float64(dropped)
	v["core.events_per_wire_batch"] = ratio(float64(c1.wireEvents-c0.wireEvents),
		float64(c1.wireBatches-c0.wireBatches))
	v["core.main_queue_len_max"] = ob.mainQ.max
	v["core.pending_requests_max"] = ob.pending.max
	v["core.served_per_site"] = float64(c1.served-c0.served) / float64(len(h.cl.Mirrors))

	v["checkpoint.round_call_ms_p50"] = median(ob.chkptMs)
	rounds := float64(c1.stats.ChkptRounds - c0.stats.ChkptRounds)
	v["checkpoint.rounds_per_kevent"] = ratio(rounds*1000, events)
	v["checkpoint.commit_ratio"] = ratio(float64(c1.stats.ChkptCommits-c0.stats.ChkptCommits), rounds)

	v["core.rejoin_call_ms_p50"] = median(callMs)
	rj0, rj1 := c0.rejoin, c1.rejoin
	v["core.rejoin_delta_bytes"] = ratio(float64(rj1.DeltaBytes-rj0.DeltaBytes), float64(rj1.Deltas-rj0.Deltas))
	v["core.rejoin_snapshot_bytes"] = ratio(float64(rj1.SnapshotBytes-rj0.SnapshotBytes), float64(rj1.Snapshots-rj0.Snapshots))
	replayed := 0
	for _, c := range cycles {
		replayed += c.replayed
	}
	v["core.rejoin_replayed_events"] = ratio(float64(replayed), float64(len(cycles)))

	reqs := float64(c1.front.Requests - c0.front.Requests)
	busy := float64(c1.front.Busy - c0.front.Busy)
	v["httpfront.busy_share"] = ratio(busy, reqs+busy)
	v["httpfront.bytes_per_s"] = ratio(float64(c1.front.Bytes-c0.front.Bytes), elapsed)

	v["go.alloc_bytes_per_event"] = ratio(float64(end.mem.TotalAlloc-begin.mem.TotalAlloc), events)
	v["go.allocs_per_event"] = ratio(float64(end.mem.Mallocs-begin.mem.Mallocs), events)
	v["go.gc_pause_ms_total"] = float64(end.mem.PauseTotalNs-begin.mem.PauseTotalNs) / 1e6
	v["go.gc_cycles"] = float64(end.mem.NumGC - begin.mem.NumGC)

	sort.Float64s(fs.lateMs)
	v["bench.gen_late_p99_ms"] = percentile(fs.lateMs, 99)
}
