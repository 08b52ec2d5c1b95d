// Package httpfront exposes a site's client services over HTTP — the
// interface the paper's experiments exercised with httperf. Thin
// clients GET /init to fetch a fresh initialization state from the
// site's main unit; /healthz and /stats support operations. The
// deployed binaries (cmd/mirrord) mount one front per site, and
// cmd/loadgen plays httperf's role against it.
package httpfront

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/status"
)

// Stats summarizes a front's request handling.
type Stats struct {
	Requests  uint64 `json:"requests"`
	Updates   uint64 `json:"updates"`
	Busy      uint64 `json:"busy"`
	Bytes     uint64 `json:"bytes"`
	UptimeSec int64  `json:"uptime_sec"`
	Pending   int    `json:"pending"`
	// SnapshotHits/SnapshotMisses are the main unit's init-state
	// snapshot-cache counters: hits were served from the cached
	// segments alone, misses rebuilt at least one.
	SnapshotHits   uint64 `json:"snapshot_hits"`
	SnapshotMisses uint64 `json:"snapshot_misses"`
}

// Front serves one site's client requests over HTTP. Counters are
// atomics so stats accounting never serializes concurrent /init
// handlers.
type Front struct {
	main     *core.MainUnit
	reg      *obs.Registry
	ingest   atomic.Pointer[func(*event.Event) error]
	statusFn atomic.Pointer[func() status.Document]
	srv      *http.Server
	ln       net.Listener
	start    time.Time

	requests atomic.Uint64
	busy     atomic.Uint64
	bytes    atomic.Uint64
	updates  atomic.Uint64
}

// The front's own families, labeled with the main unit's site so the
// fronts of several sites can share one registry.
var (
	famRequests = obs.Declare("http_requests_total", obs.KindCounter, "Init-state requests answered over HTTP.")
	famUpdates  = obs.Declare("http_updates_total", obs.KindCounter, "Client-generated updates accepted over HTTP.")
	famBusy     = obs.Declare("http_busy_total", obs.KindCounter, "Init-state requests rejected with the buffer full.")
	famBytes    = obs.Declare("http_bytes_total", obs.KindCounter, "Init-state bytes served over HTTP.")
	famUptime   = obs.Declare("http_uptime_seconds", obs.KindGauge, "Seconds since the front started.")
)

// New builds a front for the given main unit (not yet listening) with
// a private metrics registry serving only the front's own counters.
func New(main *core.MainUnit) *Front {
	return NewWithRegistry(main, obs.NewRegistry())
}

// NewWithRegistry builds a front exporting reg at /metrics in the
// Prometheus text format, alongside the front's own http_* counters.
// Pass the site's shared registry so one scrape covers the whole site.
func NewWithRegistry(main *core.MainUnit, reg *obs.Registry) *Front {
	f := &Front{main: main, reg: reg, start: time.Now()}
	site := obs.L("site", main.Site())
	reg.Func(famRequests, obs.Load(&f.requests), site)
	reg.Func(famUpdates, obs.Load(&f.updates), site)
	reg.Func(famBusy, obs.Load(&f.busy), site)
	reg.Func(famBytes, obs.Load(&f.bytes), site)
	reg.Func(famUptime, func() float64 { return time.Since(f.start).Seconds() }, site)
	mux := http.NewServeMux()
	mux.HandleFunc("/init", f.handleInit)
	mux.HandleFunc("/update", f.handleUpdate)
	mux.HandleFunc("/healthz", f.handleHealth)
	mux.HandleFunc("/stats", f.handleStats)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/cluster/status", f.handleClusterStatus)
	f.srv = &http.Server{Handler: mux}
	return f
}

// Registry exposes the registry served at /metrics.
func (f *Front) Registry() *obs.Registry { return f.reg }

// Handler exposes the front's full mux (/init, /update, /healthz,
// /stats, /metrics, /cluster/status) so the same routes can be bound
// on an additional listener (cmd/mirrord's -statusaddr).
func (f *Front) Handler() http.Handler { return f.srv.Handler }

// SetStatus installs the provider behind GET /cluster/status. Until one
// is installed the endpoint answers 404.
func (f *Front) SetStatus(fn func() status.Document) {
	f.statusFn.Store(&fn)
}

// EnableUpdates accepts client-generated state updates at POST /update
// (the paper: "certain clients may generate additional state updates,
// such as changes in flights, crews, or passengers"). Only the central
// site's front should enable this — events enter the OIS through the
// central receiving task, which assigns their timestamps.
func (f *Front) EnableUpdates(ingest func(*event.Event) error) {
	f.ingest.Store(&ingest)
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. It returns the bound address.
func (f *Front) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("httpfront: %w", err)
	}
	f.ln = ln
	go f.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// handleInit answers a thin client's initialization-state request. The
// X-Init-VT response header carries the main unit's progress timestamp
// so the client can anchor its update-stream stale/gap tracking at the
// snapshot instead of at zero (a client that re-initializes mid-stream
// would otherwise re-count every buffered update as fresh). The anchor
// is captured BEFORE the snapshot is requested: an anchor at or below
// the snapshot's coverage is safe (re-applied updates are idempotent),
// one above it would silently drop the updates in between.
func (f *Front) handleInit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	anchor := f.main.LastProcessed()
	state, err := f.main.RequestInitState()
	switch {
	case errors.Is(err, core.ErrBusy):
		f.busy.Add(1)
		http.Error(w, "request buffer full", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	size := state.Len()
	f.requests.Add(1)
	f.bytes.Add(uint64(size))
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(size))
	h.Set("X-Init-VT", anchor.String())
	// One Write of a declared length goes out unchunked in as few
	// syscalls as the socket allows (a Write per segment costs one
	// each). The buffer returns to the pool only after Write returns.
	buf := initBufs.Get().(*[]byte)
	*buf = state.AppendTo((*buf)[:0])
	w.Write(*buf)
	initBufs.Put(buf)
}

// initBufs recycles /init response buffers across requests, so serving
// a snapshot costs a copy of its segments but no allocation.
var initBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxUpdateBody bounds a POST /update body; a single encoded event is
// far smaller.
const maxUpdateBody = 1 << 20

// handleUpdate ingests one client-generated update: the POST body is
// a single binary-encoded event.
func (f *Front) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ingest := f.ingest.Load()
	if ingest == nil {
		http.Error(w, "updates not accepted at this site", http.StatusForbidden)
		return
	}
	// Read one byte past the limit so an oversized body is
	// distinguishable from one that merely fills it: a LimitReader at
	// the limit would silently truncate and then fail (or worse,
	// succeed) on a partial event.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUpdateBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxUpdateBody {
		http.Error(w, "update body exceeds 1MiB", http.StatusRequestEntityTooLarge)
		return
	}
	e, n, err := event.Unmarshal(body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad event: %v", err), http.StatusBadRequest)
		return
	}
	if n != len(body) {
		// A body with trailing garbage is a malformed request, not "an
		// event plus noise we happen to ignore".
		http.Error(w, fmt.Sprintf("bad event: %d trailing bytes", len(body)-n), http.StatusBadRequest)
		return
	}
	if !e.Type.IsData() {
		http.Error(w, "control events not accepted", http.StatusBadRequest)
		return
	}
	if err := (*ingest)(e); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	f.updates.Add(1)
	w.WriteHeader(http.StatusAccepted)
}

func (f *Front) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (f *Front) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.Stats())
}

// handleClusterStatus serves the aggregated cluster-status document as
// JSON (the central site's view, or a mirror's local one).
func (f *Front) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fn := f.statusFn.Load()
	if fn == nil {
		http.Error(w, "cluster status not available at this site", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode((*fn)())
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (f *Front) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.reg.WritePrometheus(w)
}

// Stats returns a snapshot of the front's counters.
func (f *Front) Stats() Stats {
	hits, misses := f.main.SnapshotCacheStats()
	return Stats{
		Requests:       f.requests.Load(),
		Updates:        f.updates.Load(),
		Busy:           f.busy.Load(),
		Bytes:          f.bytes.Load(),
		UptimeSec:      int64(time.Since(f.start).Seconds()),
		Pending:        f.main.PendingRequests(),
		SnapshotHits:   hits,
		SnapshotMisses: misses,
	}
}

// Close stops the server.
func (f *Front) Close() error {
	return f.srv.Close()
}
