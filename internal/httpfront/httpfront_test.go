package httpfront

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adaptmirror/internal/core"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/status"
)

func front(t *testing.T, cfg core.MainConfig) (*Front, string, *core.MainUnit) {
	t.Helper()
	m := core.NewMainUnit(cfg)
	f := New(m)
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		m.Close()
	})
	return f, addr, m
}

func TestInitServesState(t *testing.T) {
	f, addr, m := front(t, core.MainConfig{})
	m.Deliver(event.NewPosition(1, 1, 10, 20, 30000, 64))
	m.Deliver(event.NewPosition(2, 2, 11, 21, 31000, 64))

	resp, err := http.Get("http://" + addr + "/init")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty init state")
	}
	if got := f.Stats().Requests; got != 1 {
		t.Fatalf("Requests = %d, want 1", got)
	}
}

// TestInitContentLength: the init state goes out in one unchunked body
// whose declared length is the snapshot's size, carrying exactly the
// reference encoder's bytes.
func TestInitContentLength(t *testing.T) {
	_, addr, m := front(t, core.MainConfig{EDE: ede.Config{StatePadding: 64}})
	// Well past net/http's 2 KB chunking threshold.
	const flights = 200
	for f := event.FlightID(0); f < flights; f++ {
		m.Deliver(event.NewPosition(f, uint64(f+1), 1, 2, 3, 64))
	}
	if err := m.Barrier(func() {}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/init")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("Transfer-Encoding = %v, want none", resp.TransferEncoding)
	}
	want := m.Engine().State().SnapshotSize()
	if resp.ContentLength != int64(len(body)) || len(body) != want {
		t.Fatalf("Content-Length %d, body %d bytes, SnapshotSize %d: want all equal",
			resp.ContentLength, len(body), want)
	}
	if !bytes.Equal(body, m.Engine().State().Snapshot()) {
		t.Fatal("served body differs from the reference snapshot")
	}
}

func TestInitRejectsNonGet(t *testing.T) {
	_, addr, _ := front(t, core.MainConfig{})
	resp, err := http.Post("http://"+addr+"/init", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, addr, _ := front(t, core.MainConfig{})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, addr, m := front(t, core.MainConfig{})
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))
	for i := 0; i < 3; i++ {
		resp, err := http.Get("http://" + addr + "/init")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Fatalf("stats requests = %d, want 3", st.Requests)
	}
	if st.Bytes == 0 {
		t.Fatal("stats bytes = 0")
	}
	if st.SnapshotHits+st.SnapshotMisses != 3 {
		t.Fatalf("snapshot hits+misses = %d+%d, want 3", st.SnapshotHits, st.SnapshotMisses)
	}
	if st.SnapshotMisses == 0 {
		t.Fatal("first /init against fresh state must be a cache miss")
	}
}

func TestClosedMainUnitReturns503(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	f := New(m)
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m.Close()
	resp, err := http.Get("http://" + addr + "/init")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestListenBadAddr(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	defer m.Close()
	f := New(m)
	if _, err := f.Listen("256.256.256.256:99999"); err == nil {
		t.Fatal("bad address must fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, m := front(t, core.MainConfig{RequestWorkers: 2})
	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			resp, err := http.Get("http://" + addr + "/init")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestUpdateEndpoint(t *testing.T) {
	var got []*event.Event
	m := core.NewMainUnit(core.MainConfig{})
	f := New(m)
	f.EnableUpdates(func(e *event.Event) error {
		got = append(got, e)
		return nil
	})
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer m.Close()

	e := event.NewStatus(9, 1, event.StatusDeparted, 64)
	resp, err := http.Post("http://"+addr+"/update", "application/octet-stream",
		bytes.NewReader(e.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if len(got) != 1 || got[0].Flight != 9 || got[0].Status != event.StatusDeparted {
		t.Fatalf("ingested = %v", got)
	}
	if f.Stats().Updates != 1 {
		t.Fatalf("Updates stat = %d", f.Stats().Updates)
	}
}

func TestUpdateRejectedWhenDisabled(t *testing.T) {
	_, addr, _ := front(t, core.MainConfig{})
	e := event.NewStatus(1, 1, event.StatusDeparted, 16)
	resp, err := http.Post("http://"+addr+"/update", "application/octet-stream",
		bytes.NewReader(e.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403 (mirror sites do not ingest)", resp.StatusCode)
	}
}

func TestUpdateRejectsGarbageAndControl(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	f := New(m)
	f.EnableUpdates(func(*event.Event) error { return nil })
	addr, _ := f.Listen("127.0.0.1:0")
	defer f.Close()
	defer m.Close()

	resp, _ := http.Post("http://"+addr+"/update", "application/octet-stream",
		bytes.NewReader([]byte{1, 2, 3}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d, want 400", resp.StatusCode)
	}
	ctrl := event.NewControl(event.TypeChkpt, nil)
	resp, _ = http.Post("http://"+addr+"/update", "application/octet-stream",
		bytes.NewReader(ctrl.Marshal()))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("control status = %d, want 400", resp.StatusCode)
	}
	// GET not allowed.
	resp, _ = http.Get("http://" + addr + "/update")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	m := core.NewMainUnit(core.MainConfig{Obs: reg, Site: "central"})
	f := NewWithRegistry(m, reg)
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer m.Close()
	if f.Registry() != reg {
		t.Fatal("Registry() must expose the shared registry")
	}

	m.Deliver(event.NewPosition(1, 1, 0, 0, 0, 32))
	if _, err := m.RequestInitState(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`http_requests_total{site="central"} 0`,
		`pending_requests{site="central"} 0`,
		`snapshot_cache_misses_total{site="central"} 1`,
		`requests_served_total{site="central"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if err := obs.LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, out)
	}
}

// Two fronts sharing one registry keep their own http_* series: each is
// labeled with its main unit's site.
func TestFrontsShareRegistryBySite(t *testing.T) {
	reg := obs.NewRegistry()
	var fronts []*Front
	for _, site := range []string{"mirror0", "mirror1"} {
		m := core.NewMainUnit(core.MainConfig{Obs: reg, Site: site})
		defer m.Close()
		fronts = append(fronts, NewWithRegistry(m, reg))
	}
	rec := httptest.NewRecorder()
	fronts[0].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/init", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /init = %d", rec.Code)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`http_requests_total{site="mirror0"} 1`,
		`http_requests_total{site="mirror1"} 0`,
		`http_uptime_seconds{site="mirror0"}`,
		`http_uptime_seconds{site="mirror1"}`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("shared registry missing %q:\n%s", want, b.String())
		}
	}
}

// TestConcurrentScrapesDuringStorm drives an update storm plus /init
// traffic while hammering /stats and /metrics: the handlers must stay
// race-clean and the counters monotone across scrapes.
func TestConcurrentScrapesDuringStorm(t *testing.T) {
	reg := obs.NewRegistry()
	m := core.NewMainUnit(core.MainConfig{Obs: reg, Site: "central", RequestWorkers: 2})
	f := NewWithRegistry(m, reg)
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer m.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Update storm straight into the main unit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Deliver(event.NewPosition(event.FlightID(i%64), i, 1, 2, 3, 64))
		}
	}()
	// Client init requests, so the serving counters move too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + "/init")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	scrape := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	metricValue := func(exposition, name string) float64 {
		for _, line := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				fields := strings.Fields(line)
				v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
				if err != nil {
					t.Fatalf("bad value in %q: %v", line, err)
				}
				return v
			}
		}
		return -1
	}

	var scrapeWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var lastServed, lastProcessed float64
			var lastStats Stats
			for i := 0; i < 25; i++ {
				out, err := scrape("/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				if err := obs.LintPrometheus(strings.NewReader(out)); err != nil {
					t.Errorf("mid-storm scrape fails lint: %v", err)
					return
				}
				served := metricValue(out, "requests_served_total")
				processed := metricValue(out, "events_processed_total")
				if served < lastServed || processed < lastProcessed {
					t.Errorf("counter went backwards: served %v→%v, processed %v→%v",
						lastServed, served, lastProcessed, processed)
					return
				}
				lastServed, lastProcessed = served, processed

				raw, err := scrape("/stats")
				if err != nil {
					t.Error(err)
					return
				}
				var st Stats
				if err := json.Unmarshal([]byte(raw), &st); err != nil {
					t.Errorf("bad /stats payload %q: %v", raw, err)
					return
				}
				if st.Requests < lastStats.Requests || st.Bytes < lastStats.Bytes {
					t.Errorf("/stats went backwards: %+v after %+v", st, lastStats)
					return
				}
				lastStats = st
			}
		}()
	}
	scrapeWG.Wait()
	close(stop)
	wg.Wait()
}

// TestClusterStatusEndpoint pins the /cluster/status contract: 404
// until a document source is installed with SetStatus, 405 on non-GET,
// then a JSON document built fresh per request.
func TestClusterStatusEndpoint(t *testing.T) {
	f, addr, _ := front(t, core.MainConfig{})
	url := "http://" + addr + "/cluster/status"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-SetStatus status = %d, want 404", resp.StatusCode)
	}

	calls := 0
	f.SetStatus(func() status.Document {
		calls++
		return status.Document{Site: "central", Role: "central"}
	})

	resp, err = http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}

	for i := 1; i <= 2; i++ {
		resp, err = http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var doc status.Document
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if doc.Site != "central" || doc.Role != "central" {
			t.Fatalf("document = %+v", doc)
		}
		if calls != i {
			t.Fatalf("builder ran %d times after %d GETs, want fresh per request", calls, i)
		}
	}
}
