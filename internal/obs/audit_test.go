package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func TestAuditRingWraparound(t *testing.T) {
	l := NewAuditLog(4)
	for i := 0; i < 10; i++ {
		l.Append(AuditEntry{Action: "engage", Value: i})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	es := l.Entries()
	for i, e := range es {
		if want := 6 + i; e.Value != want {
			t.Errorf("entry %d Value = %d, want %d", i, e.Value, want)
		}
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("entry %d Seq = %d, want %d", i, e.Seq, want)
		}
		if e.At.IsZero() {
			t.Errorf("entry %d missing timestamp", i)
		}
	}
}

func TestAuditNilSafe(t *testing.T) {
	var l *AuditLog
	l.Append(AuditEntry{})
	if l.Entries() != nil || l.Len() != 0 || l.Total() != 0 {
		t.Fatal("nil audit log should be empty")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditDurableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l := NewAuditLog(2) // ring smaller than the entry count
	if err := l.OpenDurable(path); err != nil {
		t.Fatal(err)
	}
	entries := []AuditEntry{
		{Action: "engage", RegimeID: 1, Regime: "coalesce-10", Var: "backup-queue", Value: 600, Primary: 512, Secondary: 128, Ready: 3, Backup: 600, Pending: 2},
		{Action: "revert", RegimeID: 0, Regime: "baseline", Var: "backup-queue", Value: 100, Primary: 512, Secondary: 128, Ready: 0, Backup: 100, Pending: 0},
		{Action: "engage", RegimeID: 2, Regime: "overwrite-20", Var: "pending-requests", Value: 900, Primary: 800, Secondary: 100, Ready: 1, Backup: 50, Pending: 900},
	}
	for _, e := range entries {
		l.Append(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The durable file keeps everything, including what the ring evicted.
	got, err := ReadAuditLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		w := entries[i]
		if e.Action != w.Action || e.RegimeID != w.RegimeID || e.Regime != w.Regime ||
			e.Var != w.Var || e.Value != w.Value || e.Primary != w.Primary ||
			e.Secondary != w.Secondary || e.Ready != w.Ready || e.Backup != w.Backup ||
			e.Pending != w.Pending {
			t.Errorf("entry %d = %+v, want fields of %+v", i, e, w)
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("entry %d Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("ring Len = %d, want 2", l.Len())
	}
}

func TestAuditConcurrent(t *testing.T) {
	l := NewAuditLog(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(AuditEntry{Action: "engage"})
				l.Entries()
			}
		}()
	}
	wg.Wait()
	if l.Total() != 800 {
		t.Fatalf("Total = %d, want 800", l.Total())
	}
}

// TestAuditDurableWriteFailureReported: an entry that never reaches the
// durable file is reported by Close, not dropped silently.
func TestAuditDurableWriteFailureReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	l := NewAuditLog(4)
	if err := l.OpenDurable("/dev/full"); err != nil {
		t.Fatal(err)
	}
	l.Append(AuditEntry{Action: "engage"})
	l.Append(AuditEntry{Action: "revert"})
	err := l.Close()
	if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "entry 1") {
		t.Fatalf("Close = %v, want the ENOSPC that lost entry 1", err)
	}
	if l.Len() != 2 {
		t.Fatalf("ring holds %d entries, want 2", l.Len())
	}
}
