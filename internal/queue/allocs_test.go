package queue

import (
	"testing"

	"adaptmirror/internal/event"
	"adaptmirror/internal/vclock"
)

// TestQueueAllocs pins the allocation budgets of the queues' per-batch
// paths: a 64-event Ready.PutBatch drained by GetAppend into a reused
// slice, and a Backup.AppendOwnedBatch of the same batch trimmed by the
// Commit of its last timestamp.
func TestQueueAllocs(t *testing.T) {
	const readyBudget, backupBudget = 0, 3
	batch := make([]*event.Event, 64)
	for i := range batch {
		batch[i] = &event.Event{Type: event.TypeFAAPosition, Seq: uint64(i + 1), VT: vclock.VC{0}}
	}
	ready := NewReady(0)
	got := make([]*event.Event, 0, len(batch))
	if n := testing.AllocsPerRun(100, func() {
		_ = ready.PutBatch(batch)
		got, _ = ready.GetAppend(got[:0], len(batch))
	}); n > readyBudget {
		t.Fatalf("ready PutBatch+GetAppend allocates %v times, budget %v", n, readyBudget)
	}

	backup := NewBackup()
	release := func() {}
	seq := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		for _, e := range batch {
			seq++
			e.VT[0] = seq
		}
		backup.AppendOwnedBatch(batch, release)
		backup.Commit(batch[len(batch)-1].VT)
	}); n > backupBudget {
		t.Fatalf("backup AppendOwnedBatch+Commit allocates %v times, budget %v", n, backupBudget)
	}
	if backup.Len() != 0 {
		t.Fatalf("backup retains %d events after committing every batch", backup.Len())
	}
}
