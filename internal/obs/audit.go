package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// AuditEntry records one adaptation decision: the action taken, the
// regime installed, the monitored variable (and its thresholds) that
// drove the decision, and the full sample the controller observed.
// Self-adaptation evaluation needs exactly this — every decision
// logged with the values that triggered it — so regime flapping and
// threshold tuning can be diagnosed after the fact.
type AuditEntry struct {
	// Seq numbers entries in decision order (stamped by the log).
	Seq uint64 `json:"seq"`
	// At is the decision instant (stamped by the log when zero).
	At time.Time `json:"at"`
	// Action is "engage" (degraded regime installed), "revert"
	// (baseline reinstalled), or "promotion" (the central role moved to
	// a warm-standby mirror; see OldCentral/NewCentral/Epoch).
	Action string `json:"action"`
	// RegimeID/Regime identify the regime installed by the action.
	RegimeID uint8  `json:"regime_id"`
	Regime   string `json:"regime,omitempty"`
	// Site names the site whose sample drove the decision ("central"
	// or "mirror<N>"): under the per-site revert rule, the engage names
	// the overloaded site and the revert names the site whose report
	// completed the all-calm streak.
	Site string `json:"site,omitempty"`
	// Var is the monitored variable judged against Primary/Secondary:
	// for an engage, the variable whose value reached Primary; for a
	// revert, the variable that had engaged (its value is now below
	// Primary-Secondary, as are all others).
	Var string `json:"var"`
	// Value is Var's value in the observed sample.
	Value int `json:"value"`
	// Primary/Secondary are Var's configured thresholds.
	Primary   int `json:"primary"`
	Secondary int `json:"secondary"`
	// Ready/Backup/Pending are the full observed core.Sample; the
	// wire-telemetry extension fields are omitted when zero so
	// pre-telemetry audit files round-trip unchanged.
	Ready   int `json:"ready"`
	Backup  int `json:"backup"`
	Pending int `json:"pending"`
	// WireBytes/Outbox/ApplyLag are the sample's wire-telemetry
	// monitored variables (EWMA bytes/round on the busiest link,
	// deepest windowed outbox high-water mark, worst smoothed mirror
	// apply lag in microseconds).
	WireBytes int `json:"wire_bytes,omitempty"`
	Outbox    int `json:"outbox,omitempty"`
	ApplyLag  int `json:"apply_lag,omitempty"`
	// OldCentral/NewCentral identify the sites the central role moved
	// between, and Epoch the promotion epoch entered, when Action is
	// "promotion" (warm-standby failover). Omitted on adaptation
	// entries so pre-failover audit files round-trip unchanged.
	OldCentral string `json:"old_central,omitempty"`
	NewCentral string `json:"new_central,omitempty"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// DefaultAuditCap is the ring capacity when NewAuditLog is given 0.
const DefaultAuditCap = 256

// AuditLog retains adaptation decisions in a bounded ring, optionally
// mirroring every entry to a durable append-only JSON-lines file (the
// oislog-style option: one self-framing record per decision, synced on
// write — decisions are rare, so durability costs nothing on the data
// path). All methods are safe for concurrent use; a nil log ignores
// appends.
type AuditLog struct {
	mu   sync.Mutex
	buf  []AuditEntry
	head int // index of oldest entry
	n    int
	seq  uint64
	f    *os.File
	werr error // first failure to write an entry to f; Close returns it
}

// NewAuditLog returns a ring of the given capacity (0 uses
// DefaultAuditCap).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		capacity = DefaultAuditCap
	}
	return &AuditLog{buf: make([]AuditEntry, capacity)}
}

// OpenDurable mirrors subsequent entries to a JSON-lines file at path
// (created or appended to).
func (l *AuditLog) OpenDurable(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: audit log: %w", err)
	}
	l.mu.Lock()
	l.f = f
	l.mu.Unlock()
	return nil
}

// Append records one decision, stamping Seq and (when zero) At.
func (l *AuditLog) Append(e AuditEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if e.At.IsZero() {
		e.At = time.Now()
	}
	if l.n == len(l.buf) {
		l.buf[l.head] = e
		l.head = (l.head + 1) % len(l.buf)
	} else {
		l.buf[(l.head+l.n)%len(l.buf)] = e
		l.n++
	}
	if l.f != nil && l.werr == nil {
		b, err := json.Marshal(e)
		if err == nil {
			_, err = l.f.Write(append(b, '\n'))
		}
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.werr = fmt.Errorf("obs: audit log entry %d: %w", e.Seq, err)
		}
	}
}

// Entries returns the retained entries, oldest first.
func (l *AuditLog) Entries() []AuditEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.head+i)%len(l.buf)])
	}
	return out
}

// Len returns the number of retained entries.
func (l *AuditLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the number of entries ever appended (the ring may
// retain fewer).
func (l *AuditLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close closes the durable file, if one is open. It returns the first
// error that kept an entry from the file, joined with the close error:
// entries from that one on may be missing.
func (l *AuditLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := errors.Join(l.werr, l.f.Close())
	l.f, l.werr = nil, nil
	return err
}

// ReadAuditLog parses a durable audit file back into entries.
func ReadAuditLog(path string) ([]AuditEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: audit log: %w", err)
	}
	defer f.Close()
	var out []AuditEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e AuditEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return out, fmt.Errorf("obs: audit log %s: %w", path, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: audit log %s: %w", path, err)
	}
	return out, nil
}
