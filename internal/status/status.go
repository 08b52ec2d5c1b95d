// Package status assembles the cluster-status document served from the
// /cluster/status control API (cf. ipfs-cluster's REST status and
// TerraServer's operations experience: a production cluster needs one
// aggregated, queryable view of per-link and per-site health). The
// central site builds the full ClusterStatus — its own regime and
// monitored variables, per-link wire telemetry, per-site regime and
// sample rows, rejoin-transfer accounting, checkpoint cut progress, and
// the tail of the adaptation audit log; mirror sites build a local
// document covering their applier state and monitored variables.
package status

import (
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/checkpoint"
	"adaptmirror/internal/core"
	"adaptmirror/internal/obs"
)

// Regime describes the mirroring regime installed at a site.
type Regime struct {
	ID   uint8  `json:"id"`
	Name string `json:"name,omitempty"`
	// FieldDeltas reports whether the regime ships field-level state
	// deltas in place of raw data events.
	FieldDeltas bool `json:"field_deltas"`
	// Engaged is true while the adaptation controller has a degraded
	// regime installed (central document only).
	Engaged bool `json:"engaged,omitempty"`
	// DirectiveRound is the checkpoint round that carried the
	// currently installed directive (0 before the first one).
	DirectiveRound uint64 `json:"directive_round"`
}

// Sample mirrors core.Sample for JSON.
type Sample struct {
	Ready     int `json:"ready"`
	Backup    int `json:"backup"`
	Pending   int `json:"pending"`
	WireBytes int `json:"wire_bytes"`
	Outbox    int `json:"outbox"`
	ApplyLag  int `json:"apply_lag"`
}

// FromSample converts a core.Sample.
func FromSample(s core.Sample) Sample {
	return Sample{
		Ready:     s.Ready,
		Backup:    s.Backup,
		Pending:   s.Pending,
		WireBytes: s.WireBytes,
		Outbox:    s.Outbox,
		ApplyLag:  s.ApplyLag,
	}
}

// Checkpoint reports checkpoint-protocol progress.
type Checkpoint struct {
	Rounds  uint64 `json:"rounds"`
	Commits uint64 `json:"commits"`
	// Cut is the last committed checkpoint cut (per-stream virtual
	// timestamps; null before the first commit).
	Cut []uint64 `json:"cut,omitempty"`
}

// Link is one mirror link's cumulative counters plus smoothed wire
// telemetry. Live reports whether the central counts the mirror in its
// quorum: admitted, and not excluded since.
type Link struct {
	Mirror    int     `json:"mirror"`
	Live      bool    `json:"live"`
	Enqueued  uint64  `json:"enqueued"`
	Sent      uint64  `json:"sent"`
	SentBytes uint64  `json:"sent_bytes"`
	Filtered  uint64  `json:"filtered"`
	Dropped   uint64  `json:"dropped"`
	Depth     int     `json:"depth"`
	StallMs   float64 `json:"stall_ms"`
	// Telemetry (EWMA, checkpoint-round granularity).
	BytesPerRound  float64 `json:"bytes_per_round"`
	EventsPerRound float64 `json:"events_per_round"`
	MaxDepthWindow int     `json:"max_depth_window"`
	BandwidthBps   float64 `json:"est_bandwidth_bps"`
}

// Site is one per-site row in the central document: the regime the
// controller last saw installed there and the site's latest piggybacked
// sample.
type Site struct {
	Site           string `json:"site"`
	RegimeID       uint8  `json:"regime_id"`
	DirectiveRound uint64 `json:"directive_round"`
	Sample         Sample `json:"sample"`
}

// Rejoin reports recovery-transfer accounting by mode.
type Rejoin struct {
	Snapshots     uint64 `json:"snapshots"`
	Deltas        uint64 `json:"deltas"`
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	DeltaBytes    uint64 `json:"delta_bytes"`
}

// Takeover is the wire-takeover runtime's view on a deployed mirrord
// site: armed detection, the current role in the takeover protocol,
// and the election/redial counters. Absent when the runtime is not
// armed (in-process clusters, plain mirrors without a peer manifest).
type Takeover struct {
	// Armed reports a live missed-round detector.
	Armed bool `json:"armed"`
	// Role is this site's current takeover role: "standby" or
	// "follower" while the central is presumed alive, "candidate"
	// during an election, "promoted" after adopting the central role.
	Role string `json:"role"`
	// Budget is the missed detection intervals tolerated before the
	// site declares the central dead.
	Budget int `json:"budget"`
	// Missed is the current consecutive-miss streak.
	Missed int `json:"missed"`
	// Fired reports whether this site has declared the central dead.
	Fired bool `json:"fired"`
	// Epoch is the highest takeover epoch this site accepted or
	// claimed (0 before any takeover).
	Epoch uint64 `json:"epoch"`
	// CentralAddr is the ctrl.up address this site currently targets
	// (the promoted address after a repoint).
	CentralAddr string `json:"central_addr,omitempty"`
	// Claims and Repoints mirror the election_claims_total and
	// uplink_repoint_total counters.
	Claims   uint64 `json:"claims"`
	Repoints uint64 `json:"repoints"`
}

// FromTakeover builds an armed site's takeover block from its node's
// view, its takeover counters, and its control uplink's address.
func FromTakeover(info core.TakeoverInfo, stats *core.TakeoverStats, centralAddr string) *Takeover {
	return &Takeover{
		Armed:       true,
		Role:        info.Role,
		Budget:      info.Budget,
		Missed:      info.Missed,
		Fired:       stats.Fired.Load() > 0,
		Epoch:       info.Epoch,
		CentralAddr: centralAddr,
		Claims:      stats.Claims.Load(),
		Repoints:    stats.Repoints.Load(),
	}
}

// Document is the /cluster/status payload. Mirror sites fill the
// site-local fields only; the central site additionally aggregates
// links, per-site rows, rejoin accounting, and the audit tail.
type Document struct {
	Site   string    `json:"site"`
	Role   string    `json:"role"` // "central" or "mirror"
	At     time.Time `json:"at"`
	Regime Regime    `json:"regime"`
	Sample Sample    `json:"sample"`
	// CentralEpoch is the promotion epoch the cluster runs in: 0 under
	// the original central, n after the nth warm-standby promotion. A
	// mirror derives it from its observed round watermark (rounds are
	// partitioned by epoch), so a mirror document disagreeing with the
	// central's is a mirror that has not yet heard from the promoted
	// central.
	CentralEpoch uint64 `json:"central_epoch"`

	Checkpoint *Checkpoint      `json:"checkpoint,omitempty"`
	Links      []Link           `json:"links,omitempty"`
	Sites      []Site           `json:"sites,omitempty"`
	Rejoin     *Rejoin          `json:"rejoin,omitempty"`
	Audit      []obs.AuditEntry `json:"audit,omitempty"`
	// Takeover reports the deployed wire-takeover runtime, when armed
	// (cmd/mirrord fills it in on both mirror and promoted-central
	// documents).
	Takeover *Takeover `json:"takeover,omitempty"`
}

// DefaultAuditTail bounds the audit entries included in a central
// document.
const DefaultAuditTail = 32

// CentralSources names everything the central document draws from.
// Controller and Audit may be nil (non-adaptive clusters); SiteSamples,
// when non-nil, supplies a fresher per-site sample than the
// controller's last-observed table (keyed like adapt.SiteLabel inputs:
// adapt.SiteCentral or mirror indices).
type CentralSources struct {
	Site       string
	Central    *core.Central
	Controller *adapt.Controller
	Audit      *obs.AuditLog
	// AuditTail bounds the included audit entries (0 uses
	// DefaultAuditTail).
	AuditTail int
	// SiteRegimes, when non-nil, supplies per-site installed regime IDs
	// and directive rounds (from mirror appliers); sites absent from
	// the map fall back to the central directive round.
	SiteRegimes map[int]SiteRegime
}

// SiteRegime is one site's applier state as the central status
// aggregator sees it.
type SiteRegime struct {
	RegimeID       uint8
	DirectiveRound uint64
}

// Central builds the aggregated cluster-status document.
func Central(src CentralSources) Document {
	c := src.Central
	doc := Document{
		Site: src.Site,
		Role: "central",
		At:   time.Now(),
	}
	if doc.Site == "" {
		doc.Site = "central"
	}
	if c == nil {
		return doc
	}
	doc.Sample = FromSample(c.Sample())
	doc.CentralEpoch = c.Epoch()
	stats := c.Stats()
	ck := &Checkpoint{Rounds: stats.ChkptRounds, Commits: stats.ChkptCommits}
	if cut := c.CommittedCut(); cut != nil {
		ck.Cut = append([]uint64(nil), cut...)
	}
	doc.Checkpoint = ck
	rj := c.RejoinStats()
	doc.Rejoin = &Rejoin{
		Snapshots:     rj.Snapshots,
		Deltas:        rj.Deltas,
		SnapshotBytes: rj.SnapshotBytes,
		DeltaBytes:    rj.DeltaBytes,
	}

	directiveRound := c.LastDirectiveRound()
	doc.Regime = Regime{
		FieldDeltas:    c.FieldDeltas(),
		DirectiveRound: directiveRound,
	}
	if src.Controller != nil {
		cur := src.Controller.Current()
		doc.Regime.ID = cur.ID
		doc.Regime.Name = cur.Name
		doc.Regime.Engaged = src.Controller.Engaged()
	}

	links := c.LinkStats()
	telem := c.Telemetry()
	member := c.Membership()
	for i, ls := range links {
		l := Link{
			Mirror:    i,
			Live:      member == nil || member.Alive(i),
			Enqueued:  ls.Enqueued,
			Sent:      ls.Sent,
			SentBytes: ls.SentBytes,
			Filtered:  ls.Filtered,
			Dropped:   ls.Dropped,
			Depth:     ls.Depth,
			StallMs:   float64(ls.Stall) / float64(time.Millisecond),
		}
		if i < len(telem) {
			t := telem[i]
			l.BytesPerRound = t.BytesPerRound
			l.EventsPerRound = t.EventsPerRound
			l.MaxDepthWindow = t.MaxDepth
			l.BandwidthBps = t.BandwidthBps
		}
		doc.Links = append(doc.Links, l)
	}

	if src.Controller != nil {
		samples := src.Controller.LastSamples()
		// Deterministic order: central first, then mirrors by index.
		if s, ok := samples[adapt.SiteCentral]; ok {
			doc.Sites = append(doc.Sites, Site{
				Site:           adapt.SiteLabel(adapt.SiteCentral),
				RegimeID:       doc.Regime.ID,
				DirectiveRound: directiveRound,
				Sample:         FromSample(s),
			})
		}
		for i := 0; i < len(links); i++ {
			s, ok := samples[i]
			if !ok {
				if _, have := src.SiteRegimes[i]; !have {
					continue
				}
			}
			row := Site{
				Site:           adapt.SiteLabel(i),
				RegimeID:       doc.Regime.ID,
				DirectiveRound: directiveRound,
				Sample:         FromSample(s),
			}
			if sr, have := src.SiteRegimes[i]; have {
				row.RegimeID = sr.RegimeID
				row.DirectiveRound = sr.DirectiveRound
			}
			doc.Sites = append(doc.Sites, row)
		}
	}

	if src.Audit != nil {
		tail := src.AuditTail
		if tail <= 0 {
			tail = DefaultAuditTail
		}
		entries := src.Audit.Entries()
		if len(entries) > tail {
			entries = entries[len(entries)-tail:]
		}
		doc.Audit = entries
	}
	return doc
}

// Mirror builds a mirror site's local status document from the site and
// its directive applier (ap may be nil).
func Mirror(site string, m *core.MirrorSite, ap *adapt.Applier) Document {
	doc := Document{
		Site: site,
		Role: "mirror",
		At:   time.Now(),
	}
	if m != nil {
		doc.Sample = FromSample(m.Sample())
		id, _, _ := m.Regime()
		doc.Regime.ID = id
		doc.CentralEpoch = m.LastRound() >> checkpoint.EpochShift
	}
	if ap != nil {
		if reg, round, ok := ap.Current(); ok {
			doc.Regime.ID = reg.ID
			doc.Regime.Name = reg.Name
			doc.Regime.FieldDeltas = reg.FieldDeltas
			doc.Regime.DirectiveRound = round
		}
	}
	return doc
}
