// Package adaptmirror is a Go implementation of the adaptable
// mirroring framework for cluster servers described in "Adaptable
// Mirroring in Cluster Servers" (Gavrilovska, Schwan, Oleson — HPDC
// 2001).
//
// The framework continuously mirrors streaming update events received
// by the central node of a cluster-based Operational Information
// System to other cluster nodes, so that bursty client requests (for
// example, thin-client state-initialization storms after an airport
// power failure) can be served by any mirror without perturbing the
// central site's continuous event processing. Mirroring happens at
// the middleware level, which lets application semantics reduce
// mirroring traffic: event overwriting, coalescing, complex-sequence
// discard, and complex-tuple collapse. A checkpoint protocol keeps a
// consistent cut across mirrors, and a runtime adaptation mechanism
// trades mirror consistency against client quality of service as load
// changes.
//
// # Quick start
//
//	cl, err := adaptmirror.NewCluster(adaptmirror.ClusterConfig{Mirrors: 2})
//	if err != nil { ... }
//	defer cl.Close()
//
//	// Configure selective mirroring (Table-1 API).
//	cl.Central().InstallSelective(10)
//
//	// Feed events and serve client requests from any mirror.
//	cl.Central().Ingest(adaptmirror.NewPosition(42, 1, 33.6, -84.4, 11000, 1024))
//	state, err := cl.Targets()[0].RequestInitState()
//
// The underlying building blocks live in internal packages and are
// re-exported here where downstream users need them: event types,
// cluster assembly, workload generation, and the adaptation
// controller.
package adaptmirror

import (
	"time"

	"adaptmirror/internal/adapt"
	"adaptmirror/internal/cluster"
	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/event"
	"adaptmirror/internal/simnet"
)

// Re-exported core types. See the internal packages for full APIs.
type (
	// Event is one application-level update event.
	Event = event.Event
	// EventType identifies an event kind.
	EventType = event.Type
	// FlightID identifies a flight.
	FlightID = event.FlightID
	// Status is a flight lifecycle state.
	Status = event.Status

	// Central is the central site (the primary mirror) and carries
	// the paper's Table-1 mirroring API as methods.
	Central = core.Central
	// MirrorSite is a secondary mirror site.
	MirrorSite = core.MirrorSite
	// MainUnit hosts a site's Event Derivation Engine and serves
	// client initialization-state requests.
	MainUnit = core.MainUnit
	// Params are the runtime-tunable mirroring parameters.
	Params = core.Params

	// Regime is a complete mirroring configuration the adaptation
	// controller can install.
	Regime = adapt.Regime
	// Controller makes threshold-based adaptation decisions.
	Controller = adapt.Controller

	// CostModel charges virtual CPU time for OIS operations.
	CostModel = costmodel.Model
)

// Frequently used event constructors and constants.
var (
	// NewPosition builds an FAA flight-position event.
	NewPosition = event.NewPosition
	// NewStatus builds a Delta flight-status event.
	NewStatus = event.NewStatus
)

// Event type and status constants re-exported for rule configuration.
const (
	TypeFAAPosition   = event.TypeFAAPosition
	TypeDeltaStatus   = event.TypeDeltaStatus
	TypeGateReader    = event.TypeGateReader
	TypeFlightArrived = event.TypeFlightArrived

	StatusLanded   = event.StatusLanded
	StatusAtRunway = event.StatusAtRunway
	StatusAtGate   = event.StatusAtGate
	StatusArrived  = event.StatusArrived
)

// Transport selects how cluster sites communicate.
type Transport = cluster.Transport

// Available transports.
const (
	// TransportDirect wires sites with synchronous calls (fastest;
	// network cost comes from the cost model).
	TransportDirect = cluster.TransportDirect
	// TransportTCP wires sites over loopback TCP with optional
	// bandwidth/latency shaping.
	TransportTCP = cluster.TransportTCP
)

// ClusterConfig configures a mirrored server cluster.
type ClusterConfig struct {
	// Mirrors is the number of secondary mirror sites.
	Mirrors int
	// Transport wires the sites (default TransportDirect).
	Transport Transport
	// Bandwidth (bytes/s) and Latency shape TCP links; zero values
	// leave links unshaped.
	Bandwidth float64
	Latency   time.Duration
	// Model is the virtual-CPU cost model (zero value installs the
	// calibrated default).
	Model CostModel
	// Params are the initial mirroring parameters.
	Params Params
	// StatePadding inflates per-flight initialization-state size.
	StatePadding int
	// NoMirror disables mirroring entirely (baseline configuration).
	NoMirror bool
	// OnUpdate, when non-nil, receives every state update the central
	// site emits to regular clients (drive a thinclient.View or an
	// operations log with it).
	OnUpdate func(*Event)
}

// senderFunc adapts a function to the internal Sender interface.
type senderFunc func(*Event) error

func (f senderFunc) Submit(e *Event) error { return f(e) }

// Cluster is a running mirrored OIS server.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster assembles and starts a mirrored server.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	model := cfg.Model
	if model == (CostModel{}) {
		model = costmodel.Default
	}
	var clientOut core.Sender
	if cfg.OnUpdate != nil {
		clientOut = senderFunc(func(e *Event) error {
			cfg.OnUpdate(e)
			return nil
		})
	}
	inner, err := cluster.New(cluster.Config{
		Mirrors:      cfg.Mirrors,
		Transport:    cfg.Transport,
		Shaping:      simnet.Profile{Bandwidth: cfg.Bandwidth, Latency: cfg.Latency},
		Params:       cfg.Params,
		Model:        model,
		StatePadding: cfg.StatePadding,
		NoMirror:     cfg.NoMirror,
		ClientOut:    clientOut,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Central returns the central site, which carries the Table-1
// mirroring API (SetParams, SetOverwrite, SetComplexSeq,
// SetComplexTuple, SetMirror, SetFwd, AdjustParam, ...).
func (c *Cluster) Central() *Central { return c.inner.Central }

// Mirrors returns the secondary mirror sites.
func (c *Cluster) Mirrors() []*MirrorSite { return c.inner.Mirrors }

// Targets returns the main units that serve client requests (the
// mirror sites, or the central site when no mirrors exist).
func (c *Cluster) Targets() []*MainUnit { return c.inner.Targets() }

// AllTargets returns every site's main unit, central included.
func (c *Cluster) AllTargets() []*MainUnit { return c.inner.AllTargets() }

// Feed ingests a batch of events in order.
func (c *Cluster) Feed(events []*Event) error { return c.inner.Feed(events) }

// Drain stops ingestion and blocks until every site has processed
// every event; it returns when the cluster is quiescent.
func (c *Cluster) Drain() { c.inner.DrainAll() }

// Close shuts the cluster down.
func (c *Cluster) Close() { c.inner.Close() }

// NewAdaptation attaches a threshold-based adaptation controller to
// the cluster's central site: when the pending-request buffer crosses
// primary, the degraded regime is installed; it reverts below
// primary−secondary. Directives piggyback on checkpoint traffic.
func (c *Cluster) NewAdaptation(baseline, degraded Regime, primary, secondary int) *Controller {
	ctl := adapt.NewController(baseline, degraded, nil)
	ctl.SetMonitorValues(adapt.VarPending, primary, secondary)
	c.inner.AttachController(ctl)
	return ctl
}
