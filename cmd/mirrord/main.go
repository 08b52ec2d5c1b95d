// Command mirrord runs one site of the mirrored OIS server over TCP.
//
// A deployment runs one central site and any number of mirror sites,
// started in any order; each mirror asks the central to admit it:
//
//	mirrord -role central -listen :7000 -mirrors host1:7001,host2:7002 -http :8000 \
//	        -selective 10 -chkpt 50
//	mirrord -role mirror  -listen :7001 -central host0:7000 -http :8001 -site 0
//	mirrord -role mirror  -listen :7002 -central host0:7000 -http :8002 -site 1
//
// Sources feed the central site with cmd/oisgen; clients fetch
// initialization state from any site's HTTP front (exercised with
// cmd/loadgen).
//
// Adding -peers (the cluster manifest) and -takeover-budget to the
// mirrors arms wire takeover: a killed central is detected by
// missed-round heartbeats, replaced by the -standby site (or by
// committed-cut election when none is designated), and the survivors
// redial the promoted address without restarting. See
// internal/site/takeover.go and the README failover runbook.
//
// This command only maps flags onto internal/site options; the site
// runtime itself — the one cluster.New(TransportTCP) also starts —
// lives there.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/costmodel"
	"adaptmirror/internal/ede"
	"adaptmirror/internal/httpfront"
	"adaptmirror/internal/obs"
	"adaptmirror/internal/site"
)

// usageError is a command line that names no startable site (exit 2);
// empty when the flag package has already reported it.
type usageError string

func (e usageError) Error() string { return string(e) }

// deployment is the one site a mirrord process runs, plus what the
// process adds around it.
type deployment struct {
	role string
	// Exactly one of central and mirror is set, by role.
	central *site.CentralSite
	mirror  *site.MirrorSite
	reg     *obs.Registry
	front   *httpfront.Front

	dumpEvery  time.Duration
	statusAddr string
}

func (d *deployment) Close() error {
	if d.central != nil {
		return d.central.Close()
	}
	return d.mirror.Close()
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// start parses a mirrord command line and starts the site it describes.
func start(args []string) (*deployment, error) {
	fs := flag.NewFlagSet("mirrord", flag.ContinueOnError)
	var (
		role       = fs.String("role", "", "site role: central or mirror")
		listen     = fs.String("listen", "127.0.0.1:7000", "event-channel listen address")
		httpAddr   = fs.String("http", "127.0.0.1:8000", "HTTP front listen address (client requests)")
		central    = fs.String("central", "", "mirror role: central site's event-channel address")
		siteID     = fs.Int("site", 0, "mirror role: this mirror's index in the central site's -mirrors list")
		standby    = fs.Bool("standby", false, "mirror role: arm this site as the warm-standby central (journals mutations per committed cut for post-promotion delta rejoins)")
		peers      = fs.String("peers", "", "mirror role: comma-separated event-channel addresses of every mirror site, indexed by -site (the cluster manifest; required to arm wire takeover)")
		tkBudget   = fs.Int("takeover-budget", 0, "mirror role: missed checkpoint-round intervals tolerated before declaring the central dead (0 = takeover disarmed)")
		tkInterval = fs.Duration("takeover-interval", site.DefaultTakeoverInterval, "mirror role: central-liveness detection interval")
		advertise  = fs.String("advertise", "", "mirror role: event-channel address announced to survivors after this site promotes (default: this site's -peers entry)")
		mirrors    = fs.String("mirrors", "", "central role: comma-separated mirror event-channel addresses")
		selective  = fs.Int("selective", 0, "overwrite run length for FAA positions (0 = simple mirroring)")
		coalesce   = fs.Int("coalesce", 0, "coalesce up to N events before mirroring (0 = off)")
		chkpt      = fs.Int("chkpt", 50, "checkpoint once per N processed events")
		padding    = fs.Int("padding", 64, "per-flight init-state padding bytes")
		shards     = fs.Int("shards", 0, "EDE state shard count, rounded up to a power of two (0 = default)")
		workers    = fs.Int("reqworkers", 0, "init-state serving pool size (0 = default)")
		adaptOn    = fs.Bool("adapt", false, "central role: enable runtime adaptation between mirroring functions")
		adaptPri   = fs.Int("adapt-primary", 100, "pending-request primary threshold for adaptation")
		adaptSec   = fs.Int("adapt-secondary", 50, "hysteresis below primary for reverting")
		logDir     = fs.String("log", "", "central role: directory for the durable operations log (empty = disabled)")
		dumpEvery  = fs.Duration("metricsdump", 0, "dump the metrics registry to stdout this often, in the Prometheus text format (0 = off)")
		auditPath  = fs.String("auditlog", "", "central role with -adapt: durable JSONL file recording every adaptation transition")
		statusAddr = fs.String("statusaddr", "", "extra listen address serving the operations plane (/metrics and /cluster/status) on its own port")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, usageError("")
	}

	// Every site charges the paper's cost model to its own virtual CPU
	// and exports one registry; this is the only place the deployed
	// path names them.
	model := costmodel.Default
	d := &deployment{role: *role, reg: obs.NewRegistry(), dumpEvery: *dumpEvery, statusAddr: *statusAddr}
	tracer := obs.NewTracer(d.reg)
	mainCfg := core.MainConfig{
		EDE:            ede.Config{Model: model, StatePadding: *padding, Shards: *shards},
		RequestWorkers: *workers,
	}
	var err error
	switch *role {
	case "central":
		d.central, err = site.StartCentral(site.CentralOptions{
			Config: core.CentralConfig{
				Streams: 2,
				Params:  core.Params{Coalesce: *coalesce > 0, MaxCoalesce: *coalesce, CheckpointFreq: *chkpt},
				Model:   model,
				CPU:     &costmodel.CPU{},
				Main:    mainCfg,
				Obs:     d.reg,
				Tracer:  tracer,
			},
			Listen:         *listen,
			HTTP:           *httpAddr,
			Mirrors:        splitAddrs(*mirrors),
			Selective:      *selective,
			LogDir:         *logDir,
			Adapt:          *adaptOn,
			AdaptPrimary:   *adaptPri,
			AdaptSecondary: *adaptSec,
			AuditPath:      *auditPath,
		})
		if err == nil {
			d.front = d.central.Front
		}
	case "mirror":
		if *central == "" {
			return nil, usageError("-central is required for the mirror role")
		}
		if *siteID < 0 || *siteID > 255 {
			return nil, usageError("-site must be in 0..255")
		}
		d.mirror, err = site.StartMirror(site.MirrorOptions{
			Config: core.MirrorSiteConfig{
				Main:    mainCfg,
				Model:   model,
				CPU:     &costmodel.CPU{},
				SiteID:  uint8(*siteID),
				Standby: *standby,
				Obs:     d.reg,
				Tracer:  tracer,
			},
			Listen:           *listen,
			HTTP:             *httpAddr,
			Central:          *central,
			Peers:            splitAddrs(*peers),
			TakeoverBudget:   *tkBudget,
			TakeoverInterval: *tkInterval,
			Advertise:        *advertise,
		})
		if err == nil {
			d.front = d.mirror.Front
		}
	default:
		return nil, usageError("-role must be central or mirror")
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("mirrord: %s site up (events %s, http %s)\n", *role, *listen, *httpAddr)
	return d, nil
}

func main() {
	d, err := start(os.Args[1:])
	var usage usageError
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, &usage):
		if usage != "" {
			fmt.Fprintf(os.Stderr, "mirrord: %s\n", usage)
		}
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "mirrord: %v\n", err)
		os.Exit(1)
	}

	// The operations plane (/metrics, /cluster/status) is always part of
	// the client-facing front; -statusaddr additionally binds the same
	// mux on a dedicated listener so operators can firewall it apart
	// from client traffic.
	var statusSrv *http.Server
	if d.statusAddr != "" {
		ln, lerr := net.Listen("tcp", d.statusAddr)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "mirrord: status listener: %v\n", lerr)
			os.Exit(1)
		}
		statusSrv = &http.Server{Handler: d.front.Handler()}
		go statusSrv.Serve(ln)
		fmt.Printf("mirrord: status plane on %s (/metrics, /cluster/status)\n", ln.Addr())
	}

	if d.dumpEvery > 0 {
		go func() {
			t := time.NewTicker(d.dumpEvery)
			defer t.Stop()
			for now := range t.C {
				fmt.Printf("# mirrord %s metrics %s\n", d.role, now.Format(time.RFC3339))
				_ = d.reg.WritePrometheus(os.Stdout)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mirrord: shutting down")
	if statusSrv != nil {
		statusSrv.Close()
	}
	if err := d.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "mirrord: shutdown: %v\n", err)
		os.Exit(1)
	}
}
