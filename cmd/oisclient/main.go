// Command oisclient runs a thin client — the paper's airport flight
// display: it fetches its initialization state from a mirror site's
// HTTP front, subscribes to the central site's update stream, and
// maintains a live local view, printing a summary periodically.
//
//	oisclient -init http://host1:8001 -updates host0:7000 -interval 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adaptmirror/internal/echo"
	"adaptmirror/internal/event"
	"adaptmirror/internal/thinclient"
	"adaptmirror/internal/vclock"
)

func main() {
	var (
		initURL  = flag.String("init", "", "base URL of a mirror site's HTTP front")
		updates  = flag.String("updates", "", "central site's event-channel address (updates stream)")
		padding  = flag.Int("padding", 64, "per-flight init-state padding (must match the server)")
		interval = flag.Duration("interval", time.Second, "summary print interval")
	)
	flag.Parse()
	if err := checkFlags(*initURL, *updates, *padding); err != nil {
		fmt.Fprintf(os.Stderr, "oisclient: %v\n", err)
		os.Exit(2)
	}

	view := thinclient.New(*padding)

	// Subscribe to updates FIRST so nothing is missed between the
	// snapshot and the stream (stale-update filtering discards any
	// overlap).
	link, err := echo.DialRecv(*updates, "updates")
	if err != nil {
		fatal(err)
	}
	defer link.Close()
	link.Subscribe(func(e *event.Event) { view.Apply(e) })

	state, anchor, err := fetchInit(*initURL)
	if err != nil {
		fatal(err)
	}
	if err := view.InitializeAt(state, anchor); err != nil {
		fatal(err)
	}
	fmt.Printf("oisclient: initialized with %d flights (%d-byte state, anchor %s)\n",
		view.Flights(), len(state), anchor)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if view.NeedsReinit() {
				// Updates were lost (e.g. a dropped stream); do what
				// the paper's displays do and re-initialize.
				fmt.Println("oisclient: update gap detected — re-initializing")
				if state, anchor, err := fetchInit(*initURL); err == nil {
					if err := view.InitializeAt(state, anchor); err != nil {
						fmt.Fprintf(os.Stderr, "oisclient: re-init: %v\n", err)
					}
				} else {
					fmt.Fprintf(os.Stderr, "oisclient: re-init fetch: %v\n", err)
				}
			}
			applied, stale := view.Stats()
			fmt.Printf("oisclient: %d flights, %d updates applied (%d stale), progress %s\n",
				view.Flights(), applied, stale, view.Progress())
		case <-sig:
			fmt.Println("oisclient: bye")
			return
		}
	}
}

// checkFlags reports a usage error in the parsed command line.
func checkFlags(initURL, updates string, padding int) error {
	switch {
	case initURL == "" || updates == "":
		return errors.New("-init and -updates are required")
	case padding < 0:
		return fmt.Errorf("-padding must not be negative, got %d", padding)
	}
	return nil
}

// fetchInit performs the thin client's initialization request,
// returning the snapshot and the server's X-Init-VT progress anchor
// (nil when the server predates the header — the view then anchors at
// zero exactly as before).
func fetchInit(baseURL string) ([]byte, vclock.VC, error) {
	resp, err := http.Get(baseURL + "/init")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("oisclient: init request: %s", resp.Status)
	}
	state, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	anchor, err := vclock.Parse(resp.Header.Get("X-Init-VT"))
	if err != nil {
		return nil, nil, fmt.Errorf("oisclient: init anchor: %w", err)
	}
	return state, anchor, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "oisclient: %v\n", err)
	os.Exit(1)
}
