package workload

import (
	"testing"
	"time"

	"adaptmirror/internal/core"
	"adaptmirror/internal/loadbal"
	"adaptmirror/internal/metrics"
)

func mains(t *testing.T, n int) []*core.MainUnit {
	t.Helper()
	out := make([]*core.MainUnit, n)
	for i := range out {
		out[i] = core.NewMainUnit(core.MainConfig{})
		t.Cleanup(out[i].Close)
	}
	return out
}

func TestConstantPattern(t *testing.T) {
	p := Constant{RPS: 100}
	if p.Rate(0) != 100 || p.Rate(time.Hour) != 100 {
		t.Fatal("constant pattern must be constant")
	}
}

func TestBurstyPattern(t *testing.T) {
	p := Bursty{Base: 10, Burst: 400, Period: time.Second, BurstLen: 200 * time.Millisecond}
	if got := p.Rate(100 * time.Millisecond); got != 400 {
		t.Fatalf("rate in burst = %v, want 400", got)
	}
	if got := p.Rate(500 * time.Millisecond); got != 10 {
		t.Fatalf("rate off burst = %v, want 10", got)
	}
	if got := p.Rate(1100 * time.Millisecond); got != 400 {
		t.Fatalf("rate in second period's burst = %v, want 400", got)
	}
	zero := Bursty{Base: 7}
	if zero.Rate(time.Second) != 7 {
		t.Fatal("zero-period bursty must return base")
	}
}

func TestSpikePattern(t *testing.T) {
	p := Spike{Base: 5, Extra: 500, At: time.Second, Len: 100 * time.Millisecond}
	if got := p.Rate(0); got != 5 {
		t.Fatalf("pre-spike rate = %v", got)
	}
	if got := p.Rate(time.Second + 50*time.Millisecond); got != 505 {
		t.Fatalf("spike rate = %v, want 505", got)
	}
	if got := p.Rate(2 * time.Second); got != 5 {
		t.Fatalf("post-spike rate = %v", got)
	}
}

func TestRunTotalRequests(t *testing.T) {
	targets := mains(t, 2)
	lat := new(metrics.Histogram)
	res := Run(Config{
		Pattern:       Constant{RPS: 5000},
		Targets:       targets,
		TotalRequests: 50,
		Latency:       lat,
	})
	if res.Issued != 50 {
		t.Fatalf("Issued = %d, want 50", res.Issued)
	}
	if res.Completed != 50 {
		t.Fatalf("Completed = %d, want 50", res.Completed)
	}
	if lat.Count() != 50 {
		t.Fatalf("latency samples = %d, want 50", lat.Count())
	}
	// Round-robin spread.
	if a, b := targets[0].ServedRequests(), targets[1].ServedRequests(); a != 25 || b != 25 {
		t.Fatalf("spread = %d/%d, want 25/25", a, b)
	}
}

func TestRunDuration(t *testing.T) {
	targets := mains(t, 1)
	res := Run(Config{
		Pattern:  Constant{RPS: 1000},
		Targets:  targets,
		Duration: 50 * time.Millisecond,
	})
	if res.Issued == 0 {
		t.Fatal("no requests issued during duration run")
	}
	if res.Elapsed < 50*time.Millisecond {
		t.Fatalf("Elapsed = %v, want >= 50ms", res.Elapsed)
	}
}

func TestRunStopChannel(t *testing.T) {
	targets := mains(t, 1)
	stop := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(stop)
	}()
	res := Run(Config{
		Pattern: Constant{RPS: 1000},
		Targets: targets,
		Stop:    stop,
	})
	if res.Elapsed > 5*time.Second {
		t.Fatal("Stop channel did not stop the run")
	}
}

func TestRunPoisson(t *testing.T) {
	targets := mains(t, 1)
	res := Run(Config{
		Pattern:       Constant{RPS: 5000},
		Targets:       targets,
		TotalRequests: 30,
		Poisson:       true,
		Seed:          3,
	})
	if res.Completed != 30 {
		t.Fatalf("Completed = %d, want 30", res.Completed)
	}
}

func TestRunRejectedOnClosedTarget(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	m.Close()
	res := Run(Config{
		Pattern:       Constant{RPS: 10000},
		Targets:       []*core.MainUnit{m},
		TotalRequests: 10,
	})
	if res.Rejected != 10 || res.Completed != 0 {
		t.Fatalf("result = %+v, want 10 rejected", res)
	}
}

func TestRunCustomBalancer(t *testing.T) {
	targets := mains(t, 3)
	bal, _ := loadbal.NewLeastLoaded(3, func(i int) int { return targets[i].PendingRequests() })
	res := Run(Config{
		Pattern:       Constant{RPS: 5000},
		Targets:       targets,
		Balancer:      bal,
		TotalRequests: 30,
	})
	if res.Completed != 30 {
		t.Fatalf("Completed = %d", res.Completed)
	}
}

func TestRunPanicsWithoutTargets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic with no targets")
		}
	}()
	Run(Config{Pattern: Constant{RPS: 1}})
}

func TestBurst(t *testing.T) {
	targets := mains(t, 2)
	lat := new(metrics.Histogram)
	done, elapsed := Burst(targets, nil, 40, lat)
	if done != 40 {
		t.Fatalf("completed %d of 40", done)
	}
	if elapsed <= 0 {
		t.Fatal("elapsed must be positive")
	}
	if lat.Count() != 40 {
		t.Fatalf("latency samples = %d", lat.Count())
	}
}

func TestBurstAgainstClosedTarget(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	m.Close()
	done, _ := Burst([]*core.MainUnit{m}, nil, 5, nil)
	if done != 0 {
		t.Fatalf("completed %d against closed target", done)
	}
}

func TestIdlePatternMakesProgress(t *testing.T) {
	// A pattern that is idle at first and active later must still
	// issue requests once active.
	targets := mains(t, 1)
	res := Run(Config{
		Pattern:       Spike{Base: 0, Extra: 2000, At: 10 * time.Millisecond, Len: time.Hour},
		Targets:       targets,
		TotalRequests: 10,
	})
	if res.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", res.Completed)
	}
}
