package statedelta_test

import (
	"testing"

	"adaptmirror/internal/ede"
	"adaptmirror/internal/event"
	"adaptmirror/internal/statedelta"
)

// TestFrameAllocs pins the allocation budget of one rejoin-delta hop
// for a 64-record frame: AppendFrame into a reused buffer, then decode
// and apply on a replica that already holds the flights.
func TestFrameAllocs(t *testing.T) {
	const frameBudget = 0
	recs := make([]statedelta.Record, 64)
	for i := range recs {
		recs[i] = statedelta.Record{
			Flight: event.FlightID(i + 1), Mask: statedelta.MaskAll,
			Status: uint8(event.StatusEnRoute), Lat: 1, Lon: 2, Alt: 3, PosUpdates: uint64(i),
		}
	}
	replica := ede.New(ede.Config{}).State()
	buf := make([]byte, 0, statedelta.FrameSize(recs))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = statedelta.AppendFrame(buf[:0], recs); err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyDeltaAbsolute(buf); err != nil {
			t.Fatal(err)
		}
	}); n > frameBudget {
		t.Fatalf("AppendFrame+apply of %d records allocates %v times, budget %v", len(recs), n, frameBudget)
	}
}
