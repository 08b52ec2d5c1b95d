package core

import "testing"

// TestSampleWireExtension pins the sample wire contract: the 24-byte
// encoding round-trips all six variables, and anything that is not
// exactly that size is rejected rather than zero-filled.
func TestSampleWireExtension(t *testing.T) {
	s := Sample{Ready: 1, Backup: 2, Pending: 3, WireBytes: 400_000, Outbox: 5, ApplyLag: 600}
	b := EncodeSample(s)
	if len(b) != sampleWire {
		t.Fatalf("encoded length = %d, want %d", len(b), sampleWire)
	}
	got, err := DecodeSample(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}

	// Short, odd-length and over-long samples are rejected.
	for _, n := range []int{0, 2, 12, sampleWire - 1, sampleWire + 1} {
		bad := append(b[:0:0], b...)
		bad = append(bad, 0)[:n]
		if _, err := DecodeSample(bad); err == nil {
			t.Fatalf("%d-byte sample must fail to decode", n)
		}
	}
}

// TestSampleMaxExtendedFields: Max is componentwise over all six
// monitored variables, not just the original three.
func TestSampleMaxExtendedFields(t *testing.T) {
	a := Sample{Ready: 1, WireBytes: 900, Outbox: 2, ApplyLag: 50}
	b := Sample{Backup: 7, WireBytes: 100, Outbox: 6, ApplyLag: 40}
	got := a.Max(b)
	want := Sample{Ready: 1, Backup: 7, WireBytes: 900, Outbox: 6, ApplyLag: 50}
	if got != want {
		t.Fatalf("Max = %+v, want %+v", got, want)
	}
}
