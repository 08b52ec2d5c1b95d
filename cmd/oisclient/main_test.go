package main

import (
	"testing"

	"adaptmirror/internal/core"
	"adaptmirror/internal/event"
	"adaptmirror/internal/httpfront"
)

func TestFetchInit(t *testing.T) {
	m := core.NewMainUnit(core.MainConfig{})
	defer m.Close()
	m.Deliver(event.NewPosition(1, 1, 10, 20, 30000, 64))
	f := httpfront.New(m)
	addr, err := f.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	state, anchor, err := fetchInit("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) == 0 {
		t.Fatal("empty init state")
	}
	// The anchor rides the X-Init-VT header; before any processed
	// traffic it is the zero clock.
	if anchor.Sum() != 0 {
		t.Fatalf("anchor = %s, want zero", anchor)
	}
}

func TestFetchInitErrors(t *testing.T) {
	if _, _, err := fetchInit("http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable front must fail")
	}
	// A front whose main unit is closed returns 503.
	m := core.NewMainUnit(core.MainConfig{})
	f := httpfront.New(m)
	addr, _ := f.Listen("127.0.0.1:0")
	defer f.Close()
	m.Close()
	if _, _, err := fetchInit("http://" + addr); err == nil {
		t.Fatal("503 must surface as an error")
	}
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name             string
		initURL, updates string
		padding          int
		ok               bool
	}{
		{"valid", "http://h:8001", "h:7000", 64, true},
		{"zero padding", "http://h:8001", "h:7000", 0, true},
		{"missing init", "", "h:7000", 64, false},
		{"missing updates", "http://h:8001", "", 64, false},
		{"negative padding", "http://h:8001", "h:7000", -1, false},
		{"zero record size", "http://h:8001", "h:7000", -47, false},
	}
	for _, c := range cases {
		if err := checkFlags(c.initURL, c.updates, c.padding); (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
