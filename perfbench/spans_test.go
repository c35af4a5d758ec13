package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "settle", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "window", Start: 20, End: 60}, // overlaps settle
		{ID: 4, Parent: 3, Name: "stm.add", Start: 40, End: 50},
		{ID: 5, Parent: 1, Name: "sweep", Start: 90, End: 120}, // runs past its parent
	}
	got := l.selfTimes()
	want := map[string]int64{
		"phase":   100 - 50 - 10, // children cover [10,60) and [90,100)
		"settle":  20,
		"window":  40 - 10,
		"stm.add": 10,
		"sweep":   30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}
