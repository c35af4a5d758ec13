package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuietSlices(t *testing.T) {
	a := &phaseOut{steal: []float64{0.01, 0.2, 0.03}}
	b := &phaseOut{steal: []float64{0.3, 0.0, 0.1}}
	for _, tc := range []struct {
		ps   []*phaseOut
		want []sliceRef
	}{
		{[]*phaseOut{a, b}, []sliceRef{{a, 0}, {b, 1}}},       // the quiet ones, pooled
		{[]*phaseOut{b}, []sliceRef{{b, 1}}},                  // a third of 3 is 1
		{[]*phaseOut{{steal: []float64{0.3, 0.2, 0.1}}}, nil}, // none quiet: the quietest third
	} {
		got := quietSlices(tc.ps)
		if tc.want == nil {
			if len(got) != 1 || got[0].i != 2 {
				t.Errorf("quietSlices fallback = %v, want the slice with the least steal", got)
			}
			continue
		}
		if len(got) != len(tc.want) {
			t.Fatalf("quietSlices = %v, want %v", got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quietSlices = %v, want %v", got, tc.want)
			}
		}
	}
}

// A spent wait budget skips the quiet-host wait and leaves the record as
// it was.
func TestWaitQuietSpentBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "waited")
	if err := os.WriteFile(path, []byte("240\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waited, err := waitQuiet(path)
	if err != nil || waited != 0 {
		t.Fatalf("waitQuiet = %v, %v; want 0, nil", waited, err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("waitQuiet with a spent budget took %v", d)
	}
	if got, err := readWaited(path); err != nil || got != quietWaitBudget {
		t.Errorf("readWaited = %v, %v; want %v", got, err, quietWaitBudget)
	}
}
