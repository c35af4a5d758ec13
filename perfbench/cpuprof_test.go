package main

import (
	"math"
	"os"
	"testing"
)

func TestAttributeFixtureProfile(t *testing.T) {
	b, err := os.ReadFile("testdata/cpu.raw")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseRaw(b)
	if err != nil {
		t.Fatal(err)
	}
	got := p.attribute()
	// 14 samples; see the stacks in the fixture.
	want := map[string]float64{
		"server":  3, // Ring.Lookup under sort.Search: leaf-most repo frame
		"syscall": 2, // futex under shard.submit: the syscall is split out
		"gc":      3, // background mark worker, and an allocation's GC assist
		"stm":     1, // stats is a helper package: its frame charges the caller
		"obs":     1,
		"wal":     1, // inlined frames of one location are walked innermost first
		"tuner":   1,
		"sched":   1,
		"other":   1, // scheduler only
	}
	var sum float64
	for _, m := range cpuModules {
		sum += got[m]
		if w := want[m] / 14; math.Abs(got[m]-w) > 1e-9 {
			t.Errorf("%s share = %.4f, want %.4f", m, got[m], w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"autopn/internal/stm.(*STM).atomicVer":        "autopn/internal/stm",
		"autopn/internal/stm/trace.(*Tracer).Record":  "autopn/internal/stm/trace",
		"autopn.(*Tuner).Run":                         "autopn",
		"runtime.futex":                               "runtime",
		"internal/runtime/syscall.Syscall6":           "internal/runtime/syscall",
		"autopn/internal/server.(*Ring).Lookup.func1": "autopn/internal/server",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
