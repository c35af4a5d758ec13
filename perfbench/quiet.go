package main

import (
	"errors"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On the shared 2-vCPU reference host, stretches of heavy hypervisor steal
// lasted about two minutes and stole 20–35% of the CPU in every slice of
// the runs inside them, so the quiet-slice filter had nothing to keep:
// goodput fell by 40% and p50 rose several-fold (see README.md). A run
// therefore first waits, for a bounded time, until a second of full load
// passes with little steal. The wait is bounded per run and over all runs sharing a
// work directory, so a host that never quiets costs a fixed amount of
// time.
const (
	quietSteal      = 0.05              // a second with at most this share stolen is quiet
	quietWaitRun    = 60 * time.Second  // longest wait of one run
	quietWaitBudget = 240 * time.Second // longest total wait of the runs sharing a work directory
)

// waitQuiet samples host steal second by second until a quiet second, and
// returns how long it waited on noisy seconds. budgetPath records the
// noisy seconds spent so far by earlier runs.
func waitQuiet(budgetPath string) (time.Duration, error) {
	spent, err := readWaited(budgetPath)
	if err != nil {
		return 0, err
	}
	limit := min(quietWaitRun, quietWaitBudget-spent)
	var waited time.Duration
	for waited < limit && busySteal(time.Second) > quietSteal {
		waited += time.Second
	}
	if waited == 0 {
		return 0, nil
	}
	return waited, os.WriteFile(budgetPath, []byte(strconv.FormatFloat((spent+waited).Seconds(), 'f', 0, 64)+"\n"), 0o644)
}

// readWaited returns the wait recorded in path, zero if there is none yet.
func readWaited(path string) (time.Duration, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(s * float64(time.Second)), nil
}

// busySteal keeps every CPU busy for d and returns the share of host CPU
// time stolen meanwhile. An idle virtual CPU is not runnable, so the
// hypervisor cannot steal from it: only a busy one shows the steal a run
// would suffer.
func busySteal(d time.Duration) float64 {
	s0, t0 := hostSteal()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
	s1, t1 := hostSteal()
	return ratio(float64(s1-s0), float64(t1-t0))
}
