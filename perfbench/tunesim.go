package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"autopn/internal/core"
	"autopn/internal/experiment"
	"autopn/internal/search"
	"autopn/internal/simcore"
	"autopn/internal/space"
	"autopn/internal/stats"
	"autopn/internal/surface"
)

// The simulated tuner: AutoPN sessions over the paper's ten workload
// surfaces on the virtual-time simcore engine with 48 virtual cores and the
// adaptive-CV monitor. A live shard tuner on a 2-vCPU host has only three
// configurations to choose from, so the server phases never make the SMBO
// layers (m5, ensemble, expected improvement) fit a model; these sessions
// do. They are deterministic per seed except for their CPU and wall time.

const (
	tuneReps   = 300 // sessions per surface
	tuneBudget = 600 * time.Second
)

// timedOpt times the optimizer from outside. AutoPN fits its model and
// searches expected improvement when it observes a window, so one step is
// an Observe plus the following Next; the simulated measurement window is
// the time between a Next and its Observe.
type timedOpt struct {
	inner   search.Optimizer
	stepNS  []int64
	winNS   []int64
	obsNS   int64 // the pending step's Observe time
	lastEnd time.Time
}

func (o *timedOpt) Name() string { return o.inner.Name() }

func (o *timedOpt) Next() (space.Config, bool) {
	t0 := time.Now()
	cfg, done := o.inner.Next()
	o.lastEnd = time.Now()
	o.stepNS = append(o.stepNS, o.obsNS+int64(o.lastEnd.Sub(t0)))
	o.obsNS = 0
	return cfg, done
}

func (o *timedOpt) Observe(cfg space.Config, kpi float64) {
	o.ObserveMeasured(cfg, kpi, 0)
}

// ObserveMeasured forwards the measurement's CV when the optimizer uses
// it, as simcore.Tune does for an unwrapped optimizer.
func (o *timedOpt) ObserveMeasured(cfg space.Config, kpi, cv float64) {
	t0 := time.Now()
	o.winNS = append(o.winNS, int64(t0.Sub(o.lastEnd)))
	if om, ok := o.inner.(interface {
		ObserveMeasured(space.Config, float64, float64)
	}); ok {
		om.ObserveMeasured(cfg, kpi, cv)
	} else {
		o.inner.Observe(cfg, kpi)
	}
	o.obsNS = int64(time.Since(t0))
}

func (o *timedOpt) Best() (space.Config, float64) { return o.inner.Best() }

type tuneResult struct {
	sessions     int
	stableS      []float64 // virtual time to stability per session
	dfo          []float64 // final distance from the optimum per session
	cpuNS        []int64   // CPU time of the session's thread
	explorations []float64
	stepNS       []int64
	winNS        []int64
}

// runTuneSim runs tuneReps AutoPN sessions on every surface, the surfaces
// interleaved. Every session must converge inside the configuration space
// (output check).
//
// A session runs on one goroutine, locked to its thread for the run, so
// the thread's CPU time is the tuner's own compute. Unlike wall time it
// leaves out time the hypervisor gave to other machines (the kernel's steal
// accounting) and time other processes held the CPU.
func runTuneSim(seed uint64, spans *spanLog, parent int) (*tuneResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	f := experiment.AutoPNFactory("autopn", core.Options{})
	master := stats.NewRNG(seed)
	res := &tuneResult{}
	for rep := 0; rep < tuneReps; rep++ {
		for _, w := range surface.AllWorkloads() {
			sp := space.New(w.Cores)
			_, optTput := w.Optimum(sp)
			rng := master.Split()
			sim := simcore.New(w, rng.Uint64(), simcore.Options{})
			opt := &timedOpt{inner: f.New(experiment.FactoryContext{Space: sp, RNG: rng})}
			c0, err := threadCPU()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			out := simcore.Tune(sim, opt, simcore.AdaptiveCV{}, tuneBudget)
			t1 := time.Now()
			c1, err := threadCPU()
			if err != nil {
				return nil, err
			}
			spans.add("tune.session", parent, t0, t1)
			best, _ := opt.Best()
			if !out.Converged || !sp.Contains(best) || !sp.Contains(out.FinalCfg) {
				return nil, fmt.Errorf("output check failed: tune-sim session %s/%d did not converge inside the space (converged=%v, best=%v)", w.Name, rep, out.Converged, best)
			}
			res.sessions++
			res.stableS = append(res.stableS, out.ConvergedAt.Seconds())
			res.dfo = append(res.dfo, 1-w.Throughput(best)/optTput)
			res.cpuNS = append(res.cpuNS, int64(c1-c0))
			res.explorations = append(res.explorations, float64(out.Explorations))
			res.stepNS = append(res.stepNS, opt.stepNS...)
			res.winNS = append(res.winNS, opt.winNS...)
		}
	}
	return res, nil
}

// threadCPU returns the calling thread's CPU time, read from
// CLOCK_THREAD_CPUTIME_ID (the scheduler's exact runtime, not sampled at
// clock ticks like getrusage).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
