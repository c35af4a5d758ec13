package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"autopn/internal/obs"
	"autopn/internal/server"
)

// Set-up time is the median over this many server launches. A WAL restart
// stops gracefully, which costs about a second, and its time varies less
// (a ten-run spread of 0.08 against 0.15–0.31 without WAL at five
// launches), so WAL workloads launch fewer times.
const (
	setupLaunches    = 9
	walSetupLaunches = 5
)

// Each loop runs on several server lifetimes, and its figures take the
// median over their quiet slices. Each lifetime's tuners land on a
// configuration of their own, and closed-loop goodput depends on it (by up
// to a fifth on kv-read), so many short closed-loop lifetimes average over
// landings. Open-loop latency depends on landings less; its lifetimes are
// fewer and longer. The lifetimes interleave, closed, closed, open, so
// that both loops span the whole run.
const (
	closedLifetimes = 8
	openLifetimes   = 4
	lifetimeGroup   = 3 // lifetimes per group: two closed, one open
)

// windowOf splits half of --seconds evenly over n lifetimes' windows, in
// whole slices.
func windowOf(seconds, n int) time.Duration {
	return max(slice, (time.Duration(seconds) * time.Second / time.Duration(2*n)).Truncate(slice))
}

// run executes one workload run: end-to-end metrics when traced is false,
// per-layer metrics when it is true. Half of --seconds goes to the windows
// of the closed-loop lifetimes, half to those of the open-loop ones.
func run(e *env, w *workload, seed uint64, seconds int, traced bool) (*result, error) {
	root := e.spans.start("run", 0)
	defer e.spans.end(root)
	e.root = root
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Correct: true}
	if traced {
		// Three lifetimes: untraced closed, traced closed, traced open.
		return r, runTraced(e, w, seed, max(slice, (time.Duration(seconds)*time.Second/3).Truncate(slice)), r, root)
	}
	openWin := windowOf(seconds, openLifetimes)

	var closed, opens []*phaseOut
	for i := 0; i < closedLifetimes+openLifetimes; i++ {
		ps := phaseSpec{name: fmt.Sprintf("closed-%d", len(closed)+1), closed: true, window: windowOf(seconds, closedLifetimes)}
		if i%lifetimeGroup == lifetimeGroup-1 {
			ps = phaseSpec{name: fmt.Sprintf("open-%d", len(opens)+1), window: openWin}
		}
		p, err := e.runPhase(w, seed+uint64(i), ps)
		if err != nil {
			return nil, err
		}
		if ps.closed {
			closed = append(closed, p)
		} else {
			opens = append(opens, p)
		}
	}
	last := opens[len(opens)-1]
	setups, _, err := e.measureSetup(w, last)
	if err != nil {
		return nil, err
	}
	ts := e.spans.start("tune-sim", root)
	tune, err := runTuneSim(seed, e.spans, ts)
	e.spans.end(ts)
	if err != nil {
		return nil, err
	}
	r.Host = fingerprint(last.cpus, last.after.Revision)

	var cpu, mallocs, ops float64
	for _, p := range append(closed, opens...) {
		r.Attempted += p.gen.attemptedInWindow
		r.Failed += p.gen.failedInWindow()
		if f := p.gen.failed(); f > 0 {
			r.note("%s: %d of %d requests failed over the lifetime (%d in the window): %v, unanswered %d",
				p.name, f, p.gen.attempted, p.gen.failedInWindow(), p.gen.errs, p.gen.unanswered)
		}
		r.note("%s: tuner configs %s, re-tunes in the window %d, host CPU steal per slice %.3f, %d latency samples",
			p.name, shardConfigs(p.before), phaseChangepoints(p), p.steal, p.gen.samples())
		if !p.closed {
			cpu += float64(p.cpuTicks) / clockTicks
			mallocs += float64(p.mallocs)
			ops += float64(p.gen.okInWindow)
		}
	}
	goods := sliceValues(quietSlices(closed), func(l []int64) float64 { return float64(len(l)) / slice.Seconds() })
	quiet := quietSlices(opens)
	p50s := sliceValues(quiet, func(l []int64) float64 { return msOf(percentile(l, 0.50)) })
	p99s := sliceValues(quiet, func(l []int64) float64 { return msOf(percentile(l, 0.99)) })
	// p99 is reported, not bounded: other machines' load on the shared
	// host moves it by more than any bound a regression check could use
	// (see README.md). The traced run reports it as a per-layer metric.
	r.note("open loop at %.0f req/s: p99 %.4g ms (median of %d quiet slices, %d samples; per slice %.3g)",
		w.rate, median(p99s), len(p99s), quietSamples(quiet), p99s)
	r.add("goodput_rps", median(goods), "ops/s")
	r.add("p50_ms", median(p50s), "ms")
	r.add("cpu_us_per_op", cpu*1e6/ops, "us")
	r.add("allocs_per_op", mallocs/ops, "count")
	r.add("ok_frac", 1-float64(r.Failed)/float64(r.Attempted), "ratio")
	r.add("setup_s", median(setups), "s")
	r.add("tune_stable_s", mean(tune.stableS), "s")
	r.add("tune_dfo_pct", 100*mean(tune.dfo), "%")
	r.note("tune-sim sessions: %d", tune.sessions)
	return r, nil
}

// measureSetup launches the server setupLaunches (on a WAL workload
// walSetupLaunches) times and returns each launch-to-first-PONG time. On a
// WAL workload every launch is a restart over the given lifetime's log and
// snapshots (the recovery cost -wal users pay), and the first restart also
// checks that the sum of values survived the graceful restart exactly.
func (e *env) measureSetup(w *workload, open *phaseOut) (setups []float64, recovery []*walRecovery, err error) {
	sp := e.spans.start("setup", e.root)
	defer e.spans.end(sp)
	args := w.serverArgs
	if w.wal {
		args = append(append([]string{}, args...), "-wal", open.walDir)
	}
	launches := setupLaunches
	if w.wal {
		launches = walSetupLaunches
	}
	for i := 0; i < launches; i++ {
		ls := e.spans.start("setup.launch", sp)
		p, err := launchServer(e.serverBin, args)
		e.spans.end(ls)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, p.ready.Sub(p.launched).Seconds())
		if w.wal {
			st, err := p.status()
			if err != nil {
				p.kill()
				return nil, nil, err
			}
			recovery = append(recovery, recoveryOf(st.ShardTable))
			if i == 0 {
				sum, err := sweep(p.addr, e.names)
				if err != nil {
					p.kill()
					return nil, nil, err
				}
				if sum != open.sum {
					p.kill()
					return nil, nil, fmt.Errorf("output check failed after graceful restart: sum of values %d, before restart %d", sum, open.sum)
				}
			}
		}
		// Without -wal the server keeps nothing, so it is killed: a
		// graceful stop this soon after launch waits out the tuners'
		// first measurement window.
		if !w.wal {
			p.kill()
			continue
		}
		if err := p.stop(); err != nil {
			return nil, nil, err
		}
	}
	return setups, recovery, nil
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// walRecovery is one restart's recovery cost summed over shards.
type walRecovery struct {
	maxMS   float64 // slowest shard's open + replay + restore
	entries int     // WAL entries replayed on top of the snapshots
}

func recoveryOf(rows []server.ShardStatus) *walRecovery {
	out := &walRecovery{}
	for _, row := range rows {
		if row.WAL == nil || row.WAL.Recovery == nil {
			continue
		}
		out.maxMS = math.Max(out.maxMS, row.WAL.Recovery.DurationMS)
		out.entries += row.WAL.Recovery.ReplayEntries
	}
	return out
}

// phaseChangepoints counts CUSUM change-points inside a phase's window.
func phaseChangepoints(p *phaseOut) int {
	return countDecisions(p.decisions, obs.KindChangePoint, p.winStart, p.winStart.Add(p.window))
}

// shardConfigs renders every shard's current (t, c).
func shardConfigs(st server.Status) string {
	var b strings.Builder
	for _, row := range st.ShardTable {
		fmt.Fprintf(&b, "(%d,%d)", row.T, row.C)
	}
	return b.String()
}
