package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"autopn/internal/obs"
	"autopn/internal/server"
)

// env is what every phase of one run shares.
type env struct {
	serverBin string
	work      string // scratch directory of this run
	names     [][]byte
	spans     *spanLog
	root      int // the run's span
}

// phaseSpec describes one server lifetime under load.
type phaseSpec struct {
	name   string
	closed bool          // closed loop (else the workload's fixed open-loop rate)
	window time.Duration // measured interval
	// traceSample > 0 starts the server with request tracing at that
	// sample rate and keeps every trace of the phase.
	traceSample float64
	// profile takes a CPU profile of the server over the window.
	profile bool
}

// Closed-loop shape: 2 connections with 64 requests outstanding on each.
const (
	genConns    = 2
	closedDepth = 64
	// settleTimeout bounds the wait for every tuner to settle.
	settleTimeout = 30 * time.Second
	// untunedWarmup is the warm-up of a server without tuners: long
	// enough for the scheduler controller (250 ms ticks) to promote the
	// hot set before the window opens.
	untunedWarmup = time.Second
)

// phaseOut is one finished phase.
type phaseOut struct {
	name     string
	closed   bool
	gen      genResult
	sum      uint64 // GET-sweep sum after the phase drained
	walDir   string
	pid      int
	cpus     int    // CPUs in the server's affinity mask
	cpuTicks uint64 // server utime+stime over the window
	mallocs  uint64 // server heap allocations over the window
	before   server.Status
	after    server.Status
	// decisions are the per-shard decision logs of the lifetime.
	decisions [][]obs.Decision
	traces    []stageTrace
	profile   string // CPU profile path
	winStart  time.Time
	window    time.Duration // as measured: its slices times slice
	// steal is each slice's share of host CPU time stolen by the
	// hypervisor for other virtual machines (see quietSlices).
	steal []float64
}

// runPhase launches a fresh server, drives the workload's traffic, measures
// one window once every tuner settled, then drains, checks the sum of all
// values against the acknowledged deltas and shuts the server down.
func (e *env) runPhase(w *workload, seed uint64, ps phaseSpec) (*phaseOut, error) {
	sp := e.spans.start("phase."+ps.name, e.root)
	defer e.spans.end(sp)
	dir := filepath.Join(e.work, ps.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &phaseOut{name: ps.name, closed: ps.closed}
	args := append([]string{"-decision-log-dir", filepath.Join(dir, "decisions"), "-seed", strconv.FormatUint(seed, 10)}, w.serverArgs...)
	if w.wal {
		out.walDir = filepath.Join(dir, "wal")
		args = append(args, "-wal", out.walDir)
	}
	if ps.traceSample > 0 {
		// Size the ring to hold every trace from the phase's start through
		// the window at the open-loop rate.
		ring := int(w.rate*ps.traceSample*(ps.window.Seconds()+settleTimeout.Seconds())) + 4096
		args = append(args, "-trace-sample", strconv.FormatFloat(ps.traceSample, 'g', -1, 64), "-trace-ring", strconv.Itoa(ring))
	}
	p, err := launchServer(e.serverBin, args)
	if err != nil {
		return nil, err
	}
	defer func() {
		select {
		case <-p.exited:
		default:
			p.kill()
		}
	}()
	out.pid = p.pid()
	out.cpus = cpusAllowed(out.pid)

	cfg := genConfig{addr: p.addr, conns: genConns}
	if ps.closed {
		cfg.depth = closedDepth
	} else {
		cfg.rate = w.rate
	}
	g, err := startGen(cfg, w, seed, e.names)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			g.stop(0, 0)
		}
	}()
	settle := e.spans.start("settle", sp)
	if w.tuned() {
		err = p.waitSettled(settleTimeout)
	} else {
		time.Sleep(untunedWarmup)
	}
	e.spans.end(settle)
	if err != nil {
		return nil, err
	}

	if out.before, err = p.status(); err != nil {
		return nil, err
	}
	cpu0, err := cpuTicks(out.pid)
	if err != nil {
		return nil, err
	}
	m0, err := p.mallocs()
	if err != nil {
		return nil, err
	}
	var profDone chan error
	if ps.profile {
		out.profile = filepath.Join(dir, "cpu.pprof")
		profDone = make(chan error, 1)
		go func() { profDone <- fetchProfile(p, ps.window, out.profile) }()
	}
	n := numSlices(ps.window)
	win := e.spans.start("window", sp)
	out.winStart = g.window(n)
	steal0, total0 := hostSteal()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(out.winStart.Add(time.Duration(i) * slice)))
		steal1, total1 := hostSteal()
		out.steal = append(out.steal, ratio(float64(steal1-steal0), float64(total1-total0)))
		steal0, total0 = steal1, total1
	}
	e.spans.end(win)
	out.window = time.Duration(n) * slice
	cpu1, err := cpuTicks(out.pid)
	if err != nil {
		return nil, err
	}
	m1, err := p.mallocs()
	if err != nil {
		return nil, err
	}
	out.cpuTicks, out.mallocs = cpu1-cpu0, m1-m0
	if out.after, err = p.status(); err != nil {
		return nil, err
	}
	if profDone != nil {
		if err := <-profDone; err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	drain := e.spans.start("drain", sp)
	out.gen = g.stop(10*time.Second, len(out.steal))
	stopped = true
	e.spans.end(drain)
	sw := e.spans.start("sweep", sp)
	out.sum, err = sweep(p.addr, e.names)
	e.spans.end(sw)
	if err != nil {
		return nil, err
	}
	if err := checkSum(ps.name, out.sum, out.gen.acked, out.gen.unsure); err != nil {
		return nil, err
	}
	if ps.traceSample > 0 {
		if out.traces, err = fetchStageTraces(p, out.winStart, out.window); err != nil {
			return nil, err
		}
	}
	if err := p.stop(); err != nil {
		return nil, err
	}
	out.decisions, err = readDecisionLogs(filepath.Join(dir, "decisions"), len(out.after.ShardTable))
	return out, err
}

// checkSum is the output check after a phase drained: every acknowledged
// delta is in the store, and nothing beyond the deltas whose outcome the
// client could not know (timeouts, WAL errors, unanswered requests).
func checkSum(phase string, sum, acked, unsure uint64) error {
	if sum < acked || sum > acked+unsure {
		return fmt.Errorf("output check failed after %s: sum of values %d, acknowledged deltas %d (+%d unknown)", phase, sum, acked, unsure)
	}
	return nil
}

func readDecisionLogs(dir string, shards int) ([][]obs.Decision, error) {
	out := make([][]obs.Decision, shards)
	for i := range out {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i)))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var d obs.Decision
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				f.Close()
				return nil, fmt.Errorf("decision log shard %d: %w", i, err)
			}
			out[i] = append(out[i], d)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// settleTime is the time from the phase's first request until every
// shard's tuner applied the best configuration of its first session, and
// the mean number of measurement windows each shard ran before that.
func settleTime(decisions [][]obs.Decision, first time.Time) (seconds, windows float64, ok bool) {
	var last time.Time
	for _, ds := range decisions {
		applied := false
		for _, d := range ds {
			if d.Kind == obs.KindMeasurement {
				windows++
			}
			if d.Kind == obs.KindApply {
				if d.Time.After(last) {
					last = d.Time
				}
				applied = true
				break
			}
		}
		if !applied {
			return 0, 0, false
		}
	}
	if len(decisions) == 0 {
		return 0, 0, false
	}
	return last.Sub(first).Seconds(), windows / float64(len(decisions)), true
}

// countDecisions counts decisions of kind made inside [from, to).
func countDecisions(decisions [][]obs.Decision, kind string, from, to time.Time) int {
	n := 0
	for _, ds := range decisions {
		for _, d := range ds {
			if d.Kind == kind && !d.Time.Before(from) && d.Time.Before(to) {
				n++
			}
		}
	}
	return n
}

func fetchProfile(p *serverProc, d time.Duration, path string) error {
	secs := int(d.Round(time.Second) / time.Second)
	b, err := p.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", max(secs, 1)))
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Host CPU steal is time the hypervisor gave to other virtual machines,
// not work of the program: on the 2-vCPU reference host it ranged from
// under 1% to over 30% within minutes and moved goodput and p99 several
// times over. Goodput and latency are therefore the median over a loop's
// quiet slices, pooled over its lifetimes: those with at most maxSteal
// steal, or, when fewer than a third of the slices are, the third with the
// least steal. CPU and allocations per op cover every slice.
const maxSteal = 0.02

// sliceRef names one slice of one lifetime's window.
type sliceRef struct {
	p *phaseOut
	i int
}

// quietSlices returns the quiet slices of the lifetimes' windows.
func quietSlices(ps []*phaseOut) []sliceRef {
	var all []sliceRef
	for _, p := range ps {
		for i := range p.steal {
			all = append(all, sliceRef{p, i})
		}
	}
	steal := func(r sliceRef) float64 { return r.p.steal[r.i] }
	var quiet []sliceRef
	for _, r := range all {
		if steal(r) <= maxSteal {
			quiet = append(quiet, r)
		}
	}
	if third := (len(all) + 2) / 3; len(quiet) < third {
		sort.SliceStable(all, func(a, b int) bool { return steal(all[a]) < steal(all[b]) })
		quiet = all[:third]
	}
	return quiet
}

// sliceValues applies f to the sorted latencies of each slice.
func sliceValues(slices []sliceRef, f func(sorted []int64) float64) []float64 {
	var out []float64
	for _, r := range slices {
		if l := r.p.gen.lat[r.i]; len(l) > 0 {
			out = append(out, f(sortedCopy(l)))
		}
	}
	return out
}

// quietSamples counts the latency samples of the given slices.
func quietSamples(slices []sliceRef) int {
	n := 0
	for _, r := range slices {
		n += len(r.p.gen.lat[r.i])
	}
	return n
}

// hostSteal reads the steal and total jiffies of the host's aggregate CPU
// line in /proc/stat (zeros where unavailable).
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
