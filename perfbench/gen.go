package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// genConfig configures one load phase. The generator runs in this process
// with one sending and one reading goroutine per connection.
type genConfig struct {
	addr  string
	conns int
	// depth > 0 makes a closed loop: each connection keeps depth requests
	// outstanding and sends the next one when a reply arrives.
	depth int
	// rate > 0 makes an open loop: Poisson arrivals at rate req/s in
	// total, split evenly over the connections. Latency is timed from each
	// arrival's due time, so a sender that falls behind (blocked on the
	// in-flight cap or the socket) charges its wait to the requests queued
	// behind it instead of hiding it.
	rate float64
	// maxInFlight caps an open-loop connection's unanswered requests. An
	// arrival that finds the cap full waits; it is never dropped.
	maxInFlight int
}

// openInFlight is the default open-loop in-flight cap per connection. All
// connections together keep at most the server's default per-shard
// admission queue (256) unanswered, so even when every one of them maps to
// one shard its queue cannot overflow: a host stall makes arrivals wait in
// the generator, where due-time latency charges the wait, instead of
// failing them with ERR overload.
const openInFlight = 256 / genConns

// slice is the length of the sub-windows a window is cut into. Latency
// percentiles and goodput are the median over quiet slices (see
// quietSlices), so a host stall moves the slices it hits and not the
// run's figure. Half of kv-write-wal's snapshot interval: a window of two
// slices carries one snapshot.
const slice = time.Second

func numSlices(window time.Duration) int { return int((window + slice - 1) / slice) }

// pendEntry is one request awaiting its in-order reply.
type pendEntry struct {
	due   int64 // ns since the phase base: due time (open) or send time (closed)
	delta uint64
	// slice is the window slice the sender counted the request in (-1:
	// outside the window). The reader counts its reply in the same slice,
	// so a request sent while the window opens is counted on both sides
	// or on neither.
	slice int
}

// genConn is one client connection with its sender and reader.
type genConn struct {
	nc   net.Conn
	gen  *opGen
	pend chan pendEntry
	// tokens is the closed loop's outstanding-request budget.
	tokens chan struct{}

	sent     atomic.Uint64
	received atomic.Uint64

	// Sender-owned until the sender exits.
	missed   uint64 // open-loop arrivals due before the stop but never sent
	firstDue int64

	// Reader-owned until the reader exits.
	ok     uint64
	errs   map[string]uint64
	acked  uint64 // sum of deltas of acknowledged updates
	unsure uint64 // sum of deltas whose outcome is unknown (timeout, wal)

	// Per-slice figures of the window, indexed by the slice a request was
	// due in. att and late are sender-owned; okN, upd and lat reader-owned.
	att, okN, upd []uint64
	late, lat     [][]int64 // ns
}

// gen is one running load phase.
type gen struct {
	cfg   genConfig
	base  time.Time
	conns []*genConn
	names [][]byte

	winStart         atomic.Int64 // ns since base
	slices           int          // the window's maximum slice count
	stopAt           atomic.Int64 // ns since base; 0 while running
	stopCh           chan struct{}
	abortCh          chan struct{} // closed when the drain deadline passes
	senders, readers sync.WaitGroup
}

func (g *gen) now() int64 { return int64(time.Since(g.base)) }

// startGen connects and starts sending. Every connection's op stream is
// drawn from w with the given seed.
func startGen(cfg genConfig, w *workload, seed uint64, names [][]byte) (*gen, error) {
	if cfg.maxInFlight <= 0 {
		cfg.maxInFlight = openInFlight
	}
	g := &gen{cfg: cfg, names: names, stopCh: make(chan struct{}), abortCh: make(chan struct{})}
	g.winStart.Store(math.MaxInt64)
	for i := 0; i < cfg.conns; i++ {
		nc, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			for _, c := range g.conns {
				_ = c.nc.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", cfg.addr, err)
		}
		c := &genConn{nc: nc, gen: newOpGen(w, seed, i), errs: make(map[string]uint64)}
		if cfg.depth > 0 {
			c.pend = make(chan pendEntry, cfg.depth)
			c.tokens = make(chan struct{}, cfg.depth)
			for j := 0; j < cfg.depth; j++ {
				c.tokens <- struct{}{}
			}
		} else {
			c.pend = make(chan pendEntry, cfg.maxInFlight)
		}
		g.conns = append(g.conns, c)
	}
	g.base = time.Now()
	for i, c := range g.conns {
		g.senders.Add(1)
		g.readers.Add(1)
		go func() {
			defer g.readers.Done()
			g.read(c)
		}()
		if cfg.depth > 0 {
			go func() {
				defer g.senders.Done()
				g.sendClosed(c)
			}()
		} else {
			rng := rand.New(rand.NewSource(int64(seed)*7 + int64(i) + 1)) //nolint:gosec // reproducible arrivals
			go func() {
				defer g.senders.Done()
				g.sendOpen(c, rng, cfg.rate/float64(cfg.conns))
			}()
		}
	}
	return g, nil
}

// window starts the measured interval now, with room for up to n slices;
// stop is told how many of them the window kept.
func (g *gen) window(n int) (start time.Time) {
	g.slices = n
	for _, c := range g.conns {
		c.att, c.okN, c.upd = make([]uint64, n), make([]uint64, n), make([]uint64, n)
		c.late, c.lat = make([][]int64, n), make([][]int64, n)
	}
	now := g.now()
	g.winStart.Store(now)
	return g.base.Add(time.Duration(now))
}

// sliceOf returns the window slice t falls in, or -1.
func (g *gen) sliceOf(t int64) int {
	ws := g.winStart.Load()
	if t < ws {
		return -1
	}
	if i := int((t - ws) / int64(slice)); i < g.slices {
		return i
	}
	return -1
}

func (g *gen) sendClosed(c *genConn) {
	w := bufio.NewWriterSize(c.nc, 32<<10)
	for {
		select {
		case <-c.tokens:
		case <-g.stopCh:
			return
		}
		for {
			o := c.gen.next()
			t := g.now()
			i := g.sliceOf(t)
			c.pend <- pendEntry{due: t, delta: o.deltaSum(), slice: i}
			_, _ = w.Write(appendOp(w.AvailableBuffer(), o, g.names))
			c.sent.Add(1)
			if i >= 0 {
				c.att[i]++
			}
			select {
			case <-c.tokens:
				continue
			default:
			}
			break
		}
		if w.Flush() != nil {
			return
		}
	}
}

// openTick is the open-loop sender's pacing granularity: arrivals due
// within one tick go out in one write. It bounds how late a healthy sender
// runs.
const openTick = 100 * time.Microsecond

func (g *gen) sendOpen(c *genConn, rng *rand.Rand, rate float64) {
	w := bufio.NewWriterSize(c.nc, 32<<10)
	gap := func() int64 { return int64(rng.ExpFloat64() / rate * 1e9) }
	due := gap()
	c.firstDue = due
	limit := int64(math.MaxInt64) // arrivals due from here on are not sent
	type sentAt struct {
		due   int64
		slice int
	}
	var batch []sentAt
	for {
		if limit == math.MaxInt64 {
			select {
			case <-g.stopCh:
				limit = g.stopAt.Load()
			default:
			}
		}
		now := g.now()
		batch = batch[:0]
		for due <= now && due < limit {
			o := c.gen.next()
			e := pendEntry{due: due, delta: o.deltaSum(), slice: g.sliceOf(due)}
			select {
			case c.pend <- e:
			default:
				// In-flight cap reached: flush what is buffered and wait
				// for a slot; the wait is charged to this arrival.
				if w.Flush() != nil {
					return
				}
				select {
				case c.pend <- e:
				case <-g.abortCh:
					g.missUntil(c, g.stopAt.Load(), due, gap)
					return
				}
			}
			_, _ = w.Write(appendOp(w.AvailableBuffer(), o, g.names))
			c.sent.Add(1)
			if i := e.slice; i >= 0 {
				c.att[i]++
				batch = append(batch, sentAt{due, i})
			}
			due += gap()
		}
		if w.Buffered() > 0 {
			if w.Flush() != nil {
				return
			}
			t := g.now()
			for _, b := range batch {
				c.late[b.slice] = append(c.late[b.slice], t-b.due)
			}
		}
		if due >= limit {
			return // every arrival due before the stop was sent
		}
		if d := due - g.now(); d > 0 {
			time.Sleep(max(time.Duration(d), openTick))
		}
	}
}

// missUntil counts the arrivals from due up to stop, which were never
// sent, as attempted.
func (g *gen) missUntil(c *genConn, stop, due int64, gap func() int64) {
	for ; due < stop; due += gap() {
		c.missed++
		if i := g.sliceOf(due); i >= 0 {
			c.att[i]++
		}
	}
}

var (
	respValue = []byte("VALUE ")
	respOK    = []byte("OK")
	respPong  = []byte("PONG")
	respErr   = []byte("ERR ")
)

func (g *gen) read(c *genConn) {
	r := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return // connection closed by stop, or by the server
		}
		t := g.now()
		e := <-c.pend
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, respValue), bytes.Equal(line, respOK), bytes.Equal(line, respPong):
			c.ok++
			c.acked += e.delta
			if i := e.slice; i >= 0 {
				c.okN[i]++
				if e.delta > 0 {
					c.upd[i]++
				}
				c.lat[i] = append(c.lat[i], t-e.due)
			}
		case bytes.HasPrefix(line, respErr):
			code := string(line[len(respErr):])
			c.errs[code]++
			if code == "timeout" || code == "wal" {
				// The update may have committed anyway.
				c.unsure += e.delta
			}
		default:
			c.errs["unparsed"]++
			c.unsure += e.delta
		}
		c.received.Add(1)
		if c.tokens != nil {
			c.tokens <- struct{}{}
		}
	}
}

// genResult is a finished phase, summed over connections.
type genResult struct {
	attempted  uint64 // over the lifetime: sent, plus arrivals never sent
	ok         uint64
	unanswered uint64
	errs       map[string]uint64
	acked      uint64
	unsure     uint64 // deltas of unanswered or maybe-applied requests
	firstDue   time.Time

	// The window: per-slice latencies, and sums over its slices.
	lat               [][]int64
	late              []int64
	attemptedInWindow uint64
	okInWindow        uint64
	updatesInWindow   uint64
}

func (r *genResult) failed() uint64 { return r.attempted - r.ok }

func (r *genResult) failedInWindow() uint64 { return r.attemptedInWindow - r.okInWindow }

// samples is the number of in-window latency samples.
func (r *genResult) samples() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

// stop ends sending, waits up to drain for the outstanding replies, and
// closes the connections. The window keeps its first kept slices.
func (g *gen) stop(drain time.Duration, kept int) genResult {
	deadline := time.Now().Add(drain)
	g.stopAt.Store(g.now())
	close(g.stopCh)
	// An open-loop sender first sends every arrival due before the stop;
	// a sender still blocked on its in-flight cap at the deadline gives up.
	sent := make(chan struct{})
	go func() {
		g.senders.Wait()
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(drain):
		close(g.abortCh)
		<-sent
	}
	for time.Now().Before(deadline) {
		done := true
		for _, c := range g.conns {
			if c.received.Load() < c.sent.Load() {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, c := range g.conns {
		_ = c.nc.Close()
	}
	g.readers.Wait()
	res := genResult{errs: make(map[string]uint64), lat: make([][]int64, kept)}
	first := int64(math.MaxInt64)
	for _, c := range g.conns {
		res.attempted += c.sent.Load() + c.missed
		res.ok += c.ok
		res.unanswered += c.sent.Load() - c.received.Load() + c.missed
		for k, v := range c.errs {
			res.errs[k] += v
		}
		res.acked += c.acked
		res.unsure += c.unsure
		first = min(first, c.firstDue)
		// Deltas of requests that were sent but never answered may or may
		// not have been applied.
		for len(c.pend) > 0 {
			res.unsure += (<-c.pend).delta
		}
		for i := 0; i < kept; i++ {
			res.attemptedInWindow += c.att[i]
			res.okInWindow += c.okN[i]
			res.updatesInWindow += c.upd[i]
			res.lat[i] = append(res.lat[i], c.lat[i]...)
			res.late = append(res.late, c.late[i]...)
		}
	}
	res.firstDue = g.base.Add(time.Duration(first))
	return res
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// sweep reads every key with pipelined GETs and returns the sum of values.
func sweep(addr string, names [][]byte) (uint64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("sweep dial: %w", err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	w := bufio.NewWriter(nc)
	r := bufio.NewReader(nc)
	var sum uint64
	const chunk = 512
	for i := 0; i < len(names); i += chunk {
		n := min(chunk, len(names)-i)
		for _, k := range names[i : i+n] {
			_, _ = w.WriteString("GET ")
			_, _ = w.Write(k)
			_ = w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			return 0, fmt.Errorf("sweep write: %w", err)
		}
		for j := 0; j < n; j++ {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return 0, fmt.Errorf("sweep read: %w", err)
			}
			line = bytes.TrimRight(line, "\r\n")
			if !bytes.HasPrefix(line, respValue) {
				return 0, fmt.Errorf("sweep GET %s: %q", names[i+j], line)
			}
			v, err := strconv.ParseUint(string(line[len(respValue):]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("sweep GET %s: %q", names[i+j], line)
			}
			sum += v
		}
	}
	return sum, nil
}
