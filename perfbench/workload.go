package main

import (
	"math/rand"
	"strconv"

	"autopn/internal/server"
)

// workload is one traffic mix: the key space and its skew, the operation
// mix, the fixed open-loop rate and the autopn-server flags it runs under.
// Every mix uses only GET, ADD and MADD, so the sum of all values after a
// phase equals the sum of acknowledged deltas exactly.
type workload struct {
	name string

	keys     int
	zipfS    float64 // key skew for GET and non-hot writes; 0 = uniform
	getFrac  float64 // share of GET among all requests
	maddFrac float64 // share of MADD among writes (the rest are ADD)
	maddKeys int     // keys per MADD, all on the primary key's shard
	hotKeys  int     // writes hit the first hotKeys keys ...
	hotFrac  float64 // ... with this probability

	// rate is the fixed open-loop request rate, an absolute figure that is
	// never recalibrated per run: 17-26% of the 2-connection closed-loop
	// capacity measured on a 2-vCPU Xeon host, low enough that the hot
	// shard's queue does not overflow when host steal rises.
	rate float64

	shards     int // the server's -shards (drives MADD colocation)
	workers    int // executor goroutines per shard, as the server starts them
	wal        bool
	serverArgs []string
}

var workloads = []*workload{
	// The front door does most of the work (parse, route, admission,
	// queue, reply flush, obs); the STM runs short read-only transactions;
	// WAL and sched are idle.
	{
		name: "kv-read",
		keys: 16384, zipfS: 1.1, getFrac: 0.95, maddFrac: 0,
		rate:   40000,
		shards: 4, workers: 2,
	},
	// The same front door, but the work is in the update path: STM commit,
	// nested MADD fan-out, WAL group append under interval fsync, and
	// recurring snapshots.
	{
		name: "kv-write-wal",
		keys: 16384, zipfS: 1.2, getFrac: 0.10, maddFrac: 0.30, maddKeys: 4,
		rate:   16000,
		shards: 4, workers: 2, wal: true,
		serverArgs: []string{"-wal-sync", "interval", "-snapshot-interval", "2s"},
	},
	// A retry storm on 8 hot keys: STM abort and retry, parallel nested
	// children, conflict attribution and the scheduler. The tuner is off:
	// its landing on (1,1), (2,1) or (1,2) makes goodput bimodal.
	{
		name: "kv-hot-madd",
		keys: 64, getFrac: 0.05, maddFrac: 0.90, maddKeys: 16, hotKeys: 8, hotFrac: 0.90,
		rate:   3000,
		shards: 1, workers: 8,
		serverArgs: []string{"-shards", "1", "-keys", "64", "-no-tuner", "-workers", "8", "-sched"},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tuned reports whether the workload's server runs per-shard tuners.
func (w *workload) tuned() bool {
	for _, a := range w.serverArgs {
		if a == "-no-tuner" {
			return false
		}
	}
	return true
}

type opKind uint8

const (
	opGet opKind = iota
	opAdd
	opMAdd
)

// op is one generated request. keys index the preloaded key space; deltas
// parallel keys for ADD and MADD.
type op struct {
	kind   opKind
	keys   []int
	deltas []uint64
}

// deltaSum is what the op adds to the sum of all values when it commits.
func (o *op) deltaSum() uint64 {
	var s uint64
	for _, d := range o.deltas {
		s += d
	}
	return s
}

// opGen draws a workload's op stream. The same seed and stream index give
// the same sequence of ops.
type opGen struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	ring    *server.Ring
	byShard [][]int
	op      op
	seen    map[int]bool
}

func newOpGen(w *workload, seed uint64, stream int) *opGen {
	g := &opGen{
		w:    w,
		rng:  rand.New(rand.NewSource(int64(seed*1000003 + uint64(stream)))), //nolint:gosec // reproducible workload stream, not crypto
		ring: server.NewRing(w.shards, 0),
		seen: make(map[int]bool),
	}
	if w.zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, w.zipfS, 1, uint64(w.keys-1))
	}
	g.byShard = make([][]int, w.shards)
	for i := 0; i < w.keys; i++ {
		s := g.ring.Lookup(server.KeyName(i))
		g.byShard[s] = append(g.byShard[s], i)
	}
	return g
}

func (g *opGen) key() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.w.keys)
}

func (g *opGen) writeKey() int {
	if g.w.hotKeys > 0 && g.rng.Float64() < g.w.hotFrac {
		return g.rng.Intn(g.w.hotKeys)
	}
	return g.key()
}

// next returns the next op. The returned op is reused by the following
// call.
func (g *opGen) next() *op {
	o := &g.op
	o.keys, o.deltas = o.keys[:0], o.deltas[:0]
	if g.rng.Float64() < g.w.getFrac {
		o.kind = opGet
		o.keys = append(o.keys, g.key())
		return o
	}
	k := g.writeKey()
	if g.w.maddKeys > 1 && g.rng.Float64() < g.w.maddFrac {
		o.kind = opMAdd
		same := g.byShard[g.ring.Lookup(server.KeyName(k))]
		clear(g.seen)
		g.seen[k] = true
		o.keys = append(o.keys, k)
		for len(o.keys) < g.w.maddKeys && len(o.keys) < len(same) {
			x := same[g.rng.Intn(len(same))]
			if !g.seen[x] {
				g.seen[x] = true
				o.keys = append(o.keys, x)
			}
		}
		for range o.keys {
			o.deltas = append(o.deltas, uint64(1+g.rng.Intn(8)))
		}
		return o
	}
	o.kind = opAdd
	o.keys = append(o.keys, k)
	o.deltas = append(o.deltas, uint64(1+g.rng.Intn(8)))
	return o
}

// keyNames caches the wire names of the first n keys.
func keyNames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(server.KeyName(i))
	}
	return out
}

// appendOp renders o as one protocol line.
func appendOp(b []byte, o *op, names [][]byte) []byte {
	switch o.kind {
	case opGet:
		b = append(b, "GET "...)
		b = append(b, names[o.keys[0]]...)
	case opAdd:
		b = append(b, "ADD "...)
		b = append(b, names[o.keys[0]]...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, o.deltas[0], 10)
	case opMAdd:
		b = append(b, "MADD"...)
		for i, k := range o.keys {
			b = append(b, ' ')
			b = append(b, names[k]...)
			b = append(b, ' ')
			b = strconv.AppendUint(b, o.deltas[i], 10)
		}
	}
	return append(b, '\n')
}
