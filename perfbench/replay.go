package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autopn/internal/obs"
	"autopn/internal/sched"
	"autopn/internal/server"
	"autopn/internal/stm"
	"autopn/internal/wal"
)

// The replay drives a workload's op stream in-process through the public
// entry points the server's shards use, timing each call from outside:
// Ring.Lookup for routing, AtomicReadOnly for GET, AtomicVersionedCtxHint
// for ADD and (with Tx.Parallel children) MADD, wal.Log.AppendBatch under
// the interval fsync policy, sched.Admit/Leave after promoting the hot set,
// and obs.Histogram.Observe from two goroutines.

const (
	replayOps = 20000 // ops per replay
	// block is how many calls one timing covers for calls too short to
	// time one by one (Ring, obs, sched): the clock read would dominate.
	block = 256
)

type replayResult struct {
	attemptsPerCommit float64
	getNS, addNS      []int64
	maddNS            []int64
	walAppendNS       []int64
	admitNS           []int64 // per call, from blocks
	lookupNS          []int64
	observeNS         []int64
}

// replay runs the replays. walBatch is how many update ops one WAL append
// carries (the server's measured group size, or 1).
func replay(w *workload, seed uint64, walBatch int, walDir string, spans *spanLog, parent int) (*replayResult, error) {
	g := newOpGen(w, seed, 0)
	ops := make([]op, replayOps)
	var want uint64
	for i := range ops {
		o := g.next()
		ops[i] = op{kind: o.kind, keys: append([]int(nil), o.keys...), deltas: append([]uint64(nil), o.deltas...)}
		want += o.deltaSum()
	}
	res := &replayResult{}

	ring := server.NewRing(w.shards, 0)
	names := make([]string, w.keys)
	for k := range names {
		names[k] = server.KeyName(k)
	}
	sp := spans.start("replay.ring", parent)
	for i := 0; i+block <= len(ops); i += block {
		t0 := time.Now()
		for j := i; j < i+block; j++ {
			ring.Lookup(names[ops[j].keys[0]])
		}
		res.lookupNS = append(res.lookupNS, int64(time.Since(t0))/block)
	}
	spans.end(sp)

	sp = spans.start("replay.stm", parent)
	err := replaySTM(w, ops, want, res, spans, sp)
	spans.end(sp)
	if err != nil {
		return nil, err
	}

	sp = spans.start("replay.wal", parent)
	err = replayWAL(ops, walBatch, walDir, res, spans, sp)
	spans.end(sp)
	if err != nil {
		return nil, err
	}

	sp = spans.start("replay.sched", parent)
	replaySched(w, ops, res)
	spans.end(sp)

	sp = spans.start("replay.obs", parent)
	replayObs(ops, res)
	spans.end(sp)
	return res, nil
}

// replaySTM runs the ops on one STM per shard with as many goroutines as
// the server runs workers, and checks that every delta landed.
func replaySTM(w *workload, ops []op, want uint64, res *replayResult, spans *spanLog, parent int) error {
	ring := server.NewRing(w.shards, 0)
	stms := make([]*stm.STM, w.shards)
	for i := range stms {
		stms[i] = stm.New(stm.Options{})
	}
	boxes := make([]*stm.VBox[uint64], w.keys)
	owner := make([]int, w.keys)
	for k := range boxes {
		boxes[k] = stm.NewVBox(uint64(0))
		owner[k] = ring.Lookup(server.KeyName(k))
	}
	type timed struct {
		kind opKind
		t0   time.Time
		t1   time.Time
	}
	workers := w.shards * w.workers
	var next atomic.Int64
	var wg sync.WaitGroup
	local := make([][]timed, workers)
	errs := make([]error, workers)
	ctx := context.Background()
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				s := stms[owner[o.keys[0]]]
				t0 := time.Now()
				var err error
				switch o.kind {
				case opGet:
					box := boxes[o.keys[0]]
					err = s.AtomicReadOnly(func(tx *stm.Tx) error {
						box.Get(tx)
						return nil
					})
				case opAdd:
					box, d := boxes[o.keys[0]], o.deltas[0]
					_, err = s.AtomicVersionedCtxHint(ctx, box.ConflictKey(), func(tx *stm.Tx) error {
						box.Set(tx, box.Get(tx)+d)
						return nil
					})
				case opMAdd:
					_, err = s.AtomicVersionedCtxHint(ctx, boxes[o.keys[0]].ConflictKey(), func(tx *stm.Tx) error {
						fns := make([]func(*stm.Tx) error, len(o.keys))
						for j, k := range o.keys {
							box, d := boxes[k], o.deltas[j]
							fns[j] = func(child *stm.Tx) error {
								box.Set(child, box.Get(child)+d)
								return nil
							}
						}
						return tx.Parallel(fns...)
					})
				}
				if err != nil {
					errs[wi] = err
					return
				}
				local[wi] = append(local[wi], timed{o.kind, t0, time.Now()})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("stm replay: %w", err)
		}
	}
	names := [...]string{opGet: "stm.get", opAdd: "stm.add", opMAdd: "stm.madd"}
	for _, l := range local {
		for _, t := range l {
			spans.add(names[t.kind], parent, t.t0, t.t1)
			d := int64(t.t1.Sub(t.t0))
			switch t.kind {
			case opGet:
				res.getNS = append(res.getNS, d)
			case opAdd:
				res.addNS = append(res.addNS, d)
			case opMAdd:
				res.maddNS = append(res.maddNS, d)
			}
		}
	}
	var commits, aborts uint64
	for _, s := range stms {
		st := s.Stats.Snapshot()
		commits += st.TopCommits - st.ReadOnlyTops
		aborts += st.TopAborts
	}
	if commits > 0 {
		res.attemptsPerCommit = float64(commits+aborts) / float64(commits)
	}
	var got uint64
	for k, box := range boxes {
		s := stms[owner[k]]
		if err := s.AtomicReadOnly(func(tx *stm.Tx) error {
			got += box.Get(tx)
			return nil
		}); err != nil {
			return fmt.Errorf("stm replay sum: %w", err)
		}
	}
	if got != want {
		return fmt.Errorf("output check failed: STM replay sum %d, replayed deltas %d", got, want)
	}
	return nil
}

// replayWAL appends the update ops to a fresh log under the interval
// policy, walBatch ops per append, as one shard's writer goroutine does.
func replayWAL(ops []op, walBatch int, dir string, res *replayResult, spans *spanLog, parent int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return fmt.Errorf("wal replay open: %w", err)
	}
	vals := make(map[int]uint64)
	var batch []wal.Entry
	n, ver := 0, uint64(0)
	flush := func() error {
		t0 := time.Now()
		_, err := log.AppendBatch(batch)
		t1 := time.Now()
		spans.add("wal.append", parent, t0, t1)
		res.walAppendNS = append(res.walAppendNS, int64(t1.Sub(t0)))
		batch, n = batch[:0], 0
		return err
	}
	for i := range ops {
		o := &ops[i]
		if o.kind == opGet {
			continue
		}
		ver++
		kind := wal.OpAdd
		if o.kind == opMAdd {
			kind = wal.OpMAdd
		}
		for j, k := range o.keys {
			vals[k] += o.deltas[j]
			batch = append(batch, wal.Entry{Op: kind, Key: uint32(k), Val: vals[k], Ver: ver})
		}
		if n++; n == walBatch {
			if err := flush(); err != nil {
				_ = log.Close()
				return fmt.Errorf("wal replay append: %w", err)
			}
		}
	}
	if n > 0 {
		if err := flush(); err != nil {
			_ = log.Close()
			return fmt.Errorf("wal replay append: %w", err)
		}
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal replay close: %w", err)
	}
	return nil
}

// replaySched admits every update op's primary key after promoting the
// workload's hot set (its eight most frequent keys) into domains.
func replaySched(w *workload, ops []op, res *replayResult) {
	s := sched.New(sched.Options{})
	boxes := make([]*stm.VBox[uint64], w.keys)
	for k := range boxes {
		boxes[k] = stm.NewVBox(uint64(0))
	}
	for k := 0; k < 8 && k < w.keys; k++ {
		s.Promote(boxes[k].ConflictKey(), server.KeyName(k))
	}
	var keys []uintptr
	for i := range ops {
		if ops[i].kind != opGet {
			keys = append(keys, boxes[ops[i].keys[0]].ConflictKey())
		}
	}
	if len(keys) == 0 {
		return
	}
	for len(keys) < block {
		keys = append(keys, keys...)
	}
	for i := 0; i+block <= len(keys); i += block {
		t0 := time.Now()
		for _, k := range keys[i : i+block] {
			if lane := s.Admit(k); lane >= 0 {
				s.Leave(lane)
			}
		}
		res.admitNS = append(res.admitNS, int64(time.Since(t0))/block)
	}
}

// replayObs observes one value per op into one histogram from two
// goroutines, as two connections' workers do.
func replayObs(ops []op, res *replayResult) {
	h := obs.NewHistogram(0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for gi := 0; gi < 2; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []int64
			for i := 0; i+block <= len(ops); i += block {
				t0 := time.Now()
				for j := i; j < i+block; j++ {
					h.Observe(float64(ops[j].keys[0]%97) / 10)
				}
				local = append(local, int64(time.Since(t0))/block)
			}
			mu.Lock()
			res.observeNS = append(res.observeNS, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
}
