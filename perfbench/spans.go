package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog keeps the benchmark's own spans in memory: one per call the
// benchmark makes into a layer (server phases, replayed STM, WAL, sched,
// Ring and obs calls, tuner sessions). They are written out when the run
// ends. Spans are recorded by the benchmark around calls into the program;
// the program itself is not instrumented.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's base
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// start opens a span and returns its ID.
func (l *spanLog) start(name string, parent int) int {
	t := int64(time.Since(l.base))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: t})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	t := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans[id-1].End = t
	l.mu.Unlock()
}

// add records a finished span with explicit times, for hot loops that
// time calls themselves.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))})
	l.mu.Unlock()
}

// selfTimes sums, per span name, the span's duration minus the part of it
// its child spans cover.
func (l *spanLog) selfTimes() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range l.spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of p's interval the union of kids covers.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
