package main

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// stallServer answers every line with "VALUE 0", in order, but stops
// reading and replying for stall once it has seen stallAfter requests.
func stallServer(t *testing.T, stallAfter int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		w := bufio.NewWriter(c)
		for n := 1; ; n++ {
			if _, err := r.ReadSlice('\n'); err != nil {
				return
			}
			if n == stallAfter {
				if w.Flush() != nil {
					return
				}
				time.Sleep(stall)
			}
			_, _ = w.WriteString("VALUE 0\n")
			if r.Buffered() == 0 && w.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestOpenLoopChargesStallToQueuedRequests stalls the server mid-window.
// The sender hits its in-flight cap and falls behind, so the requests due
// during the stall are sent late. Timed from send they would look fast;
// timed from their due time they carry the stall.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate  = 5000.0
		stall = 150 * time.Millisecond
	)
	w := &workload{name: "stub", keys: 16, getFrac: 1, shards: 1}
	addr := stallServer(t, int(rate*0.1), stall)
	g, err := startGen(genConfig{addr: addr, conns: 1, rate: rate, maxInFlight: 32}, w, 1, keyNames(w.keys))
	if err != nil {
		t.Fatal(err)
	}
	g.window(1)
	time.Sleep(400 * time.Millisecond)
	res := g.stop(5*time.Second, 1)
	if f := res.failedInWindow(); f != 0 {
		t.Fatalf("%d requests in the window failed: %v", f, res.errs)
	}

	var lat []int64
	for _, l := range res.lat {
		lat = append(lat, l...)
	}
	lat = sortedCopy(lat)
	if max := lat[len(lat)-1]; time.Duration(max) < stall*8/10 {
		t.Errorf("max due-time latency %v, want at least %v", time.Duration(max), stall*8/10)
	}
	// Requests due in the first two thirds of the stall wait at least a
	// third of it: about rate*stall*2/3 of them.
	slow := 0
	for _, l := range lat {
		if time.Duration(l) >= stall/3 {
			slow++
		}
	}
	if want := int(rate * stall.Seconds() * 2 / 3 / 2); slow < want {
		t.Errorf("%d requests waited >= %v, want at least %d", slow, stall/3, want)
	}
	// The wait happened in the generator: it sent those requests late.
	late := sortedCopy(res.late)
	if max := time.Duration(late[len(late)-1]); max < stall/2 {
		t.Errorf("sender fell behind by at most %v, want at least %v", max, stall/2)
	}
}

func TestOpStreamIsSeededAndColocated(t *testing.T) {
	w := findWorkload("kv-write-wal")
	a, b := newOpGen(w, 7, 0), newOpGen(w, 7, 0)
	names := keyNames(w.keys)
	for i := 0; i < 2000; i++ {
		oa, ob := a.next(), b.next()
		if string(appendOp(nil, oa, names)) != string(appendOp(nil, ob, names)) {
			t.Fatalf("op %d differs between two streams with the same seed", i)
		}
		if oa.kind == opMAdd {
			shard := a.ring.Lookup(string(names[oa.keys[0]]))
			seen := map[int]bool{}
			for _, k := range oa.keys {
				if a.ring.Lookup(string(names[k])) != shard {
					t.Fatalf("MADD %v spans shards", oa.keys)
				}
				if seen[k] {
					t.Fatalf("MADD %v repeats key %d", oa.keys, k)
				}
				seen[k] = true
			}
		}
	}
}
