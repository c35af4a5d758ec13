package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// stageTrace is one sampled request's server-side stage durations in ms;
// -1 marks a stage the request never reached.
type stageTrace struct {
	queue, exec, commit, flush float64
	total                      float64 // accept to flush
	ok                         bool
}

// fetchStageTraces reads the raw request traces from /debug/server/trace
// and keeps those accepted inside the window.
func fetchStageTraces(p *serverProc, winStart time.Time, window time.Duration) ([]stageTrace, error) {
	b, err := p.get("/debug/server/trace")
	if err != nil {
		return nil, err
	}
	return parseStageTraces(b, winStart, window)
}

func parseStageTraces(b []byte, winStart time.Time, window time.Duration) ([]stageTrace, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  uint64         `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			EpochUnixNS int64 `json:"epoch_unix_ns"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decode /debug/server/trace: %w", err)
	}
	from := winStart.UnixNano() - doc.OtherData.EpochUnixNS
	to := from + int64(window)
	byID := make(map[uint64]*stageTrace)
	keep := make(map[uint64]bool)
	get := func(id uint64) *stageTrace {
		t := byID[id]
		if t == nil {
			t = &stageTrace{queue: -1, exec: -1, commit: -1, flush: -1}
			byID[id] = t
		}
		return t
	}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "server" || ev.Ph != "X" {
			continue
		}
		t := get(ev.PID)
		ms := ev.Dur / 1e3
		switch ev.Name {
		case "request":
			ns := int64(ev.TS * 1e3)
			keep[ev.PID] = ns >= from && ns < to
			t.total = ms
			t.ok = ev.Args["outcome"] == "ok"
		case "queue":
			t.queue = ms
		case "exec":
			t.exec = ms
		case "commit":
			t.commit = ms
		case "flush":
			t.flush = ms
		}
	}
	out := make([]stageTrace, 0, len(keep))
	for id, k := range keep {
		if k {
			out = append(out, *byID[id])
		}
	}
	return out, nil
}
