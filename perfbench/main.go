// Command perfbench is the repository benchmark. It builds nothing itself:
// run it through perfbench/run.sh from the repository root, which builds
// autopn-server and this command from the checkout first.
//
//	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare base.jsonl head.jsonl
//
// A run drives a separately launched autopn-server over loopback from this
// one process (2 connections, one sending goroutine each), checks the
// server's outputs, runs the simulated tuner in-process and prints every
// metric by name with its unit. The last line of standard output is the
// run's JSON summary. A failed output check ends the run with exit code 1
// and no summary. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := runMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func runMain(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload name")
		seed      = fs.Uint64("seed", 1, "workload seed")
		seconds   = fs.Int("seconds", 20, "measured seconds per run, split evenly over the server lifetimes' windows")
		trace     = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		serverBin = fs.String("server", "", "autopn-server binary built from the tree under test")
		work      = fs.String("work", "", "scratch directory for server data, spans and profiles")
		out       = fs.String("out", "", "append the full result record (with host fingerprint) to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *serverBin == "" || *work == "":
		return 2, errors.New("-server and -work are required (use perfbench/run.sh)")
	case *seconds < 2:
		return 2, errors.New("--seconds must be at least 2")
	case *trace != 0 && *trace != 1:
		return 2, errors.New("--trace must be 0 or 1")
	}
	runDir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		return 2, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return 2, err
	}
	waited, err := waitQuiet(filepath.Join(*work, "quiet-wait-seconds"))
	if err != nil {
		return 1, fmt.Errorf("waiting for a quiet host: %w", err)
	}
	e := &env{serverBin: *serverBin, work: runDir, names: keyNames(w.keys), spans: newSpanLog()}
	res, err := run(e, w, *seed, *seconds, *trace == 1)
	if err != nil {
		return 1, err
	}
	if waited > 0 {
		res.note("waited %v for a second with at most %.0f%% host steal before the run", waited, 100*quietSteal)
	}
	if err := e.spans.write(filepath.Join(runDir, "spans.jsonl")); err != nil {
		return 1, err
	}
	// The servers' WAL and snapshot data are large and served their
	// purpose; decision logs, profiles and spans stay for inspection.
	dataDirs, _ := filepath.Glob(filepath.Join(runDir, "*", "wal"))
	for _, d := range append(dataDirs, filepath.Join(runDir, "replay-wal")) {
		if err := os.RemoveAll(d); err != nil {
			return 1, err
		}
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			return 1, err
		}
	}
	return 0, nil
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record; print emits its summary line.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"` // output checks fail the run, so a printed result is correct
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Notes carry sample counts and the reason a metric reads zero on a
	// workload that does not exercise its layer.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) note(format string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(format, a...)) }

func (r *result) print(f *os.File) {
	hb, _ := json.Marshal(r.Host)
	fmt.Fprintf(f, "host %s\n", hb)
	for _, n := range r.Notes {
		fmt.Fprintf(f, "note %s\n", n)
	}
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]map[string]any)}
	for _, m := range r.Metrics {
		fmt.Fprintf(f, "%-26s %14s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
		summary.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, _ := json.Marshal(summary)
	fmt.Fprintf(f, "%s\n", b)
}

func appendRecord(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
