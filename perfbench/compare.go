package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two result sets (JSONL files of run records, as -out
// writes them) and prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict under the benchmark's bounds. It
// returns an error when any metric regressed.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, baseHosts, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	head, headHosts, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base hosts: %v\nhead hosts: %v\n", baseHosts, headHosts)
	if !slices.Equal(baseHosts, headHosts) {
		fmt.Fprintln(out, "warning: the result sets come from different hosts; their absolute figures are not comparable")
	}
	var workloads []string
	for wl := range base {
		if _, ok := head[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return errors.New("no workload has end-to-end runs in both result sets")
	}
	regressed := 0
	fmt.Fprintf(out, "%-14s %-16s %-30s %-30s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "worse by", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			bv, hv := base[wl][m.Name], head[wl][m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			c := compareMetric(bv, hv, m.Better == "higher", m.Bound)
			if c.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-16s %-30s %-30s %+7.1f%%  %s (n=%d/%d, bound %.0f%%)\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", c.base[1], c.base[0], c.base[2], m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", c.head[1], c.head[0], c.head[2], m.Unit),
				100*c.change, c.verdict, len(bv), len(hv), 100*m.Bound)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

// loadResults groups the end-to-end runs of a result set by workload and
// metric, and lists the distinct hosts (fingerprints without the commit)
// they ran on.
func loadResults(path string) (map[string]map[string][]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	hosts := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		h := r.Host
		hosts[fmt.Sprintf("%s/nproc=%d/gomaxprocs=%d,%d/%s/%s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.ServerGOMAXPROC, h.GoVersion, h.Kernel)] = true
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, m := range r.Metrics {
			out[r.Workload][m.Name] = append(out[r.Workload][m.Name], m.Value)
		}
	}
	list := make([]string, 0, len(hosts))
	for h := range hosts {
		list = append(list, h)
	}
	sort.Strings(list)
	return out, list, sc.Err()
}

type comparison struct {
	base, head [3]float64 // q1, median, q3
	change     float64    // relative change of the median, positive = worse
	verdict    string
}

// compareMetric applies the benchmark's rule: a metric is unresolved when
// either side's spread (quartile distance over median) exceeds the bound,
// unless every head run beats every base run; otherwise it regressed when
// the head median is worse by more than the bound, improved when it is
// better by more than the base's spread, and is unchanged otherwise.
func compareMetric(base, head []float64, higherBetter bool, bound float64) comparison {
	c := comparison{base: quartiles(base), head: quartiles(head)}
	c.change = (c.head[1] - c.base[1]) / math.Abs(c.base[1])
	if higherBetter {
		c.change = -c.change
	}
	baseSpread := (c.base[2] - c.base[0]) / math.Abs(c.base[1])
	headSpread := (c.head[2] - c.head[0]) / math.Abs(c.head[1])
	switch {
	case allBetter(base, head, higherBetter):
		c.verdict = "improved"
	case baseSpread > bound || headSpread > bound:
		c.verdict = "unresolved"
	case c.change > bound:
		c.verdict = "regressed"
	case -c.change > baseSpread:
		c.verdict = "improved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func allBetter(base, head []float64, higherBetter bool) bool {
	for _, h := range head {
		for _, b := range base {
			if (higherBetter && h <= b) || (!higherBetter && h >= b) {
				return false
			}
		}
	}
	return true
}

// quartiles returns q1, median and q3 computed as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
// spreads match ones computed with Python's statistics module.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q
}
