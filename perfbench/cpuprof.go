package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// CPU attribution: each sample of the server's CPU profile is charged to
// one module, found by walking its stack from the leaf. The first frame
// that is garbage-collector work charges "gc", the first system call
// charges "syscall", and the first frame in a repository package charges
// that package's module. Samples with none of these (scheduler, net/http
// serving the profile) charge "other".

// cpuModules are the reported modules, in output order.
var cpuModules = []string{"server", "obs", "stm", "wal", "sched", "tuner", "gc", "syscall", "other"}

// modulePackages maps repository packages to modules. Packages absent
// here (stats, chaos) are helpers: their frames charge the caller's module.
var modulePackages = map[string]string{
	"autopn/internal/server":    "server",
	"autopn/internal/obs":       "obs",
	"autopn/internal/stm":       "stm",
	"autopn/internal/stm/trace": "stm",
	"autopn/pnstm":              "stm",
	"autopn/internal/wal":       "wal",
	"autopn/internal/sched":     "sched",
	"autopn":                    "tuner",
	"autopn/internal/core":      "tuner",
	"autopn/internal/monitor":   "tuner",
	"autopn/internal/pnpool":    "tuner",
	"autopn/internal/smbo":      "tuner",
	"autopn/internal/m5":        "tuner",
	"autopn/internal/ensemble":  "tuner",
	"autopn/internal/search":    "tuner",
	"autopn/internal/space":     "tuner",
}

var syscallFuncs = map[string]bool{
	"runtime.futex": true, "runtime.epollwait": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.write1": true, "runtime.read": true,
	"runtime.madvise": true, "runtime.mmap": true, "runtime.munmap": true,
	"runtime.nanosleep": true,
}

var gcFuncs = map[string]bool{
	"runtime.scanobject": true, "runtime.markroot": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.sweepone": true, "runtime.greyobject": true,
	"runtime.wbBufFlush": true, "runtime.wbBufFlush1": true, "runtime.scanblock": true,
	"runtime.scanstack": true, "runtime.scanframeworker": true, "runtime.markrootSpans": true,
}

// funcPackage returns the import path of a symbolized function name such
// as "autopn/internal/stm.(*STM).atomicVer".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify charges one stack (function names, leaf first) to a module.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFuncs[fn] || strings.HasPrefix(fn, "runtime.gc") {
			return "gc"
		}
		pkg := funcPackage(fn)
		if syscallFuncs[fn] || pkg == "syscall" || strings.HasSuffix(pkg, "runtime/syscall") || pkg == "runtime/internal/syscall" {
			return "syscall"
		}
		if m, ok := modulePackages[pkg]; ok {
			return m
		}
	}
	return "other"
}

// rawProfile is the part of `go tool pprof -raw` output attribution needs.
type rawProfile struct {
	samples []rawSample
	funcs   map[int][]string // location ID -> functions, innermost first
}

type rawSample struct {
	value int64 // the last sample value column (cpu nanoseconds)
	locs  []int // leaf first
}

// parseRaw parses the text of `go tool pprof -raw`.
func parseRaw(b []byte) (*rawProfile, error) {
	p := &rawProfile{funcs: make(map[int][]string)}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	section := ""
	lastLoc := 0
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			vals, locs, ok := strings.Cut(line, ":")
			if !ok {
				continue // value-type header or label line
			}
			f := strings.Fields(vals)
			if len(f) == 0 {
				continue
			}
			v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if err != nil {
				continue
			}
			s := rawSample{value: v}
			for _, id := range strings.Fields(locs) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw sample %q", line)
				}
				s.locs = append(s.locs, n)
			}
			p.samples = append(p.samples, s)
		case "Locations":
			// "     7: 0x4a5b3 M=1 fn file:line s=0", then one indented
			// "fn file:line s=0" line per further inlined frame.
			rest := strings.TrimSpace(line)
			if id, after, ok := strings.Cut(rest, ": 0x"); ok {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw location %q", line)
				}
				lastLoc = n
				f := strings.Fields(after)[1:] // past the address
				for len(f) > 0 && (strings.HasPrefix(f[0], "M=") || f[0] == "[F]") {
					f = f[1:]
				}
				if len(f) > 0 {
					p.funcs[n] = append(p.funcs[n], f[0])
				}
				continue
			}
			if f := strings.Fields(rest); len(f) > 0 && lastLoc != 0 {
				p.funcs[lastLoc] = append(p.funcs[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples")
	}
	return p, nil
}

// attribute returns each module's share of the profile's CPU time.
func (p *rawProfile) attribute() map[string]float64 {
	out := make(map[string]float64, len(cpuModules))
	var total float64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.funcs[id]...)
		}
		out[classify(stack)] += float64(s.value)
		total += float64(s.value)
	}
	for _, m := range cpuModules {
		out[m] /= total
	}
	return out
}

// cpuShares runs `go tool pprof -raw` on a CPU profile and attributes it.
func cpuShares(profile string) (map[string]float64, error) {
	b, err := exec.Command("go", "tool", "pprof", "-raw", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %w", err)
	}
	p, err := parseRaw(b)
	if err != nil {
		return nil, err
	}
	return p.attribute(), nil
}
