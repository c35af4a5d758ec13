package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"autopn/internal/server"
)

// serverProc is one autopn-server process lifetime.
type serverProc struct {
	cmd      *exec.Cmd
	addr     string
	http     string
	launched time.Time
	ready    time.Time // first PONG
	exited   chan struct{}
	waitErr  error
	log      *watchWriter
}

// watchWriter collects the server's output and reports its listen
// addresses once the "serving on" line appears.
type watchWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	seen  bool
}

func (w *watchWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(b)
	if !w.seen {
		if m := servingRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.seen = true
			w.found <- string(m[1]) + " " + string(m[2])
		}
	}
	return len(b), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var servingRE = regexp.MustCompile(`serving on (\S+), introspection on http://(\S+)/status`)

// launchServer starts bin with args plus ephemeral listen addresses and
// returns once the server answered its first PING.
func launchServer(bin string, args []string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out := &watchWriter{found: make(chan string, 1)}
	p := &serverProc{cmd: cmd, log: out, exited: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = out, out
	p.launched = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case l := <-out.found:
		p.addr, p.http, _ = strings.Cut(l, " ")
	case <-p.exited:
		return nil, fmt.Errorf("autopn-server exited before serving: %v: %s", p.waitErr, out.String())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, errors.New("autopn-server did not start within 60s")
	}
	if err := p.ping(); err != nil {
		p.kill()
		return nil, err
	}
	p.ready = time.Now()
	return p, nil
}

func (p *serverProc) ping() error {
	nc, err := net.Dial("tcp", p.addr)
	if err != nil {
		return fmt.Errorf("ping dial: %w", err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write([]byte("PING\n")); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "PONG" {
		return fmt.Errorf("ping: got %q, %v", line, err)
	}
	return nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// sigtermGrace is how long after its first PONG a server is left before
// it is sent SIGTERM.
const sigtermGrace = 200 * time.Millisecond

// stop shuts the server down gracefully (SIGTERM, which drains and writes
// clean-shutdown markers) and waits for it to exit.
func (p *serverProc) stop() error {
	// The server installs its SIGTERM handler just after it starts serving;
	// a SIGTERM before that would kill it without the graceful drain.
	time.Sleep(time.Until(p.ready.Add(sigtermGrace)))
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
		return errors.New("autopn-server did not exit within 20s of SIGTERM")
	}
	if p.waitErr != nil {
		return fmt.Errorf("autopn-server exit: %v: %s", p.waitErr, p.log.String())
	}
	return nil
}

// kill ends the process without a graceful drain and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *serverProc) getJSON(path string, v any) error {
	resp, err := httpClient.Get("http://" + p.http + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *serverProc) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + p.http + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

func (p *serverProc) status() (server.Status, error) {
	var st server.Status
	err := p.getJSON("/status", &st)
	return st, err
}

// cpuTicks is the process's utime+stime in clock ticks (/proc/<pid>/stat).
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat")
	}
	return u + s, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux for /proc/<pid>/stat.
const clockTicks = 100

var mallocsRE = regexp.MustCompile(`(?m)^# Mallocs = (\d+)$`)

// mallocs is the server's cumulative heap allocation count, read from the
// runtime.MemStats footer of /debug/pprof/heap?debug=1.
func (p *serverProc) mallocs() (uint64, error) {
	b, err := p.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := mallocsRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("no Mallocs line in heap profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// allSettled reports whether every shard's tuner has applied a
// configuration and is holding it.
func allSettled(st server.Status) bool {
	for _, row := range st.ShardTable {
		if row.Phase != "converged" && row.Phase != "watching" {
			return false
		}
	}
	return true
}

// waitSettled polls /status until every tuner settled or timeout passes.
func (p *serverProc) waitSettled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := p.status()
		if err != nil {
			return err
		}
		if allSettled(st) {
			return nil
		}
		if time.Now().After(deadline) {
			phases := make([]string, 0, len(st.ShardTable))
			for _, row := range st.ShardTable {
				phases = append(phases, row.Phase)
			}
			return fmt.Errorf("tuners not settled after %v: %v", timeout, phases)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// cpusAllowed counts the CPUs in a process's affinity mask
// (Cpus_allowed_list in /proc/<pid>/status).
func cpusAllowed(pid int) int {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		v, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		n := 0
		for _, part := range strings.Split(strings.TrimSpace(v), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, _ := strconv.Atoi(lo)
			b := a
			if isRange {
				b, _ = strconv.Atoi(hi)
			}
			n += b - a + 1
		}
		return n
	}
	return 0
}
