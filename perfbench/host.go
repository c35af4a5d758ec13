package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo fingerprints the machine and build a result set came from, so a
// comparison across hosts is visible in the data.
type hostInfo struct {
	CPUModel        string `json:"cpu_model"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs_bench"`
	ServerGOMAXPROC int    `json:"gomaxprocs_server"`
	GoVersion       string `json:"go_version"`
	Kernel          string `json:"kernel"`
	Commit          string `json:"commit"`
}

func fingerprint(serverCPUs int, revision string) hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     revision,
	}
	// The server inherits this process's environment and affinity, so its
	// GOMAXPROCS is the GOMAXPROCS variable if set, else its CPU count.
	h.ServerGOMAXPROC = serverCPUs
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		h.ServerGOMAXPROC = v
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if h.Commit == "" || h.Commit == "unknown" {
		h.Commit = treeHash(".")
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies a checkout without version control by hashing its
// Go sources and go.mod.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
