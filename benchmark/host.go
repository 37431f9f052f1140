package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo says where and how a result was measured; two result files only
// compare when these agree. It is a copy of what internal/bench.HostInfo
// records, not an import: that package is scheduled to shrink.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	BuildTags  string `json:"build_tags"`
	Workers    int    `json:"workers"`
	GitCommit  string `json:"git_commit"`
}

func host(workers int) hostInfo {
	h := hostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		GitCommit:  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "-tags":
				h.BuildTags = s.Value
			case "vcs.revision":
				h.GitCommit = s.Value
			}
		}
	}
	if h.GitCommit == "unknown" {
		if c := gitHead(".git"); c != "" {
			h.GitCommit = c
		}
	}
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, "" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// llcBytes is the size of cpu0's highest-level data or unified cache as
// Linux reports it, 0 when /sys does not say.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	bestLevel := 0
	for _, d := range dirs {
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		lvl, _ := os.ReadFile(filepath.Join(d, "level"))
		level, err := strconv.Atoi(strings.TrimSpace(string(lvl)))
		if err != nil || level < bestLevel {
			continue
		}
		sz, _ := os.ReadFile(filepath.Join(d, "size"))
		if b := parseSize(strings.TrimSpace(string(sz))); b > 0 {
			best, bestLevel = b, level
		}
	}
	return best
}

// parseSize reads the "48K" / "2048K" / "32M" sizes of /sys cache entries.
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// gitHead resolves HEAD of the repository at gitDir without running git;
// "" when the directory is not a git repository (the driver's checkouts).
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, n, ok := strings.Cut(line, " "); ok && n == name {
			return sha
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB,
// 0 where /proc does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
