package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp names what a result was measured on and with: the host, the
// code and the inputs. Two runs whose input_sha256 agree measured the
// same inputs.
type stamp struct {
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Traced          bool    `json:"traced"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	CPU             string  `json:"cpu"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	SourceSHA256    string  `json:"source_sha256"`
	InputSHA256     string  `json:"input_sha256"`
	TailPct         float64 `json:"tail_percentile"`
	Samples         int     `json:"latency_samples"`
	Ops             int     `json:"ops"`
	Failed          int     `json:"failed"`
	ErrorRate       float64 `json:"error_rate"`
	WallSeconds     float64 `json:"wall_seconds"`
	CheckSeconds    float64 `json:"check_seconds"`
	CheckCPUSeconds float64 `json:"check_cpu_seconds"`
}

func newStamp(w workload, cfg config, inputHash string, st *runStats) stamp {
	return stamp{
		Workload:        w.name,
		Seed:            cfg.seed,
		Seconds:         cfg.seconds,
		Traced:          cfg.traced,
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPU:             cpuModel(),
		GoVersion:       runtime.Version(),
		Commit:          commit(),
		SourceSHA256:    sourceHash("."),
		InputSHA256:     inputHash,
		TailPct:         w.tailPct,
		Samples:         len(st.lat),
		Ops:             st.ops,
		Failed:          st.failed,
		ErrorRate:       ratio(float64(st.failed), float64(st.ops)),
		WallSeconds:     st.wall,
		CheckSeconds:    st.checkWall,
		CheckCPUSeconds: st.checkCPU,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none; source_sha256 then
// identifies the code).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceHash hashes the Go sources and module files under root, in path
// order, skipping hidden directories (the build directory among them).
func sourceHash(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
