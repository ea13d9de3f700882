package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// hostInfo is the environment block of every record: a result only
// reproduces when the machine and build it came from are known.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit run.sh found, or "unknown" outside a git
	// checkout; SourceDigest identifies the built sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Seed         int64  `json:"seed"`
	// TimerFloorUs is the median wall time of a 20µs sleep: the soonest
	// a timer-driven wait (the coalescer's latency cap, the open-loop
	// generator) can end on this host. serve-poisson's ack latencies
	// are read against it.
	TimerFloorUs float64 `json:"timer_floor_us"`
}

func probeHost(seed int64) hostInfo {
	commit := os.Getenv("WAVEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceDigest: sourceDigest("."),
		Seed:         seed,
		TimerFloorUs: timerFloor(),
	}
}

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

// sourceDigest hashes every Go source and go.mod under root, skipping
// dot-directories (build output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func timerFloor() float64 {
	var s sample
	for i := 0; i < 50; i++ {
		t := time.Now()
		time.Sleep(20 * time.Microsecond)
		s.addDur(time.Since(t))
	}
	return s.q(0.5) / 1e3
}

// heapMiB returns the live heap after full collections; the second one
// empties the sync.Pool victim caches the first one filled.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeMark is a point-in-time reading of the allocator and GC CPU
// counters; the difference of two gives a phase's runtime cost.
type runtimeMark struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	m := runtimeMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = s[1].Value.Float64()
	}
	return m
}

// layerRuntime stores the runtime.* per-layer metrics of the span from
// m to now, over ops operations.
func (r *record) layerRuntime(m runtimeMark, ops int64) {
	e := markRuntime()
	if ops < 1 {
		ops = 1
	}
	r.layer("runtime.allocs_per_op", float64(e.mallocs-m.mallocs)/float64(ops))
	r.layer("runtime.bytes_per_op", float64(e.bytes-m.bytes)/float64(ops))
	if cpu := e.allCPU - m.allCPU; cpu > 0 {
		r.layer("runtime.gc_cpu_fraction", (e.gcCPU-m.gcCPU)/cpu)
	}
}
