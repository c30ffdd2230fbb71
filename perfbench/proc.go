package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB returns the peak resident set size (VmHWM) of a process in
// MB; pid "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rtSample is a snapshot of the runtime counters the benchmark reads.
type rtSample struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
	usedCPU    float64 // cumulative non-idle CPU seconds (estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the runtime/metrics counters.
func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// settledRuntime samples the counters after a collection. The runtime
// counts a cached span's free slots as allocated until a collection
// returns them, so only samples taken this way measure allocations of a
// few hundred kilobytes exactly.
func settledRuntime() rtSample {
	runtime.GC()
	return readRuntime()
}

// allocMB returns the heap megabytes allocated between two samples.
func (a rtSample) allocMB(b rtSample) float64 { return (b.allocBytes - a.allocBytes) / (1 << 20) }

// gcFrac returns the share of used CPU the GC took between two samples.
func (a rtSample) gcFrac(b rtSample) float64 {
	used := b.usedCPU - a.usedCPU
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// liveHeapBytes forces a collection and returns the live heap size.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// sourceHash fingerprints the Go sources and module files under root,
// skipping dot-directories (the build directory among them), so that
// recorded simulation fingerprints are compared only between runs of the
// same code.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkFingerprint compares a simulated-result fingerprint with the one an
// earlier run of the same workload, seed and source tree recorded under
// dir, recording it when there is none. A mismatch means the simulation
// is not a pure function of its seed.
func checkFingerprint(dir, root, key, fp string) error {
	src, err := sourceHash(root)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "fingerprints", src+"-"+key)
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(old) != fp {
			return fmt.Errorf("fingerprint %q differs from %q recorded by an earlier run", fp, old)
		}
		return nil
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(fp), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
