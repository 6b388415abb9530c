package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecnsharp/internal/metrics"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tailPercentile returns the highest percentile of xs that has at least
// tailBeyond samples beyond it: the value of sorted rank n-1-tailBeyond,
// reported as percentile 100*(rank+1)/n. With too few samples for any
// such percentile it falls back to the maximum (percentile 100) and
// reports ok=false, so the caller can say the tail is under-sampled.
func tailPercentile(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := n - 1 - tailBeyond
	if r < 0 {
		return s[n-1], 100, false
	}
	return s[r], 100 * float64(r+1) / float64(n), true
}

// opTail is tailPercentile of a run's op latencies, with its provenance
// (percentile, sample count, samples beyond it) printed beside it.
func opTail(workload, unit string, ms []float64) float64 {
	v, pct, ok := tailPercentile(ms)
	beyond := 0
	if ok {
		beyond = tailBeyond
	}
	info("%s: op_tail_ms is p%.2f of %d %s samples (%d beyond it)", workload, pct, len(ms), unit, beyond)
	return v
}

// medianSeconds times fn reps times and returns the median duration in
// seconds, so one slow repetition (a GC, a page fault) does not set it.
func medianSeconds(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// pauseGC stops the collector until resume is called.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// setupClock collects set-up timings in rounds spread over a run, and
// setup_s is the median of all of them. Within one process the median of
// a burst of repetitions of a set-up of microseconds moves by half from
// one second to the next as the machine's other load comes and goes, so a
// single burst at the start made setup_s swing between processes. Each
// round runs with the collector paused: a collection cycle overlapping a
// repetition otherwise reads it half again as slow.
type setupClock struct {
	samples []float64
}

// round times reps repetitions of fn.
func (c *setupClock) round(reps int, fn func()) {
	defer pauseGC()()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		c.samples = append(c.samples, time.Since(t0).Seconds())
	}
}

// seconds is the median of every repetition timed so far.
func (c *setupClock) seconds() float64 { return median(c.samples) }

// peakRSSMiB reads the process's peak resident set (VmHWM). Each
// benchmark process runs one workload, so this is that workload's peak.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's total reservation is the closest bound.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// liveHeap forces collections and returns the bytes still reachable. The
// second cycle frees what the first only moved to sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// digest is a short content hash of an FCT record stream: the identity
// the output checks compare across engines, worker counts and repeats.
func digest(recs []metrics.FCTRecord) string {
	b, err := json.Marshal(recs)
	if err != nil {
		// FCTRecord holds only integers and a bool.
		panic(err)
	}
	return hashBytes(b)
}

// multisetDigest is digest over the records sorted by (size, FCT,
// query): equal for two runs that completed the same flows in the same
// simulated times, whatever order their collectors recorded them in.
func multisetDigest(recs []metrics.FCTRecord) string {
	s := append([]metrics.FCTRecord(nil), recs...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.FCT != b.FCT {
			return a.FCT < b.FCT
		}
		return !a.Query && b.Query
	})
	return digest(s)
}

// hashBytes is the 12-hex-digit SHA-256 prefix used for every digest.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// ratio returns a/b, or 0 when b is 0 (an empty breakdown).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
