package main

import (
	"math"
	gort "runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"ncl/internal/obs"
)

// stepResult is what one closed-loop unit (a round or a request) did.
type stepResult struct {
	ops, failed int
	err         error
}

// phase is one measured stretch of the closed loop.
type phase struct {
	ops, failed int
	err         error
	wall        time.Duration
	planned     time.Duration        // the phase length asked for
	latency     latencyHist          // per-unit latency
	sliceOps    [phaseSlices]float64 // ops done in each tenth of the phase
	cpu         time.Duration
	mallocs     uint64
	wireBytes   uint64
	packets     uint64
	heapLive    uint64 // live heap after the phase, traffic stopped
	hits        int    // requests the switch answered (kvs)
	drops       uint64 // netsim.drops during the phase

	// Counter deltas over the phase (every host, switch and device).
	windowsSent, windowsRecv, retransmits, switchWindows, dupSuppressed uint64
}

// counterSum adds every counter whose name ends with suffix.
func counterSum(s *obs.Snapshot, suffix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap a full collection finds reachable. Two
// collections: what the system left in sync.Pools survives the first one
// in the pools' victim caches and would count as live. A forced
// collection with traffic stopped is used because the live heap of a
// concurrent cycle counts what was allocated while it marked, so it
// grows when the hypervisor slows the mark workers.
func liveHeap() uint64 {
	gort.GC()
	gort.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// phaseSlices is how many equal slices a phase is cut into for
// throughput: windows_per_s is the median slice, so a stall that the
// shared machine imposes on a minority of slices does not move it.
const phaseSlices = 10

// runPhase drives the closed loop for d and measures it. logs are the
// driver goroutines' span logs (nil entries when untraced).
func runPhase(sys *system, inst instance, d time.Duration, logs []*spanLog) *phase {
	liveHeap() // start from a collected heap
	sys.fab.ResetStats()
	before := sys.reg.Snapshot()
	drops0 := drops(sys, before)
	var m0, m1 gort.MemStats
	gort.ReadMemStats(&m0)
	cpu0 := cpuTime()
	k, _ := inst.(*kvs)
	if k != nil {
		k.hits = 0
	}
	p := &phase{planned: d}
	start := time.Now()
	deadline := start.Add(d)
	for unit := int64(0); time.Now().Before(deadline); unit++ {
		for _, l := range logs {
			l.setUnit(unit)
		}
		t0 := time.Now()
		r := inst.step(logs)
		now := time.Now()
		p.latency.add(now.Sub(t0))
		p.addUnit(t0.Sub(start), now.Sub(start), r.ops)
		p.ops += r.ops
		p.failed += r.failed
		if r.err != nil {
			p.err = r.err
			break
		}
	}
	p.wall = time.Since(start)
	if k != nil {
		p.hits = k.hits
	}
	p.cpu = cpuTime() - cpu0
	gort.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.heapLive = liveHeap()
	p.wireBytes = sys.fab.TotalBytes()
	p.packets = sys.fab.TotalPackets()
	after := sys.reg.Snapshot()
	p.drops = drops(sys, after) - drops0
	delta := func(suffix string) uint64 { return counterSum(after, suffix) - counterSum(before, suffix) }
	p.windowsSent = delta(".windows_sent")
	p.windowsRecv = delta(".windows_received")
	p.retransmits = delta(".retransmits")
	p.switchWindows = delta("switch.s1.kernel_windows")
	p.dupSuppressed = delta("switch.s1.dup_suppressed")
	return p
}

// drops is netsim.drops: link drops since the last ResetStats, plus the
// fabric inbox overflows and undecodable packets counted in s.
func drops(sys *system, s *obs.Snapshot) uint64 {
	var n uint64
	for _, l := range sys.art.Net.Links {
		n += sys.fab.Stats(l.A, l.B).Dropped.Load() + sys.fab.Stats(l.B, l.A).Dropped.Load()
	}
	return n + counterSum(s, ".inbox_drops") + counterSum(s, ".decode_errors")
}

// latencyHist records latencies in log-spaced buckets 0.5% wide, from
// 100 ns to over a minute: percentiles to within a quarter of a percent
// in memory that does not grow with the number of samples, so a faster
// program does not raise heap_live_mb by recording more of them.
type latencyHist struct {
	counts [latBuckets]uint64
	n      uint64
}

const (
	latMinUs   = 0.1
	latGrowth  = 1.005
	latBuckets = 4200
)

var latLogGrowth = math.Log(latGrowth)

func (h *latencyHist) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	i := 0
	if us > latMinUs {
		i = min(int(math.Log(us/latMinUs)/latLogGrowth), latBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile interpolates the q-quantile in µs within its bucket.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := latMinUs * math.Pow(latGrowth, float64(i))
			return lo + lo*(latGrowth-1)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return latMinUs * math.Pow(latGrowth, latBuckets)
}

// quantile is the q-quantile of xs by linear interpolation (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// histQuantile merges every histogram whose name ends with suffix (they
// share one bucket layout) and interpolates the q-quantile the way
// obs.Histogram.Quantile does.
func histQuantile(s *obs.Snapshot, suffix string, q float64) float64 {
	var bounds []float64
	var counts []uint64
	var total uint64
	for name, h := range s.Histograms {
		if !strings.HasSuffix(name, suffix) || h.Count == 0 {
			continue
		}
		if counts == nil {
			bounds = h.Bounds
			counts = make([]uint64, len(h.Counts))
		}
		for i, c := range h.Counts {
			counts[i] += c
		}
		total += h.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		cf := float64(c)
		if seen+cf >= rank && c > 0 {
			if i >= len(bounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(rank-seen)/cf
		}
		seen += cf
	}
	return bounds[len(bounds)-1]
}

// addUnit spreads a unit's ops over the slices its run time [from, to)
// overlaps, in proportion to the overlap. Time past the planned end
// belongs to no slice.
func (p *phase) addUnit(from, to time.Duration, ops int) {
	w := p.planned / phaseSlices
	if to <= from {
		p.sliceOps[min(int(to/w), phaseSlices-1)] += float64(ops)
		return
	}
	for i := int(from / w); i < phaseSlices && time.Duration(i)*w < to; i++ {
		lo, hi := max(from, time.Duration(i)*w), min(to, time.Duration(i+1)*w)
		if hi > lo {
			p.sliceOps[i] += float64(ops) * float64(hi-lo) / float64(to-from)
		}
	}
}

// sliceRates returns the ops per second done in each slice.
func (p *phase) sliceRates() []float64 {
	rates := make([]float64, phaseSlices)
	for i, n := range p.sliceOps {
		rates[i] = n / (p.planned.Seconds() / phaseSlices)
	}
	return rates
}
