package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Spans. In a traced run the benchmark brackets every call it makes into
// a layer (build, deploy, controller calls, Out*, In) with a span: name,
// start, end, parent, and the id of the round or request it belongs to.
// Each driver goroutine owns one spanLog, so recording takes no lock.
// Every span feeds the per-name totals and self time; only spans of every
// keepEvery-th unit are kept for the span file, which bounds memory on
// runs that make millions of calls. A nil *spanLog records nothing: the
// untraced runs pass nil.

// keepEvery selects which units (rounds, requests) keep their spans.
const keepEvery = 64

// maxSamples bounds the per-name duration samples kept for percentiles.
const maxSamples = 1 << 16

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Unit   int64  `json:"unit"` // round or request id; -1 outside the loop
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	child  int64  // ns covered by child spans
}

// spanAgg is the reduction of every span with one name.
type spanAgg struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
	samples []int64
}

type spanLog struct {
	epoch time.Time
	base  uint64 // id space of this log: ids are base+1, base+2, ...
	next  uint64
	open  []span
	kept  []span
	keep  bool
	unit  int64
	agg   map[string]*spanAgg
}

func newSpanLog(epoch time.Time, shard int) *spanLog {
	return &spanLog{epoch: epoch, base: uint64(shard) << 40, agg: map[string]*spanAgg{}, unit: -1, keep: true}
}

// setUnit starts a new round or request: later root spans carry its id.
func (l *spanLog) setUnit(unit int64) {
	if l == nil {
		return
	}
	l.unit = unit
	l.keep = unit < 0 || unit%keepEvery == 0
}

// begin opens a span nested in the innermost open one.
func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	l.next++
	var parent uint64
	if n := len(l.open); n > 0 {
		parent = l.open[n-1].ID
	}
	l.open = append(l.open, span{ID: l.base + l.next, Parent: parent, Name: name, Unit: l.unit, Start: int64(time.Since(l.epoch))})
}

// end closes the innermost open span.
func (l *spanLog) end() {
	if l == nil {
		return
	}
	l.endAt(int64(time.Since(l.epoch)))
}

func (l *spanLog) endAt(now int64) {
	n := len(l.open) - 1
	s := l.open[n]
	l.open = l.open[:n]
	s.End = now
	dur := s.End - s.Start
	if n > 0 {
		l.open[n-1].child += dur
	}
	a := l.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		l.agg[s.Name] = a
	}
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - s.child
	if len(a.samples) < maxSamples {
		a.samples = append(a.samples, dur)
	}
	if l.keep {
		l.kept = append(l.kept, s)
	}
}

// record adds an already-measured child span (compile stages reported
// by core.Build) under the innermost open span.
func (l *spanLog) record(name string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.begin(name)
	l.open[len(l.open)-1].Start = int64(start.Sub(l.epoch))
	l.endAt(int64(start.Sub(l.epoch) + dur))
}

// spanSet merges the logs of one run.
type spanSet struct {
	agg  map[string]*spanAgg
	kept []span
}

func mergeSpans(logs ...*spanLog) *spanSet {
	s := &spanSet{agg: map[string]*spanAgg{}}
	for _, l := range logs {
		if l == nil {
			continue
		}
		for name, a := range l.agg {
			m := s.agg[name]
			if m == nil {
				m = &spanAgg{}
				s.agg[name] = m
			}
			m.Count += a.Count
			m.TotalNs += a.TotalNs
			m.SelfNs += a.SelfNs
			if room := maxSamples - len(m.samples); room > 0 {
				if room > len(a.samples) {
					room = len(a.samples)
				}
				m.samples = append(m.samples, a.samples[:room]...)
			}
		}
		s.kept = append(s.kept, l.kept...)
	}
	sort.Slice(s.kept, func(i, j int) bool { return s.kept[i].Start < s.kept[j].Start })
	return s
}

// get returns the reduction for name (zero when no such span ran).
func (s *spanSet) get(name string) spanAgg {
	if a := s.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfNs sums the self time of every span whose name has the prefix.
func (s *spanSet) selfNs(prefix string) int64 {
	var ns int64
	for name, a := range s.agg {
		if strings.HasPrefix(name, prefix) {
			ns += a.SelfNs
		}
	}
	return ns
}

// samplesWithPrefix pools the duration samples of every matching name.
func (s *spanSet) samplesWithPrefix(prefix string) []float64 {
	var out []float64
	for name, a := range s.agg {
		if strings.HasPrefix(name, prefix) {
			for _, d := range a.samples {
				out = append(out, float64(d))
			}
		}
	}
	return out
}

// writeJSONL writes the kept spans, one JSON object per line.
func (s *spanSet) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.kept {
		if err := enc.Encode(&s.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table renders the self-time reduction, largest self time first.
func (s *spanSet) table() string {
	names := make([]string, 0, len(s.agg))
	for name := range s.agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return s.agg[names[i]].SelfNs > s.agg[names[j]].SelfNs })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, name := range names {
		a := s.agg[name]
		fmt.Fprintf(&b, "%-28s %10d %12.3f %12.3f %10.3f\n", name, a.Count,
			float64(a.TotalNs)/1e6, float64(a.SelfNs)/1e6, float64(a.SelfNs)/1e3/float64(a.Count))
	}
	return b.String()
}
