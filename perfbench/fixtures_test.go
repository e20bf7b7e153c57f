package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ncl/internal/netsim"
)

// slowSender adds a fixed busy-wait per packet in front of a transport:
// an injected slowdown of the fabric layer.
type slowSender struct {
	netsim.BatchSender
	perPacket time.Duration
}

func (s slowSender) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	spin(s.perPacket * time.Duration(len(pkts)))
	return s.BatchSender.SendBatch(from, tos, pkts)
}

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// benchmarkBound returns the regression bound BENCHMARK.json gives the
// named end-to-end metric.
func benchmarkBound(t *testing.T, name string) float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return 0
}

// TestFabricFixtureCatchesSlowdown injects a per-packet delay of about
// 30% of the fabric's measured cost into the isolated fabric fixture and
// requires netsim.fabric_ns_per_packet to move by more than the bound
// the benchmark puts on cpu_us_per_window, the end-to-end metric the
// fabric's cost adds to: a 30% slowdown of one layer must not hide
// inside the benchmark's tolerance.
func TestFabricFixtureCatchesSlowdown(t *testing.T) {
	bound := benchmarkBound(t, "cpu_us_per_window")
	w, err := newWorkload("allreduce", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := captureRound(w)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(wrap func(netsim.BatchSender) netsim.BatchSender) float64 {
		ns, err := fabricFixture(c.art.Net, w.faults, c.pkts, wrap)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	// Each pair measures the plain fixture, then the fixture slowed by
	// 30% of that measurement. The machine's speed shifts between
	// levels about 30% apart from time to time, so a delay calibrated
	// once and compared against later measurements could be a 20% or a
	// 40% slowdown; within a pair it is 30%. The median pair decides.
	const pairs = 5
	moves := make([]float64, pairs)
	for i := range moves {
		base := measure(nil)
		delay := time.Duration(0.3 * base)
		slow := measure(func(bs netsim.BatchSender) netsim.BatchSender { return slowSender{bs, delay} })
		moves[i] = (slow - base) / base
		t.Logf("fabric fixture: %.1f ns/packet, %.1f ns/packet with %v per packet injected (+%.1f%%)",
			base, slow, delay, 100*moves[i])
	}
	if moved := median(moves); moved <= bound {
		t.Fatalf("a slowdown of 30%% per packet moved the fixture by %.1f%% (median of %d pairs), within the %.0f%% bound",
			100*moved, pairs, 100*bound)
	}
}

// TestCaptureHoldsTheRound checks the capture the fixtures replay: one
// allreduce round is every worker's windows to the switch and the
// switch's broadcast of every result slot to every worker.
func TestCaptureHoldsTheRound(t *testing.T) {
	w, err := newWorkload("allreduce", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := captureRound(w)
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv int
	for _, p := range c.pkts {
		if p.toHost {
			recv++
		} else {
			sent++
		}
	}
	if want := arWorkers * arWindows; sent != want || recv != want {
		t.Fatalf("captured %d sent and %d received packets, want %d each", sent, recv, want)
	}
}
