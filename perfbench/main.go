// Command perfbench is the repository's benchmark: it drives one NCL
// workload end to end through the public API (core.Build →
// Artifact.Deploy → Controller → Host.Out/OutWindow/OutReliable/In) on the
// in-memory fabric, checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kvs --seed 3 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"runtime/pprof"
	"time"

	"ncl/internal/core"
	"ncl/internal/netsim"
	"ncl/internal/runtime"
)

// inTimeout bounds every blocking receive: a lost window fails the run
// instead of hanging it.
const inTimeout = 10 * time.Second

// setupReps set-ups run per invocation; setup_s is their median, and
// the last one's deployment is the one measured.
const setupReps = 31

// telemetrySampleEvery is the INT sampling rate of the traced run.
const telemetrySampleEvery = 64

// instance is a workload bound to one running system. The mutable model
// the checks compare against lives here, so every set-up starts fresh.
type instance interface {
	// init runs control-plane initialisation and installs caches; it is
	// part of set-up time.
	init(tr *spanLog) error
	// warmup runs warm-up traffic on the deployment about to be
	// measured, after set-up time is taken.
	warmup(tr *spanLog) error
	// step runs one closed-loop unit: a round or a request.
	step(logs []*spanLog) stepResult
	// finish runs the end-of-run checks; it returns failed ops.
	finish(tr *spanLog) (int, error)
	close()

	// Fixture shapes: the host whose traffic the runtime fixtures use,
	// that host's first-round send, and one receive as the workload
	// consumes it.
	probeHost() string
	sendOnce(h *runtime.Host) (int, error)
	consume(h *runtime.Host) error
}

type workload struct {
	name, src, topo string
	window          int
	faults          netsim.Faults
	drivers         int // span logs step uses
	captureSteps    int // steps that make up the fixtures' first round
	newInst         func(sys *system) instance
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "allreduce":
		in := newARInputs(seed)
		return &workload{name: name, src: allreduceSrc, topo: arTopo, window: arW,
			drivers: arDrivers, captureSteps: 1,
			newInst: func(sys *system) instance { return newAllreduce(sys, in) }}, nil
	case "reliable":
		in := newARInputs(seed)
		return &workload{name: name, src: allreduceSrc, topo: arTopo, window: arW,
			faults: netsim.Faults{DropProb: relDropProb, Seed: seed}, drivers: 1, captureSteps: relCaptureOps,
			newInst: func(sys *system) instance { return newReliable(sys, in) }}, nil
	case "kvs":
		in := newKVSInputs(seed)
		return &workload{name: name, src: kvsSrc, topo: kvsTopo, window: kvsVal,
			drivers: 1, captureSteps: kvsCaptureRequests,
			newInst: func(sys *system) instance { return newKVS(sys, in) }}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want allreduce, kvs or reliable)", name)
}

func (w *workload) build() (*core.Artifact, error) {
	art, err := core.Build(w.src, w.topo, core.BuildOptions{WindowLen: w.window, ModuleName: w.name})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return art, nil
}

// setupTimes is one set-up's cost split. cpu is the process's CPU time
// (user+sys) over the set-up: what setup_s reports, because the wall
// time of a set-up follows how much CPU the hypervisor steals.
type setupTimes struct {
	wall, cpu, compile, deploy time.Duration
}

// setup builds, deploys and initialises one system. Warm-up traffic is
// not part of it: on the lossy workload it waits on retransmit timers
// whenever the dice drop a warm-up packet, which would make set-up time
// a count of drops.
func (w *workload) setup(tr *spanLog) (*system, instance, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	cpu0 := cpuTime()
	tr.setUnit(-1)
	tr.begin("setup")
	defer tr.end()
	tr.begin("ncl.Build")
	art, err := w.build()
	if err == nil {
		at := start
		for _, s := range art.Stages {
			tr.record("ncl.stage."+s.Name, at, s.Duration)
			at = at.Add(s.Duration)
			st.compile += s.Duration
		}
	}
	tr.end()
	if err != nil {
		return nil, nil, st, err
	}
	t := time.Now()
	tr.begin("core.Deploy")
	sys, err := deploy(art, w.faults)
	tr.end()
	st.deploy = time.Since(t)
	if err != nil {
		return nil, nil, st, err
	}
	inst := w.newInst(sys)
	tr.begin("init")
	err = inst.init(tr)
	tr.end()
	if err != nil {
		inst.close()
		sys.stop()
		return nil, nil, st, fmt.Errorf("init: %w", err)
	}
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	return sys, inst, st, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
	notes   []string // human-readable lines printed before the JSON
}

// add records a metric. A run that failed before completing an op has
// no rate; its metrics read 0 rather than NaN, which JSON cannot carry.
func (r *report) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type config struct {
	workload       string
	seed           int64
	seconds        int
	trace          bool
	root, out, rev string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: allreduce, kvs or reliable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (data values, zipf keys, fault dice)")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (fingerprint source digest)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span logs, profiles and result records")
	flag.StringVar(&cfg.rev, "commit", "unknown", "commit being measured")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	gort.GOMAXPROCS(gort.NumCPU())
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	fp := fingerprint(cfg)
	for _, k := range fingerprintOrder {
		rep.note("fingerprint %-12s %s", k, fp[k])
	}

	epoch := time.Now()
	var logs []*spanLog
	newLog := func() *spanLog {
		if !cfg.trace {
			return nil
		}
		l := newSpanLog(epoch, len(logs))
		logs = append(logs, l)
		return l
	}
	mainLog := newLog()

	var (
		sys  *system
		inst instance
		wall []float64
		cpu  []float64
		comp []float64
		depl []float64
	)
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			inst.close()
			sys.stop()
		}
		// Each set-up starts from a collected heap, so where the GC
		// lands inside it does not depend on what the last one left.
		gort.GC()
		s, in, st, err := w.setup(mainLog)
		if err != nil {
			return nil, err
		}
		sys, inst = s, in
		wall = append(wall, st.wall.Seconds())
		cpu = append(cpu, st.cpu.Seconds())
		comp = append(comp, float64(st.compile)/1e6)
		depl = append(depl, float64(st.deploy)/1e6)
	}
	defer func() {
		inst.close()
		sys.stop()
	}()
	mainLog.setUnit(-1)
	mainLog.begin("warmup")
	err = inst.warmup(mainLog)
	mainLog.end()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	measured := time.Duration(cfg.seconds) * time.Second
	var res *result
	if !cfg.trace {
		p := runPhase(sys, inst, measured, nil)
		res = endToEnd(w, sys, inst, p, mainLog, rep)
		rep.add("setup_s", "s", median(cpu))
		rep.note("setup_s CPU samples %v", cpu)
		rep.note("set-up wall time %.4f s (median), samples %v", median(wall), wall)
	} else {
		driverLogs := make([]*spanLog, w.drivers)
		for i := range driverLogs {
			driverLogs[i] = newLog()
		}
		res, err = traced(cfg, w, sys, inst, measured, mainLog, driverLogs, logs, rep)
		if err != nil {
			return nil, err
		}
		rep.add("ncl.compile_ms", "ms", median(comp))
		rep.add("core.deploy_ms", "ms", median(depl))
	}

	for _, n := range rep.notes {
		fmt.Println(n)
	}
	res.Metrics = map[string]metric{}
	for _, name := range rep.names {
		m := rep.metrics[name]
		res.Metrics[name] = m
		fmt.Printf("metric %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	record := map[string]any{"fingerprint": fp, "workload": cfg.workload, "seed": cfg.seed,
		"seconds": cfg.seconds, "trace": cfg.trace, "result": res}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd finishes an untraced run: end-of-run checks, then the
// end-to-end metrics.
func endToEnd(w *workload, sys *system, inst instance, p *phase, tr *spanLog, rep *report) *result {
	res := &result{Attempted: p.ops, Failed: p.failed}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	fin, ferr := inst.finish(tr)
	res.Failed += fin
	if w.faults == (netsim.Faults{}) && p.drops > 0 {
		res.Failed += int(p.drops)
		rep.note("check FAILED: netsim.drops = %d on a lossless workload", p.drops)
	}
	if p.err != nil {
		rep.note("check FAILED: %v", p.err)
	}
	if ferr != nil {
		rep.note("check FAILED: %v", ferr)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = p.err == nil && ferr == nil && res.Failed == 0
	ops := float64(p.ops)
	p50, p90 := p.latency.quantile(0.5), p.latency.quantile(0.9)
	rep.add("latency_p50_us", "us", p50)
	rep.add("latency_p90_us", "us", p90)
	rep.add("cpu_us_per_window", "us", float64(p.cpu)/1e3/ops)
	rep.add("allocs_per_window", "count", float64(p.mallocs)/ops)
	rep.add("wire_bytes_per_window", "bytes", float64(p.wireBytes)/ops)
	rep.add("heap_live_mb", "MB", float64(p.heapLive)/(1<<20))
	rep.note("windows_per_s %.1f 1/s (median tenth of the run; whole run %.1f; by tenth %.0f)",
		median(p.sliceRates()), ops/p.wall.Seconds(), p.sliceRates())
	rep.note("latency samples %d (%d above p90), ops %d in %.3fs", p.latency.n, p.latency.n/10, p.ops, p.wall.Seconds())
	rep.note("latency us p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f p95 %.1f p99 %.1f",
		p.latency.quantile(0.1), p.latency.quantile(0.25), p50, p.latency.quantile(0.75), p90,
		p.latency.quantile(0.95), p.latency.quantile(0.99))
	rep.note("failed_ratio %.6f ratio (%d failed of %d attempted)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	rep.note("netsim.drops %d", p.drops)
	if _, ok := inst.(*kvs); ok {
		rep.note("switch_hit_ratio %.4f ratio (%d of %d requests answered by the switch)", float64(p.hits)/ops, p.hits, p.ops)
	}
	return res
}

// traced runs the traced variant: an untraced half for the overhead
// baseline, a traced half (spans, INT sampling, CPU profile), then the
// isolated per-layer fixtures.
func traced(cfg config, w *workload, sys *system, inst instance, measured time.Duration,
	mainLog *spanLog, driverLogs, allLogs []*spanLog, rep *report) (*result, error) {
	half := measured / 2
	base := runPhase(sys, inst, half, nil)

	sys.dep.EnableTelemetry(telemetrySampleEvery)
	profPath := filepath.Join(cfg.out, fmt.Sprintf("cpu-%s-seed%d.pprof", cfg.workload, cfg.seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	tp := runPhase(sys, inst, half, driverLogs)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	for _, h := range sys.hosts {
		h.SetTraceEvery(0)
	}

	// The traced phase's own end-to-end figures are not reported: they
	// include the cost of tracing. Its checks and notes are.
	e2e := &report{}
	res := endToEnd(w, sys, inst, tp, mainLog, e2e)
	rep.notes = append(rep.notes, e2e.notes...)
	res.Attempted += base.ops
	res.Failed += base.failed
	if w.faults == (netsim.Faults{}) {
		res.Failed += int(base.drops)
	}
	if base.err != nil {
		rep.note("check FAILED: %v", base.err)
	}
	res.Correct = res.Correct && base.err == nil && res.Failed == 0
	snap := sys.reg.Snapshot()
	spans := mergeSpans(allLogs...)
	if err := spans.writeJSONL(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	rep.note("span self time (traced phase, set-up and checks):\n%s", spans.table())

	ops := float64(tp.ops)
	baseWPS := float64(base.ops) / base.wall.Seconds()
	tracedWPS := ops / tp.wall.Seconds()
	baseCPU := float64(base.cpu) / 1e3 / float64(base.ops)

	ctrl := spans.samplesWithPrefix("controller.")
	rep.add("controller.call_us", "us", quantile(ctrl, 0.5)/1e3)
	// The driver's send calls cover exactly the ops; its receive calls
	// are one window each.
	in, recv := spans.get("runtime.In"), spans.get("runtime.Recv")
	rep.add("runtime.out_us_per_window", "us", float64(spans.selfNs("runtime.Out"))/1e3/ops)
	rep.add("runtime.in_us_per_window", "us", float64(in.SelfNs+recv.SelfNs)/1e3/float64(max64(uint64(in.Count+recv.Count))))

	fx, err := runFixtures(w)
	if err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	rep.add("runtime.send_ns_per_window", "ns", fx.sendNs)
	rep.add("runtime.send_allocs_per_window", "count", fx.sendAllocs)
	rep.add("runtime.recv_ns_per_window", "ns", fx.recvNs)
	rep.add("runtime.recv_allocs_per_window", "count", fx.recvAllocs)
	rep.add("runtime.retransmit_ratio", "ratio", float64(tp.retransmits)/float64(max64(tp.windowsSent)))
	rep.add("runtime.ack_rtt_us_p50", "us", histQuantile(snap, ".ack_rtt_us", 0.5))
	rep.add("ncp.encode_ns_per_window", "ns", fx.encodeNs)
	rep.add("ncp.decode_ns_per_window", "ns", fx.decodeNs)
	rep.add("netsim.fabric_ns_per_packet", "ns", fx.fabricNs)
	rep.add("netsim.switch_ns_per_window", "ns", fx.switchNs)
	rep.add("netsim.packets_per_window", "count", float64(tp.packets)/ops)
	rep.add("netsim.drops", "count", float64(tp.drops))
	rep.add("netsim.queue_depth_p90", "count", histQuantile(snap, ".queue_depth", 0.9))
	rep.add("netsim.hop_ns_p50", "ns", histQuantile(snap, "switch.s1.exec_ns", 0.5))
	rep.add("pisa.exec_ns_per_window", "ns", fx.execNs)
	dupRatio := 0.0
	if tp.retransmits > 0 {
		dupRatio = float64(tp.dupSuppressed) / float64(tp.retransmits)
	}
	rep.add("pisa.dup_suppressed_ratio", "ratio", dupRatio)
	rep.add("telemetry.overhead_pct", "%", 100*(baseWPS-tracedWPS)/baseWPS)

	shares, profiled, err := cpuShares(profPath)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, m := range cpuModules {
		rep.add("cpu_share."+m, "%", shares[m])
	}
	rep.note("cpu profile: %v of CPU charged to modules", profiled)

	// Reconciliation: the isolated costs each op incurs, per layer, at
	// the rates the traced phase measured, against the CPU each op took.
	perOp := func(n uint64) float64 { return float64(n) / ops }
	layers := []struct {
		name string
		ns   float64
	}{
		{"runtime.send", fx.sendNs * perOp(tp.windowsSent)},
		{"netsim.fabric", fx.fabricNs * perOp(tp.packets)},
		{"netsim.switch", fx.switchNs * perOp(tp.switchWindows)},
		{"runtime.recv", fx.recvNs * perOp(tp.windowsRecv)},
	}
	explained := 0.0
	for _, l := range layers {
		explained += l.ns
		rep.note("reconcile %-16s %10.3f us/window", l.name, l.ns/1e3)
	}
	rep.note("reconcile %-16s %10.3f us/window (untraced half)", "cpu", baseCPU)
	rep.add("unexplained_us_per_window", "us", baseCPU-explained/1e3)
	return res, nil
}

func max64(n uint64) uint64 {
	if n == 0 {
		return 1
	}
	return n
}
