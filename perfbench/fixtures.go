package main

import (
	"fmt"
	gort "runtime"
	"sync/atomic"
	"time"

	"ncl/internal/and"
	"ncl/internal/core"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/pisa"
	"ncl/internal/runtime"
)

// Isolated per-layer fixtures. Each one replays what a workload's own
// first round put on the wire — captured by running that round on a
// tapped deployment — through one layer's public entry point, and times
// only that call. Inputs that the layer would reject as duplicates
// (switch exactly-once shadow state, the host's duplicate guard) get a
// fresh invocation id per pass, outside the timed region.

// fixtureBudget is the time each fixture spends measuring; a fixture
// makes at least fixtureMinPasses passes and reports the median pass.
const (
	fixtureBudget    = 400 * time.Millisecond
	fixtureMinPasses = 5
	// sendBatch is how many packets a host hands the fabric per
	// SendBatch call (the runtime's own flush size).
	sendBatch = 32
	// switchBatch is the fabric's default drain batch: the largest
	// same-kernel segment the switch executes in one ExecWindowBatch.
	switchBatch = netsim.DefaultDrainBatch
)

// fixtureCosts are the isolated per-layer costs of one workload.
type fixtureCosts struct {
	sendNs, sendAllocs float64 // runtime: Out* into a discarding sender
	recvNs, recvAllocs float64 // runtime: Receive, then In (or Recv)
	encodeNs, decodeNs float64 // ncp codec
	fabricNs           float64 // netsim: Fabric.SendBatch into counting nodes
	switchNs           float64 // netsim: SwitchNode.Receive
	execNs             float64 // pisa: Switch.ExecWindowBatch
}

// capture is one workload's first round, recorded on a tapped
// deployment. The stopped system's switch node and device keep the
// state the round left behind, so replays see the workload's own tables
// and registers.
type capture struct {
	w    *workload
	art  *core.Artifact
	sys  *system
	inst instance
	pkts []capturedPkt
}

func captureRound(w *workload) (*capture, error) {
	art, err := w.build()
	if err != nil {
		return nil, err
	}
	sys, t, err := deployTapped(art, w.faults)
	if err != nil {
		return nil, err
	}
	inst := w.newInst(sys)
	defer func() {
		inst.close()
		sys.stop()
	}()
	if err := inst.init(nil); err != nil {
		return nil, fmt.Errorf("capture init: %w", err)
	}
	if err := inst.warmup(nil); err != nil {
		return nil, fmt.Errorf("capture warm-up: %w", err)
	}
	t.take()
	logs := make([]*spanLog, w.drivers)
	for i := 0; i < w.captureSteps; i++ {
		if r := inst.step(logs); r.err != nil {
			return nil, fmt.Errorf("capture round: %w", r.err)
		}
	}
	return &capture{w: w, art: art, sys: sys, inst: inst, pkts: t.take()}, nil
}

// window is one captured window packet, decoded.
type window struct {
	c     capturedPkt
	hdr   ncp.Header
	user  []uint64
	data  [][]uint64
	specs []ncp.ParamSpec
}

// windows decodes the captured window packets (acks carry none) that
// match the filter.
func (c *capture) windows(keep func(capturedPkt) bool) ([]window, error) {
	names := map[uint32]string{}
	for name, id := range c.art.KernelIDs {
		names[id] = name
	}
	cfg := c.art.AppConfig()
	var out []window
	for _, cp := range c.pkts {
		if !keep(cp) {
			continue
		}
		hdr, user, _, payload, err := ncp.DecodeFull(cp.pkt.Data)
		if err != nil {
			return nil, fmt.Errorf("captured packet: %w", err)
		}
		if hdr.Flags&ncp.FlagAck != 0 {
			continue
		}
		specs := cfg.OutSpecs[names[hdr.KernelID]]
		data, err := ncp.DecodePayload(payload, specs)
		if err != nil {
			return nil, fmt.Errorf("captured payload: %w", err)
		}
		out = append(out, window{c: cp, hdr: *hdr, user: user, data: data, specs: specs})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no window packets captured")
	}
	return out, nil
}

func sentByHost(cp capturedPkt) bool { return !cp.toHost }

// rewid re-encodes windows with their invocation ids shifted by pass, so
// each pass is new to duplicate filters while retransmits within a pass
// still match their original.
func rewid(ws []window, pass int) ([]*netsim.Packet, error) {
	out := make([]*netsim.Packet, len(ws))
	for i := range ws {
		w := &ws[i]
		hdr := w.hdr
		hdr.Wid += uint32(pass+1) << 16
		payload, err := ncp.EncodePayload(w.data, w.specs)
		if err != nil {
			return nil, err
		}
		b, err := ncp.Marshal(&hdr, w.user, payload)
		if err != nil {
			return nil, err
		}
		p := w.c.pkt
		p.Data = b
		out[i] = &p
	}
	return out, nil
}

// passTimer measures passes until the budget is spent: prep runs
// untimed, run is timed, and the result is the median ns per op and the
// mean allocations per op.
func passTimer(prep func(pass int) error, run func() (int, error)) (nsPerOp, allocsPerOp float64, err error) {
	var per []float64
	var ops, mallocs uint64
	var m0, m1 gort.MemStats
	start := time.Now()
	for pass := 0; pass < fixtureMinPasses || time.Since(start) < fixtureBudget; pass++ {
		if err := prep(pass); err != nil {
			return 0, 0, err
		}
		gort.ReadMemStats(&m0)
		t0 := time.Now()
		n, err := run()
		el := time.Since(t0)
		gort.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		per = append(per, float64(el)/float64(n))
		ops += uint64(n)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return median(per), float64(mallocs) / float64(ops), nil
}

func runFixtures(w *workload) (*fixtureCosts, error) {
	c, err := captureRound(w)
	if err != nil {
		return nil, err
	}
	fx := &fixtureCosts{}
	if fx.encodeNs, fx.decodeNs, err = c.codecFixture(); err != nil {
		return nil, fmt.Errorf("ncp: %w", err)
	}
	if fx.execNs, err = c.execFixture(); err != nil {
		return nil, fmt.Errorf("pisa: %w", err)
	}
	if fx.switchNs, err = c.switchFixture(); err != nil {
		return nil, fmt.Errorf("switch node: %w", err)
	}
	if fx.fabricNs, err = fabricFixture(c.art.Net, w.faults, c.pkts, nil); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if fx.sendNs, fx.sendAllocs, err = c.sendFixture(); err != nil {
		return nil, fmt.Errorf("runtime send: %w", err)
	}
	if fx.recvNs, fx.recvAllocs, err = c.recvFixture(); err != nil {
		return nil, fmt.Errorf("runtime receive: %w", err)
	}
	return fx, nil
}

// codecFixture times ncp encode (AppendPayload + Marshal) and decode
// (DecodeFullInto + DecodePayloadInto) over every captured window.
func (c *capture) codecFixture() (enc, dec float64, err error) {
	ws, err := c.windows(func(capturedPkt) bool { return true })
	if err != nil {
		return 0, 0, err
	}
	noPrep := func(int) error { return nil }
	var buf []byte
	enc, _, err = passTimer(noPrep, func() (int, error) {
		for i := range ws {
			w := &ws[i]
			var err error
			if buf, err = ncp.AppendPayload(buf[:0], w.data, w.specs); err != nil {
				return 0, err
			}
			hdr := w.hdr
			if _, err := ncp.Marshal(&hdr, w.user, buf); err != nil {
				return 0, err
			}
		}
		return len(ws), nil
	})
	if err != nil {
		return 0, 0, err
	}
	var d ncp.Decoded
	var dst [][]uint64
	dec, _, err = passTimer(noPrep, func() (int, error) {
		for i := range ws {
			if err := ncp.DecodeFullInto(ws[i].c.pkt.Data, &d); err != nil {
				return 0, err
			}
			var err error
			if dst, err = ncp.DecodePayloadInto(dst, d.Payload, ws[i].specs); err != nil {
				return 0, err
			}
		}
		return len(ws), nil
	})
	return enc, dec, err
}

// execFixture times pisa.Switch.ExecWindowBatch on the captured device
// over the windows hosts sent, in same-kernel segments of at most
// switchBatch windows (the switch node's batched receive shape).
func (c *capture) execFixture() (float64, error) {
	ws, err := c.windows(sentByHost)
	if err != nil {
		return 0, err
	}
	dev := c.sys.sw.Device()
	loc := c.art.Programs["s1"].LocID
	jobs := make([]pisa.BatchJob, len(ws))
	prep := func(pass int) error {
		for i := range ws {
			w := &ws[i]
			data := jobs[i].Data
			if data == nil {
				data = make([][]uint64, len(w.data))
				for p := range w.data {
					data[p] = make([]uint64, len(w.data[p]))
				}
			}
			for p := range w.data {
				copy(data[p], w.data[p])
			}
			jobs[i] = pisa.BatchJob{Data: data, Meta: pisa.WindowMeta{
				Seq: uint64(w.hdr.WindowSeq), Len: uint64(w.hdr.WindowLen), From: uint64(w.hdr.FromRole),
				Sender: uint64(w.hdr.Sender), Wid: uint64(w.hdr.Wid + uint32(pass+1)<<16), User: w.user,
				ExactlyOnce: w.hdr.Flags&ncp.FlagExactlyOnce != 0,
			}}
		}
		return nil
	}
	ns, _, err := passTimer(prep, func() (int, error) {
		for i := 0; i < len(jobs); {
			j := i + 1
			for j < len(jobs) && j-i < switchBatch && ws[j].hdr.KernelID == ws[i].hdr.KernelID {
				j++
			}
			if err := dev.ExecWindowBatch(ws[i].hdr.KernelID, jobs[i:j], loc); err != nil {
				return 0, err
			}
			for k := i; k < j; k++ {
				if jobs[k].Err != nil {
					return 0, jobs[k].Err
				}
			}
			i = j
		}
		return len(jobs), nil
	})
	return ns, err
}

// countSender is a netsim.Sender that drops what it is given.
type countSender struct {
	net *and.Network
	n   atomic.Int64
}

func (s *countSender) Send(from, to string, pkt *netsim.Packet) error {
	s.n.Add(1)
	return nil
}

func (s *countSender) Network() *and.Network { return s.net }

// switchFixture times SwitchNode.Receive of the windows hosts sent, on
// the captured switch node, with a sender that only counts the output.
func (c *capture) switchFixture() (float64, error) {
	ws, err := c.windows(sentByHost)
	if err != nil {
		return 0, err
	}
	out := &countSender{net: c.art.Net}
	var pkts []*netsim.Packet
	prep := func(pass int) (err error) {
		pkts, err = rewid(ws, pass)
		return err
	}
	ns, _, err := passTimer(prep, func() (int, error) {
		for i, p := range pkts {
			c.sys.sw.Receive(out, p, ws[i].c.from)
		}
		return len(pkts), nil
	})
	if err == nil && out.n.Load() == 0 {
		err = fmt.Errorf("the switch emitted nothing")
	}
	return ns, err
}

// countNode counts deliveries across every fabric node and wakes the
// waiter once the count reaches the target.
type countNode struct {
	label  string
	n      *atomic.Int64
	target *atomic.Int64
	wake   chan struct{}
}

func (c *countNode) Label() string { return c.label }

func (c *countNode) Receive(_ netsim.Sender, _ *netsim.Packet, _ string) {
	if c.n.Add(1) >= c.target.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// fabricFixture times the fabric carrying the captured host-link packets
// between counting nodes: SendBatch calls of up to sendBatch packets per
// sender run, until every packet the fault plan did not drop has been
// delivered. wrap, when non-nil, interposes on the sending side.
//
// It runs on one processor, so the sending and the draining side add up
// instead of overlapping: the result is the fabric's cost per packet, not
// how well two goroutines happened to overlap on a shared machine.
func fabricFixture(net *and.Network, faults netsim.Faults, captured []capturedPkt, wrap func(netsim.BatchSender) netsim.BatchSender) (float64, error) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(1))
	fab := netsim.New(net, faults)
	fab.SetObs(obs.NewRegistry())
	fab.SetInboxCap(len(captured) + sendBatch)
	var n, target atomic.Int64
	wake := make(chan struct{}, 1)
	for _, node := range net.Nodes {
		if err := fab.Attach(&countNode{label: node.Label, n: &n, target: &target, wake: wake}); err != nil {
			return 0, err
		}
	}
	if err := fab.Start(); err != nil {
		return 0, err
	}
	defer fab.Stop()
	var send netsim.BatchSender = fab
	if wrap != nil {
		send = wrap(fab)
	}
	pkts := make([]*netsim.Packet, len(captured))
	tos := make([]string, len(captured))
	for i := range captured {
		p := captured[i].pkt
		pkts[i] = &p
		tos[i] = captured[i].to
	}
	linkDrops := func() int64 {
		var d int64
		for _, l := range net.Links {
			d += int64(fab.Stats(l.A, l.B).Dropped.Load() + fab.Stats(l.B, l.A).Dropped.Load())
		}
		return d
	}
	prep := func(int) error {
		n.Store(0)
		target.Store(int64(len(pkts)))
		select {
		case <-wake:
		default:
		}
		return nil
	}
	ns, _, err := passTimer(prep, func() (int, error) {
		dropped0 := linkDrops()
		for i := 0; i < len(pkts); {
			j := i + 1
			for j < len(pkts) && j-i < sendBatch && captured[j].from == captured[i].from {
				j++
			}
			if err := send.SendBatch(captured[i].from, tos[i:j], pkts[i:j]); err != nil {
				return 0, err
			}
			i = j
		}
		want := int64(len(pkts)) - (linkDrops() - dropped0)
		target.Store(want)
		for n.Load() < want {
			select {
			case <-wake:
			case <-time.After(inTimeout):
				return 0, fmt.Errorf("fabric delivered %d of %d packets", n.Load(), want)
			}
		}
		return len(pkts), nil
	})
	return ns, err
}

// discardSender is a host transport that drops everything, except that
// it acknowledges reliable windows at once, the way the switch does for
// the windows it consumes, so OutReliable can complete.
type discardSender struct {
	net  *and.Network
	host *runtime.Host
}

func (s *discardSender) Network() *and.Network { return s.net }

func (s *discardSender) Send(from, to string, pkt *netsim.Packet) error {
	var d ncp.Decoded
	if err := ncp.DecodeFullInto(pkt.Data, &d); err != nil || d.Header.Flags&ncp.FlagAckRequest == 0 {
		return nil
	}
	h := &d.Header
	ack := ncp.Header{Flags: ncp.FlagAck, KernelID: h.KernelID, WindowSeq: h.WindowSeq,
		WindowLen: h.WindowLen, Sender: 1, Wid: h.Wid, FragCount: 1}
	b, err := ncp.Marshal(&ack, nil, nil)
	if err != nil {
		return err
	}
	s.host.Receive(s, &netsim.Packet{Src: to, Dst: from, Data: b}, to)
	return nil
}

func (s *discardSender) SendBatch(from string, tos []string, pkts []*netsim.Packet) error {
	for i, p := range pkts {
		if err := s.Send(from, tos[i], p); err != nil {
			return err
		}
	}
	return nil
}

// standaloneHost builds a runtime host for the capture's probe host on a
// discarding transport, routed like the deployment's.
func (c *capture) standaloneHost() (*runtime.Host, *discardSender, error) {
	label := c.inst.probeHost()
	node := c.art.Net.NodeByLabel(label)
	if node == nil {
		return nil, nil, fmt.Errorf("no host %q", label)
	}
	cfg := c.art.AppConfig()
	cfg.Obs = obs.NewRegistry()
	ds := &discardSender{net: c.art.Net}
	h := runtime.NewHost(label, node.ID, node.Role, cfg, ds, nil)
	next, via := c.sys.ctrl.HostRoutingAll()
	h.SetRoutes(next[label], via[label])
	ds.host = h
	return h, ds, nil
}

// sendFixture times the probe host's first-round send calls.
func (c *capture) sendFixture() (float64, float64, error) {
	h, _, err := c.standaloneHost()
	if err != nil {
		return 0, 0, err
	}
	defer h.Close()
	return passTimer(func(int) error { return nil }, func() (int, error) { return c.inst.sendOnce(h) })
}

// recvFixture times Host.Receive of the windows the probe host received
// in the first round, each followed by the workload's own consume call.
func (c *capture) recvFixture() (float64, float64, error) {
	label := c.inst.probeHost()
	ws, err := c.windows(func(cp capturedPkt) bool { return cp.toHost && cp.to == label })
	if err != nil {
		return 0, 0, err
	}
	h, ds, err := c.standaloneHost()
	if err != nil {
		return 0, 0, err
	}
	defer h.Close()
	var pkts []*netsim.Packet
	prep := func(pass int) (err error) {
		pkts, err = rewid(ws, pass)
		return err
	}
	return passTimer(prep, func() (int, error) {
		for i, p := range pkts {
			h.Receive(ds, p, ws[i].c.from)
			if err := c.inst.consume(h); err != nil {
				return 0, err
			}
		}
		return len(pkts), nil
	})
}
