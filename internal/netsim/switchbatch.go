package netsim

import (
	"math"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// The receive loop: the one path every packet takes through a switch
// node. The fabric hands over each drained burst in one receiveBatch
// call; Receive (the UDP backend, direct callers) is a burst of one.
// Consecutive windows for the same kernel form a segment that runs
// through pisa.ExecWindowBatch — one plan load, one pooled scratch, and
// the kernel's whole lock set acquired once for the segment. Multi-window
// packets (§4.2) unbatch into the segment window by window. Pass-through
// traffic (non-NCP, acks, fragments, unknown kernels) flushes the open
// segment and is forwarded; a traced packet runs as a segment of its own,
// window by window, so each window's INT record and exec_ns report its
// own pipeline time. Every output is queued in arrival order and leaves
// through one SendBatch at the end of the burst, so per-source FIFO
// order is the order packets arrived in.

// batchWin is one window parked in the open segment, with everything its
// routing needs after execution. user and hops alias the packet's decode
// slot, which stays put until the burst ends; data is the window's
// payload decode target, reused across segments.
type batchWin struct {
	pkt        *Packet
	from       string
	kp         *swKernel
	h          ncp.Header
	user       []uint64
	hops       []ncp.Hop
	data       [][]uint64
	switchAcks bool
	qdepth     uint16 // INT ingress backlog, probed at arrival (traced windows)
}

// batchState is the reusable per-switch working set of the receive loop.
type batchState struct {
	one  [1]delivery   // Receive's burst of one
	decs []ncp.Decoded // one decode slot per packet of the burst, reused
	ndec int           // slots holding this burst's packets

	// The open segment: wins and jobs are parallel slices.
	kid    uint32
	traced bool // the segment is one traced packet
	wins   []batchWin
	jobs   []pisa.BatchJob

	payload []byte // repack scratch
	out     batchOut
}

// slot returns the next free decode slot; the packet decoded into it
// keeps the slot (ndec++) only if its windows join a segment.
func (b *batchState) slot() *ncp.Decoded {
	if b.ndec == len(b.decs) {
		b.decs = append(b.decs, ncp.Decoded{})
	}
	return &b.decs[b.ndec]
}

// nextWin extends the open segment by one window, reusing the slot's
// payload buffer from earlier segments.
func (b *batchState) nextWin() *batchWin {
	if len(b.wins) == cap(b.wins) {
		b.wins = append(b.wins, batchWin{})
	} else {
		b.wins = b.wins[:len(b.wins)+1]
	}
	return &b.wins[len(b.wins)-1]
}

// batchOut queues the packets a burst produces and hands them to the
// transport in one SendBatch — per-destination order preserved — when
// the transport supports it; otherwise it degrades to pass-through.
type batchOut struct {
	inner Sender
	bs    BatchSender // nil: pass-through
	tos   []string
	pkts  []*Packet
}

func (b *batchOut) reset(f Sender) {
	b.inner = f
	b.bs, _ = f.(BatchSender)
	b.tos = b.tos[:0]
	b.pkts = b.pkts[:0]
}

func (b *batchOut) Send(from, to string, pkt *Packet) error {
	if b.bs == nil {
		return b.inner.Send(from, to, pkt)
	}
	b.tos = append(b.tos, to)
	b.pkts = append(b.pkts, pkt)
	return nil
}

func (b *batchOut) Network() *and.Network { return b.inner.Network() }

// flush sends everything queued; errors are the caller's to count.
func (b *batchOut) flush(from string) error {
	if b.bs == nil || len(b.pkts) == 0 {
		return nil
	}
	err := b.bs.SendBatch(from, b.tos, b.pkts)
	b.tos = b.tos[:0]
	b.pkts = b.pkts[:0]
	return err
}

// receiveBatch implements batchReceiver: the Fig. 3b dispatch over a
// drained burst, in arrival order.
func (s *SwitchNode) receiveBatch(f Sender, batch []delivery) {
	b := &s.batch
	b.out.reset(f)
	for i := range batch {
		s.admit(b, batch[i].pkt, batch[i].from)
	}
	s.flushSegment(b)
	b.ndec = 0
	if err := b.out.flush(s.label); err != nil {
		s.Errors.Add(1)
	}
}

// admit classifies one received packet: pass-through traffic is
// forwarded behind the open segment's windows, and each window of a
// recognized kernel joins the segment.
func (s *SwitchNode) admit(b *batchState, pkt *Packet, from string) {
	if !ncp.IsNCP(pkt.Data) {
		s.flushSegment(b)
		s.ForwardedRaw.Add(1)
		s.forward(&b.out, pkt, from)
		return
	}
	d := b.slot()
	if err := ncp.DecodeFullInto(pkt.Data, d); err != nil {
		// Corrupted NCP traffic is dropped, like a failed checksum anywhere.
		s.Errors.Add(1)
		return
	}
	h := &d.Header
	traced := h.Flags&ncp.FlagTrace != 0
	kp := s.kplans[h.KernelID]
	if kp == nil || h.FragCount > 1 || h.Flags&ncp.FlagAck != 0 {
		// No kernel for this window here, a multi-packet window (switches
		// pass fragments through, §6), or an acknowledgment: normal
		// forwarding without kernel execution.
		s.flushSegment(b)
		s.ForwardedRaw.Add(1)
		if traced {
			// Traced windows still record the pass-through hop, with the
			// queue depth at arrival (no kernel ran, so no latency/kernel).
			hops := append(d.Hops, ncp.Hop{
				Loc: uint16(s.locID), Kind: ncp.HopSwitch,
				Event: ncp.EventForward, TimeNs: switchTimeNs(pkt.VTimeUs),
				QueueDepth: s.queueDepth(),
			})
			if out, err := ncp.MarshalHops(h, d.User, hops, d.Payload); err == nil {
				pkt = &Packet{Src: pkt.Src, Dst: pkt.Dst, Via: pkt.Via, Data: out, VTimeUs: pkt.VTimeUs}
			}
		}
		s.forward(&b.out, pkt, from)
		return
	}
	n, per := 1, len(d.Payload)
	if h.BatchCount > 1 {
		// Multi-window packets (§4.2) unbatch at the first executing
		// switch: each window runs the kernel and follows its own
		// forwarding decision. The payload must split exactly; anything
		// else is a framing error.
		n, per = int(h.BatchCount), kp.payloadBytes
		if len(d.Payload) != n*per {
			s.Errors.Add(1)
			return
		}
	}
	if len(b.wins) > 0 && (traced || b.traced || h.KernelID != b.kid) {
		s.flushSegment(b)
	}
	// INT ingress snapshot: every hop record of this packet reports the
	// backlog when the packet arrived, probed once (and only for traced
	// windows — the untraced path stays flat).
	var qdepth uint16
	if traced {
		qdepth = s.queueDepth()
	}
	b.ndec++
	b.kid, b.traced = h.KernelID, traced
	// A reliable window for a non-idempotent kernel (FlagExactlyOnce)
	// runs through the device's duplicate shadow state, and the switch —
	// not the unreachable destination — acknowledges it when the kernel
	// consumes it on-path (drop/reflect/bcast). That closes DESIGN §5.4's
	// soundness hole: retransmits neither double-apply nor time out.
	xonce := h.Flags&ncp.FlagExactlyOnce != 0
	for k := 0; k < n; k++ {
		w := b.nextWin()
		w.pkt, w.from, w.kp = pkt, from, kp
		w.h = *h
		if n > 1 {
			w.h.BatchCount = 1
			w.h.WindowSeq = h.WindowSeq + uint32(k)
		}
		w.user, w.hops = d.User, d.Hops
		w.switchAcks = xonce && h.Flags&ncp.FlagAckRequest != 0
		w.qdepth = qdepth
		data, err := ncp.DecodePayloadInto(w.data, d.Payload[k*per:(k+1)*per], kp.specs)
		w.data = data
		if err != nil {
			s.Errors.Add(1)
			b.wins = b.wins[:len(b.wins)-1]
			continue
		}
		b.jobs = append(b.jobs, pisa.BatchJob{
			Data: data,
			Meta: pisa.WindowMeta{
				Seq:         uint64(w.h.WindowSeq),
				Len:         uint64(w.h.WindowLen),
				From:        uint64(w.h.FromRole),
				Sender:      uint64(w.h.Sender),
				Wid:         uint64(w.h.Wid),
				User:        w.user,
				ExactlyOnce: xonce,
			},
		})
	}
}

// flushSegment executes the open segment on the device and routes every
// window's decision onto the burst's output queue.
func (s *SwitchNode) flushSegment(b *batchState) {
	if len(b.wins) == 0 {
		return
	}
	if b.traced {
		// Window by window, each timed: the measurement (two clock reads
		// and a histogram observe) never touches the untraced path.
		for i := range b.jobs {
			start := time.Now()
			if err := s.sw.ExecWindowBatch(b.kid, b.jobs[i:i+1], s.locID); err != nil {
				b.jobs[i].Err = err
			}
			ns := uint64(time.Since(start))
			s.execNs.Observe(float64(ns))
			if b.jobs[i].Err == nil {
				s.stampExec(&b.wins[i], ns)
			}
		}
	} else if err := s.sw.ExecWindowBatch(b.kid, b.jobs, s.locID); err != nil {
		// Batch-level failure (no program / unknown kernel): every window
		// in the segment is lost.
		for i := range b.jobs {
			b.jobs[i].Err = err
		}
	}
	for i := range b.wins {
		w, j := &b.wins[i], &b.jobs[i]
		if j.Err != nil {
			s.Errors.Add(1)
			continue
		}
		s.KernelWindows.Add(1)
		w.kp.windows.Inc()
		if j.Dec.Suppressed {
			s.DupSuppressed.Add(1)
		}
		s.route(&b.out, w, j.Dec)
	}
	// Slots are truncated, not cleared: every field is overwritten when a
	// slot is reused, and clearing would cost a GC write barrier per
	// pointer per window to release at most one burst's packets early.
	b.wins = b.wins[:0]
	b.jobs = b.jobs[:0]
}

// stampExec appends a traced window's INT exec hop. The latency is the
// modeled pipeline delay when the fabric carries virtual time, else the
// measured kernel execution wall time (PackINT saturates at 24 bits).
func (s *SwitchNode) stampExec(w *batchWin, execNs uint64) {
	lat := execNs
	if w.pkt.VTimeUs > 0 {
		lat = uint64(SwitchDelayUs * 1000)
	}
	if lat > math.MaxUint32 {
		lat = math.MaxUint32
	}
	// Full-capacity append: unbatched sub-windows each extend their own
	// copy rather than aliasing the shared prefix.
	w.hops = append(w.hops[:len(w.hops):len(w.hops)], ncp.Hop{
		Loc: uint16(s.locID), Kind: ncp.HopSwitch,
		Event: ncp.EventExec, TimeNs: switchTimeNs(w.pkt.VTimeUs + SwitchDelayUs),
		LatencyNs: uint32(lat), QueueDepth: w.qdepth, KernelID: w.h.KernelID,
	})
}
