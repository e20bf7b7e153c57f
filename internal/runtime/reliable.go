package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/netsim"
)

// Reliable window delivery — the optional extension over the paper's §6
// transport discussion. Windows sent with OutReliable carry FlagAckRequest;
// the destination host's runtime acknowledges each one (FlagAck, same
// wid/seq, empty payload) *after* the window is safely queued for the
// application, and the sender retransmits unacknowledged windows on a
// timeout.
//
// OutReliable is a pipelined sliding-window transport run by one sender
// loop on the caller's goroutine (reliableLoop): up to Window windows are
// in flight at once, each with its own retransmit deadline set at send
// time, exponential backoff with jitter between attempts, and selective
// retransmission (only timed-out windows are resent). The per-call state
// is pooled — no goroutine, channel or timer per window or per call. A
// window that exhausts its retries does not abandon the others — every
// outstanding window runs to completion and the first hard error (lowest
// window sequence) is reported.
//
// Non-idempotent kernels: retransmission re-executes on-path kernels, so
// a retried window would double-apply switch-side aggregation. When the
// target kernel mutates register state (AppConfig.NonIdempotent, derived
// from the compiled program's stateful ALUs) OutReliable marks every
// window with ncp.FlagExactlyOnce: the switch consults its per-slot
// shadow state (pisa package) and executes duplicates with the mutating
// ops suppressed — the SwitchML-style seen-bitmap DESIGN §5.4 describes.
// Exactly-once windows consumed on-path (_drop, _reflect, _bcast) are
// acknowledged by the executing switch itself, so aggregation
// contributions complete instead of timing out; plain reliable windows
// keep the original detection-only semantics (a timeout means consumed
// on-path or unreachable).

// ReliableOptions configures OutReliable.
type ReliableOptions struct {
	// Timeout is the first attempt's retransmit timeout, armed when the
	// window is sent (default 20ms). Subsequent attempts back off
	// exponentially (see BackoffFactor).
	Timeout time.Duration
	// Retries per window after the first attempt (default 5).
	Retries int
	// Window caps the number of windows in flight at once (default 32;
	// 1 degenerates to stop-and-wait).
	Window int
	// BackoffFactor multiplies the retransmit timeout after each failed
	// attempt (default 2).
	BackoffFactor float64
	// MaxBackoff caps the per-attempt timeout (default 32x Timeout).
	MaxBackoff time.Duration
	// Jitter randomizes each backed-off timeout by ±Jitter fraction to
	// decorrelate retransmit bursts (default 0.1; negative disables).
	Jitter float64
	// ExactlyOnce forces ncp.FlagExactlyOnce on every window regardless
	// of AppConfig.NonIdempotent — for hand-built configs and tests; the
	// flag is normally negotiated from the compiled program.
	ExactlyOnce bool
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.Timeout <= 0 {
		o.Timeout = 20 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.BackoffFactor < 1 {
		o.BackoffFactor = 2
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 32 * o.Timeout
	}
	if o.Jitter == 0 {
		o.Jitter = 0.1
	}
	return o
}

// backoff returns the retransmit timeout after one more failed attempt:
// timeout x BackoffFactor, capped at MaxBackoff, randomized by ±Jitter.
func (o ReliableOptions) backoff(timeout time.Duration) time.Duration {
	next := time.Duration(float64(timeout) * o.BackoffFactor)
	if next > o.MaxBackoff {
		next = o.MaxBackoff
	}
	if o.Jitter > 0 {
		next += time.Duration((rand.Float64()*2 - 1) * o.Jitter * float64(next))
	}
	return next
}

// ackKey identifies an outstanding window.
type ackKey struct {
	wid uint32
	seq uint32
}

// ackWait is one outstanding reliable window as the ack path sees it:
// when the most recent attempt left, so the ack's arrival can be observed
// as a per-attempt round-trip latency (host.<label>.ack_rtt_us), whether
// the ack has landed, and the owning call's wake channel. Guarded by
// Host.ackMu.
type ackWait struct {
	sent  time.Time
	acked bool
	wake  chan struct{}
}

// relWin is one slot of a reliable call's in-flight ring.
type relWin struct {
	seq      int
	attempt  int
	timeout  time.Duration // the current attempt's retransmit timeout
	deadline time.Time
	live     bool // admitted and not yet finished
	due      bool // (re)transmit in this sweep
	wait     ackWait
}

// relCall is OutReliable's pooled per-call state: the in-flight ring, the
// channel handleAck wakes the caller on, the one retransmit timer, the
// window-data scratch, and the lowest-sequence error so far.
type relCall struct {
	wins    []relWin
	live    int
	wake    chan struct{}
	timer   *time.Timer
	winData [][]uint64
	err     error
	errSeq  int
}

var relPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &relCall{wake: make(chan struct{}, 1), timer: t}
}}

// OutReliable sends arrays like Out but requests acknowledgment for each
// window and retransmits lost ones, keeping up to opts.Window windows in
// flight. It returns once every window is acknowledged, or — after all
// outstanding windows have completed — an error naming the first window
// that failed.
func (h *Host) OutReliable(inv Invocation, arrays [][]uint64, opts ReliableOptions) error {
	opts = opts.withDefaults()
	specs, err := h.outSpecs(inv.Kernel)
	if err != nil {
		return err
	}
	if err := h.checkUserFields(inv); err != nil {
		return err
	}
	windows, err := h.windowCount(inv.Kernel, arrays, specs)
	if err != nil || windows == 0 {
		return err
	}
	wid := h.NewWid()
	flags := uint8(ncp.FlagAckRequest)
	if opts.ExactlyOnce || h.cfg.NonIdempotent[inv.Kernel] {
		flags |= ncp.FlagExactlyOnce
	}
	c := relPool.Get().(*relCall)
	c.wins = append(c.wins[:0], make([]relWin, min(opts.Window, windows))...)
	c.winData = append(c.winData[:0], make([][]uint64, len(specs))...)
	sc := h.getScratch()
	sc.bs, _ = h.send.(netsim.BatchSender)
	err = h.reliableLoop(c, sc, inv, wid, arrays, specs, windows, opts, flags)
	sc.bs = nil
	h.putScratch(sc)

	// Every window finished under ackMu (acked, or deleted from h.acks), so
	// no handleAck can reach c any more: drop a leftover wake token and
	// timer tick, and the caller's arrays, before pooling it.
	select {
	case <-c.wake:
	default:
	}
	c.stopTimer()
	clear(c.winData)
	c.err = nil
	relPool.Put(c)
	return err
}

// reliableLoop is the sender loop. Each sweep, under one ackMu hold,
// finishes acked windows, fails exhausted ones, schedules expired ones
// for retransmission, and admits new windows into free slots; it then
// transmits the scheduled windows outside the lock (handleAck runs
// synchronously inside the transport on loopback backends) and sleeps
// until an ack wakes it or the earliest deadline passes.
func (h *Host) reliableLoop(c *relCall, sc *sendScratch, inv Invocation, wid uint32, arrays [][]uint64, specs []ncp.ParamSpec, windows int, opts ReliableOptions, flags uint8) error {
	next := 0 // next sequence number to admit
	for {
		now := time.Now()
		var earliest time.Time
		h.ackMu.Lock()
		for i := range c.wins {
			w := &c.wins[i]
			w.due = false
			if w.live {
				switch {
				case w.wait.acked:
					h.finishWin(c, w, nil)
				case now.Before(w.deadline):
				case w.attempt == opts.Retries:
					delete(h.acks, ackKey{wid, uint32(w.seq)})
					h.finishWin(c, w, fmt.Errorf("runtime: window %d of invocation %d was never acknowledged after %d attempts (consumed on-path, or the destination is unreachable)",
						w.seq, wid, opts.Retries+1))
				default:
					w.attempt++
					w.timeout = opts.backoff(w.timeout)
					w.due = true
				}
			}
			if !w.live && next < windows {
				*w = relWin{seq: next, timeout: opts.Timeout, live: true, due: true, wait: ackWait{wake: c.wake}}
				h.acks[ackKey{wid, uint32(next)}] = &w.wait
				h.met.inflight.Add(1)
				c.live++
				next++
			}
			if w.due {
				w.wait.sent = now // per-attempt RTT baseline
				w.deadline = now.Add(w.timeout)
			}
			if w.live && (earliest.IsZero() || w.deadline.Before(earliest)) {
				earliest = w.deadline
			}
		}
		h.ackMu.Unlock()

		for i := range c.wins {
			w := &c.wins[i]
			if !w.due {
				continue
			}
			if w.attempt > 0 {
				h.met.retransmits.Inc()
				h.met.backoffUs.Observe(float64(w.timeout) / float64(time.Microsecond))
			}
			h.fillWindow(c.winData, arrays, specs, w.seq)
			if err := h.sendWindowScratch(inv, wid, uint32(w.seq), c.winData, specs, flags, sc); err != nil {
				h.abandonWin(c, w, wid, err)
			}
		}
		if err := h.flushSendQueue(sc); err != nil {
			for i := range c.wins { // the burst failed: so did its windows
				if c.wins[i].due {
					h.abandonWin(c, &c.wins[i], wid, err)
				}
			}
		}
		h.flushScratch(sc)

		if c.live == 0 {
			if next == windows {
				return c.err
			}
			continue
		}
		select {
		case <-c.wake: // an ack landed during the sends
			continue
		default:
		}
		if d := time.Until(earliest); d > 0 {
			c.stopTimer()
			c.timer.Reset(d)
			select {
			case <-c.wake:
			case <-c.timer.C:
			}
		}
	}
}

// finishWin retires an in-flight window, recording err (lowest sequence
// wins). Caller holds ackMu or owns a window no ack can reach.
func (h *Host) finishWin(c *relCall, w *relWin, err error) {
	w.live = false
	c.live--
	h.met.inflight.Add(-1)
	if err != nil && (c.err == nil || w.seq < c.errSeq) {
		c.err, c.errSeq = err, w.seq
	}
}

// abandonWin fails a window whose transmission failed — unless it already
// finished, or its ack landed and the next sweep completes it.
func (h *Host) abandonWin(c *relCall, w *relWin, wid uint32, err error) {
	h.ackMu.Lock()
	defer h.ackMu.Unlock()
	if w.live && !w.wait.acked {
		delete(h.acks, ackKey{wid, uint32(w.seq)})
		h.finishWin(c, w, err)
	}
}

// stopTimer stops the call's timer and drains a tick that already fired
// (go 1.22 timer channel semantics), leaving it ready for Reset.
func (c *relCall) stopTimer() {
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
}

// windowCount validates array shapes against the kernel's specs and
// returns the number of windows they describe.
func (h *Host) windowCount(kernel string, arrays [][]uint64, specs []ncp.ParamSpec) (int, error) {
	if len(arrays) != len(specs) {
		return 0, fmt.Errorf("runtime: kernel %s takes %d window arrays, got %d", kernel, len(specs), len(arrays))
	}
	W := h.cfg.WindowLen
	windows := -1
	for pi, sp := range specs {
		n := len(arrays[pi])
		if sp.Elems == W {
			if n%W != 0 {
				return 0, fmt.Errorf("runtime: array %d length %d is not a multiple of the window length %d", pi, n, W)
			}
			n /= W
		}
		if windows == -1 {
			windows = n
		} else if windows != n {
			return 0, fmt.Errorf("runtime: arrays disagree on window count (%d vs %d)", windows, n)
		}
	}
	return windows, nil
}

// handleAck consumes an acknowledgment for one of our reliable windows.
// Late acks (the window already completed or exhausted its retries, or
// its call returned) and duplicate acks find no registered wait: they are
// counted and ignored, never waking a sender loop or skewing ack_rtt_us.
func (h *Host) handleAck(hd *ncp.Header) {
	k := ackKey{hd.Wid, hd.WindowSeq}
	h.ackMu.Lock()
	w, ok := h.acks[k]
	var sent time.Time
	if ok {
		delete(h.acks, k)
		sent = w.sent
		w.acked = true
		select { // wake the sender loop; a pending token already will
		case w.wake <- struct{}{}:
		default:
		}
	}
	h.ackMu.Unlock()
	if !ok {
		h.met.staleAcks.Inc()
		return
	}
	h.met.ackRtt.Observe(float64(time.Since(sent)) / float64(time.Microsecond))
}

// sendAck emits an acknowledgment for a received reliable window. Called
// only after the window was enqueued for the application (or recognized
// as a duplicate of one that was) — acking a dropped window would lie to
// the sender about delivery.
func (h *Host) sendAck(hd *ncp.Header) {
	target, ok := h.cfg.HostLabels[hd.Sender]
	if !ok {
		return
	}
	ack := ncp.Header{
		Flags:     ncp.FlagAck,
		KernelID:  hd.KernelID,
		WindowSeq: hd.WindowSeq,
		WindowLen: hd.WindowLen,
		Sender:    h.id,
		FromRole:  h.role,
		Wid:       hd.Wid,
		FragCount: 1,
	}
	if pkt, err := ncp.Marshal(&ack, nil, nil); err == nil {
		_ = h.transmit(target, pkt)
	}
}
