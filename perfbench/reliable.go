package main

import (
	"fmt"
	"time"

	"ncl/internal/runtime"
)

// The reliable workload runs the allreduce kernel pair as a closed loop
// of one-window OutReliable invocations over a lossy fabric, one in
// flight, the workers taking turns. An op is one invocation. Every
// window requests an ack and, because the kernel mutates switch
// registers, is sent exactly-once. With 1% loss per link about one
// invocation in 50 loses its window or its ack and completes on a
// retransmit, which the switch's shadow state suppresses as a duplicate
// when only the ack was lost; p50 and p90 therefore measure the ack
// path, and the retransmit timer shows in the printed windows_per_s.
//
// Ops are kept short on purpose. A long op (a whole allreduce round)
// spans many of the hypervisor's scheduling slices, so its latency, and
// the run's throughput, follow how much CPU the shared host steals; the
// median and p90 of many short ops do not.

// relWindows is the windows per invocation.
const relWindows = 1

const (
	relElems = relWindows * arW
	// relWarmup invocations run before the measured phase.
	relWarmup = 256
	// relCaptureOps invocations make up the fixtures' first round: every
	// worker's share of 64 invocations.
	relCaptureOps = 64
)

var (
	relOpts = runtime.ReliableOptions{Timeout: 10 * time.Millisecond, Window: 32}
	// relDropProb is the loss on every link, in both directions.
	relDropProb = 0.01
)

type reliable struct {
	sys     *system
	in      *arInputs
	workers [arWorkers]*runtime.Host

	expected [relElems]int32 // cumulative sums over every invocation sent
	next     int             // invocation cursor
}

func newReliable(sys *system, in *arInputs) *reliable {
	r := &reliable{sys: sys, in: in}
	for w := range r.workers {
		r.workers[w] = sys.hosts[fmt.Sprintf("worker%d", w)]
	}
	return r
}

func (r *reliable) init(tr *spanLog) error {
	return ctrlWrite(tr, r.sys, "nworkers", 0, arWorkers)
}

func (r *reliable) warmup(tr *spanLog) error {
	for i := 0; i < relWarmup; i++ {
		if s := r.step([]*spanLog{tr}); s.err != nil || s.failed > 0 {
			return fmt.Errorf("warm-up invocation: %d failed windows, %v", s.failed, s.err)
		}
	}
	return nil
}

// chunk is invocation i's data: consecutive slices of the seed's
// gradients, cycling through workers, chunks and input rounds.
func (r *reliable) chunk(i int) (worker int, data []uint64) {
	const chunks = arElems / relElems
	worker = i % arWorkers
	c := (i / arWorkers) % chunks
	g := (i / (arWorkers * chunks)) % arInputRounds
	return worker, r.in.grads[g][worker][c*relElems : (c+1)*relElems]
}

// step sends one invocation and drains the result broadcasts that have
// arrived at any worker. Broadcasts ride the lossy fabric unacknowledged,
// so they are not waited for; exactness is checked on the switch
// registers at the end of the run.
func (r *reliable) step(logs []*spanLog) stepResult {
	var tr *spanLog
	if len(logs) > 0 {
		tr = logs[0]
	}
	w, data := r.chunk(r.next)
	r.next++
	for i, v := range data {
		r.expected[i] += int32(v)
	}
	tr.begin("invocation")
	defer tr.end()
	tr.begin("runtime.OutReliable")
	err := r.workers[w].OutReliable(arInv, [][]uint64{data}, relOpts)
	tr.end()
	if err != nil {
		return stepResult{ops: relWindows, failed: relWindows, err: fmt.Errorf("worker%d OutReliable: %w", w, err)}
	}
	for i, h := range r.workers {
		for h.Pending() > 0 {
			tr.begin("runtime.Recv")
			_, err := h.Recv(0)
			tr.end()
			if err != nil {
				return stepResult{ops: relWindows, err: fmt.Errorf("worker%d Recv: %w", i, err)}
			}
		}
	}
	return stepResult{ops: relWindows}
}

// finish reads back every accum register an invocation touched and
// requires it bit-exact against the cumulative sums; it returns the
// number of window slots that differ.
func (r *reliable) finish(tr *spanLog) (int, error) {
	failed := 0
	for seq := 0; seq < relWindows; seq++ {
		for lane := 0; lane < arW; lane++ {
			// Codegen shards accum per window lane: accum[seq*W+lane]
			// lives in accum$<lane>[seq].
			v, err := readRegister(tr, r.sys, fmt.Sprintf("accum$%d", lane), seq)
			if err != nil {
				return failed, err
			}
			if int32(uint32(v)) != r.expected[seq*arW+lane] {
				failed++
				break
			}
		}
	}
	if failed > 0 {
		return failed, fmt.Errorf("%d accum slots differ from the cumulative sums", failed)
	}
	return 0, nil
}

func (r *reliable) close() {}

// Fixture shapes: worker0's invocations in the first round, and the
// result broadcasts it receives.

func (r *reliable) probeHost() string { return "worker0" }

func (r *reliable) sendOnce(h *runtime.Host) (int, error) {
	n := 0
	for i := 0; i < relCaptureOps; i += arWorkers {
		_, data := r.chunk(i)
		if err := h.OutReliable(arInv, [][]uint64{data}, relOpts); err != nil {
			return n, err
		}
		n += relWindows
	}
	return n, nil
}

func (r *reliable) consume(h *runtime.Host) error {
	_, err := h.Recv(inTimeout)
	return err
}
