package main

import (
	"fmt"
	"math/rand"
	"sync"

	"ncl/internal/runtime"
)

// The paper's Fig. 4 kernel pair: workers' windows are summed into switch
// registers; the last contribution to a slot broadcasts the sums back.
const allreduceSrc = `
#define DATA_LEN 4096

_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
    unsigned base = window.seq * window.len;
    for (unsigned i = 0; i < window.len; ++i)
        accum[base + i] += data[i];
    if (++count[window.seq] == nworkers) {
        memcpy(data, &accum[base], window.len * 4);
        count[window.seq] = 0; _bcast();
    } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    *done = true;
}
`

const (
	arWorkers = 4
	arElems   = 4096
	arW       = 8
	arWindows = arElems / arW // windows per worker per round
	arDrivers = 2
	// arInputRounds distinct gradient sets are generated per seed and
	// reused cyclically, so input generation stays out of the timed loop.
	arInputRounds = 8
)

var arTopo = fmt.Sprintf("switch s1 id=1\nhost worker count=%d role=0\nlink worker s1\n", arWorkers)

// arInputs is the seed-derived input of allreduce and reliable.
type arInputs struct {
	grads    [arInputRounds][arWorkers][]uint64
	roundSum [arInputRounds][arElems]int32
}

func newARInputs(seed int64) *arInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &arInputs{}
	for r := range in.grads {
		for w := range in.grads[r] {
			g := make([]uint64, arElems)
			for i := range g {
				v := int32(rng.Intn(2001) - 1000)
				g[i] = uint64(int64(v))
				in.roundSum[r][i] += v
			}
			in.grads[r][w] = g
		}
	}
	return in
}

// allreduce runs closed-loop rounds: each of arDrivers goroutines sends
// the round's gradients for its workers, then collects and checks every
// result window those workers receive.
type allreduce struct {
	sys *system
	in  *arInputs

	workers  [arWorkers]*runtime.Host
	hdata    [arWorkers][]uint64
	done     [arWorkers][]uint64
	expected [arElems]int32 // cumulative sums over every round sent
	rounds   int
}

func newAllreduce(sys *system, in *arInputs) *allreduce {
	a := &allreduce{sys: sys, in: in}
	for w := range a.workers {
		a.workers[w] = sys.hosts[fmt.Sprintf("worker%d", w)]
		a.hdata[w] = make([]uint64, arElems)
		a.done[w] = make([]uint64, 1)
	}
	return a
}

var arInv = runtime.Invocation{Kernel: "allreduce", Dest: "s1"}

func (a *allreduce) init(tr *spanLog) error {
	return ctrlWrite(tr, a.sys, "nworkers", 0, arWorkers)
}

func (a *allreduce) warmup(tr *spanLog) error {
	r := a.step([]*spanLog{tr})
	if r.err != nil || r.failed > 0 {
		return fmt.Errorf("warm-up round: %d failed windows, %v", r.failed, r.err)
	}
	return nil
}

// step runs one round; ops are the windows the workers sent.
func (a *allreduce) step(logs []*spanLog) stepResult {
	g := a.rounds % arInputRounds
	a.rounds++
	for i := range a.expected {
		a.expected[i] += a.in.roundSum[g][i]
	}
	var (
		wg      sync.WaitGroup
		results [arDrivers]stepResult
	)
	for d := 0; d < arDrivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var tr *spanLog
			if d < len(logs) {
				tr = logs[d]
			}
			results[d] = a.drive(d, g, tr)
		}(d)
	}
	wg.Wait()
	r := stepResult{ops: arWorkers * arWindows}
	for _, dr := range results {
		r.failed += dr.failed
		if r.err == nil {
			r.err = dr.err
		}
	}
	return r
}

// drive is one driver goroutine's share of a round.
func (a *allreduce) drive(d, g int, tr *spanLog) (r stepResult) {
	tr.begin("round")
	defer tr.end()
	const per = arWorkers / arDrivers
	mine := a.workers[d*per : (d+1)*per]
	first := d * per
	for i, h := range mine {
		w := first + i
		data := [][]uint64{a.in.grads[g][w]}
		tr.begin("runtime.Out")
		err := h.Out(arInv, data)
		tr.end()
		if err != nil {
			return stepResult{failed: arWindows * len(mine), err: fmt.Errorf("worker%d Out: %w", w, err)}
		}
	}
	for i := range mine {
		if n := a.collect(first+i, tr); n > 0 {
			r.failed += n
			r.err = fmt.Errorf("worker%d: %d wrong or missing result windows", first+i, n)
		}
	}
	return r
}

// collect receives one worker's result windows for the round and checks
// every element against the cumulative expected sums. It returns the
// number of windows that were missing, repeated or wrong.
func (a *allreduce) collect(w int, tr *spanLog) int {
	h := a.workers[w]
	ext := [][]uint64{a.hdata[w], a.done[w]}
	var seen [arWindows]bool
	failed := 0
	for n := 0; n < arWindows; n++ {
		tr.begin("runtime.In")
		rw, err := h.In("result", ext, inTimeout)
		tr.end()
		if err != nil {
			return failed + arWindows - n
		}
		seq := int(rw.Header.WindowSeq)
		if seq >= arWindows || seen[seq] {
			failed++
			continue
		}
		seen[seq] = true
	}
	for seq, ok := range seen {
		if !ok {
			failed++
			continue
		}
		for i := seq * arW; i < (seq+1)*arW; i++ {
			if int32(uint32(a.hdata[w][i])) != a.expected[i] {
				failed++
				break
			}
		}
	}
	return failed
}

// finish reads every accum register back through the control plane and
// requires it bit-exact against the cumulative sums; it returns the
// number of window slots that differ.
func (a *allreduce) finish(tr *spanLog) (int, error) {
	failed := 0
	for seq := 0; seq < arWindows; seq++ {
		for lane := 0; lane < arW; lane++ {
			// Codegen shards accum per window lane: accum[seq*W+lane]
			// lives in accum$<lane>[seq].
			v, err := readRegister(tr, a.sys, fmt.Sprintf("accum$%d", lane), seq)
			if err != nil {
				return failed, err
			}
			if int32(uint32(v)) != a.expected[seq*arW+lane] {
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

func (a *allreduce) close() {}

// Fixture shapes: worker0's first-round send, and its result windows.

func (a *allreduce) probeHost() string { return "worker0" }

func (a *allreduce) sendOnce(h *runtime.Host) (int, error) {
	return arWindows, h.Out(arInv, [][]uint64{a.in.grads[0][0]})
}

func (a *allreduce) consume(h *runtime.Host) error {
	_, err := h.In("result", [][]uint64{a.hdata[0], a.done[0]}, inTimeout)
	return err
}
