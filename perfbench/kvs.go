package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/runtime"
)

// The paper's Fig. 5 cache, with the incoming kernel also reporting the
// update flag so the storage server can tell SETs from GET misses.
const kvsSrc = `
#define SERVER 1
#define CAP 256
#define VAL 16

_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, CAP> Idx;
_net_ _at_("s1") char Cache[CAP][VAL] = {{0}};
_net_ _at_("s1") bool Valid[CAP] = {false};

_net_ _out_ void query(uint64_t key, char *val, bool update) {
    if (window.from != SERVER && update) {            // client SET: invalidate
        if (auto *idx = Idx[key]) Valid[*idx] = false;
    } else if (window.from != SERVER) {               // client GET
        if (auto *idx = Idx[key]) {                   // hit
            if (Valid[*idx]) {
                memcpy(val, Cache[*idx], VAL); _reflect(); } }
    } else if (update) {                              // server update
        auto *idx = Idx[key]; memcpy(Cache[*idx], val, VAL);
        Valid[*idx] = true; _drop();
    } else { }                                        // server reply
}

_net_ _in_ void reply(uint64_t key, char *val, bool update,
                      _ext_ uint64_t *rkey, _ext_ char *rval, _ext_ bool *rset) {
    *rkey = key;
    for (unsigned i = 0; i < window.len; ++i) rval[i] = val[i];
    *rset = update;
}
`

const kvsTopo = `
switch s1 id=1
host client role=0
host server role=1
link client s1
link s1 server
`

const (
	kvsKeys     = 4096
	kvsCache    = 256
	kvsVal      = 16
	kvsZipf     = 0.99
	kvsSetShare = 0.05
	// kvsRequests distinct requests are generated per seed and replayed
	// cyclically; the model tracks SETs across cycles.
	kvsRequests = 1 << 17
	// kvsWarmup requests run before the measured phase.
	kvsWarmup = 512
	// kvsCaptureRequests requests make up the fixtures' first round.
	kvsCaptureRequests = 512
)

type kvsRequest struct {
	key int // index into kvsInputs.keys
	set bool
	val []uint64
}

// kvsInputs is the seed-derived input of the kvs workload: the key
// space, the initial values, and the request stream. Keys are ranked by
// popularity; the kvsCache hottest are the ones the switch caches.
type kvsInputs struct {
	keys    []uint64
	initial [][]uint64
	reqs    []kvsRequest
}

func newKVSInputs(seed int64) *kvsInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &kvsInputs{}
	seen := map[uint64]bool{}
	for len(in.keys) < kvsKeys {
		k := uint64(rng.Int63n(1 << 40))
		if !seen[k] {
			seen[k] = true
			in.keys = append(in.keys, k)
		}
	}
	value := func() []uint64 {
		v := make([]uint64, kvsVal)
		for i := range v {
			v[i] = uint64(rng.Intn(128))
		}
		return v
	}
	for range in.keys {
		in.initial = append(in.initial, value())
	}
	cdf := make([]float64, kvsKeys)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), kvsZipf)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	in.reqs = make([]kvsRequest, kvsRequests)
	for i := range in.reqs {
		r := &in.reqs[i]
		r.key = sort.SearchFloat64s(cdf, rng.Float64())
		if r.key >= kvsKeys {
			r.key = kvsKeys - 1
		}
		if rng.Float64() < kvsSetShare {
			r.set = true
			r.val = value()
		}
	}
	return in
}

var (
	kvsToServer = runtime.Invocation{Kernel: "query", Dest: "server"}
	kvsToClient = runtime.Invocation{Kernel: "query", Dest: "client"}
	kvsZero     = make([]uint64, kvsVal)
	kvsFlagOff  = []uint64{0}
	kvsFlagOn   = []uint64{1}
)

// kvs is one closed-loop client waiting for each reply, and a storage
// server answering misses and SETs. The client checks every reply
// against its own model of the latest value per key.
type kvs struct {
	sys            *system
	in             *kvsInputs
	client, server *runtime.Host

	model  [][]uint64 // client's expected value per key
	next   int        // request cursor
	hits   int
	rkey   []uint64
	rval   []uint64
	rset   []uint64
	keyBuf []uint64
	args   [][]uint64 // OutWindow arguments: key, value, update flag
	ext    [][]uint64 // In's _ext_ buffers: rkey, rval, rset

	serverStop atomic.Bool
	serverWG   sync.WaitGroup
	serverErr  error
}

func newKVS(sys *system, in *kvsInputs) *kvs {
	k := &kvs{sys: sys, in: in, client: sys.hosts["client"], server: sys.hosts["server"],
		rkey: make([]uint64, 1), rval: make([]uint64, kvsVal), rset: make([]uint64, 1), keyBuf: make([]uint64, 1)}
	k.args = [][]uint64{k.keyBuf, nil, nil}
	k.ext = [][]uint64{k.rkey, k.rval, k.rset}
	for _, v := range in.initial {
		k.model = append(k.model, append([]uint64(nil), v...))
	}
	return k
}

// init installs the hot keys (the Idx entry through the control plane,
// the value through the server's data-plane update path), waits until
// every slot is valid and starts the server.
func (k *kvs) init(tr *spanLog) error {
	for slot := 0; slot < kvsCache; slot++ {
		key := k.in.keys[slot]
		if err := mapInsert(tr, k.sys, "Idx", key, uint64(slot)); err != nil {
			return err
		}
		if err := k.server.OutWindow(kvsToClient, k.server.NewWid(), 0,
			[][]uint64{{key}, k.in.initial[slot], kvsFlagOn}); err != nil {
			return fmt.Errorf("install key %d: %w", slot, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for slot := 0; slot < kvsCache; {
		v, err := readRegister(tr, k.sys, "Valid", slot)
		if err != nil {
			return err
		}
		if v == 1 {
			slot++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cache slot %d never became valid", slot)
		}
		time.Sleep(100 * time.Microsecond)
	}
	k.startServer()
	return nil
}

// warmup runs kvsWarmup requests.
func (k *kvs) warmup(tr *spanLog) error {
	for i := 0; i < kvsWarmup; i++ {
		if r := k.step([]*spanLog{tr}); r.err != nil {
			return fmt.Errorf("warm-up request: %w", r.err)
		}
	}
	k.hits = 0
	return nil
}

// startServer runs the storage server on its own goroutine: it stores
// SETs, re-installs a SET key's value through the update path when the
// key is cached, and replies to the client.
func (k *kvs) startServer() {
	store := make([][]uint64, len(k.in.initial))
	for i, v := range k.in.initial {
		store[i] = append([]uint64(nil), v...)
	}
	index := make(map[uint64]int, len(k.in.keys))
	for i, key := range k.in.keys {
		index[key] = i
	}
	k.serverWG.Add(1)
	go func() {
		defer k.serverWG.Done()
		rkey, rval, rset := make([]uint64, 1), make([]uint64, kvsVal), make([]uint64, 1)
		ext := [][]uint64{rkey, rval, rset}
		for !k.serverStop.Load() {
			_, err := k.server.In("reply", ext, 20*time.Millisecond)
			if errors.Is(err, runtime.ErrTimeout) {
				continue
			}
			if err != nil {
				if !errors.Is(err, runtime.ErrClosed) {
					k.serverErr = err
				}
				return
			}
			i, ok := index[rkey[0]]
			if !ok {
				k.serverErr = fmt.Errorf("server: request for unknown key %d", rkey[0])
				return
			}
			if rset[0] != 0 {
				copy(store[i], rval)
				if i < kvsCache {
					err = k.server.OutWindow(kvsToClient, k.server.NewWid(), 0, [][]uint64{rkey, store[i], kvsFlagOn})
					if err != nil {
						k.serverErr = err
						return
					}
				}
			}
			err = k.server.OutWindow(kvsToClient, k.server.NewWid(), 0, [][]uint64{rkey, store[i], kvsFlagOff})
			if err != nil {
				k.serverErr = err
				return
			}
		}
	}()
}

// step issues one request and checks its reply.
func (k *kvs) step(logs []*spanLog) stepResult {
	var tr *spanLog
	if len(logs) > 0 {
		tr = logs[0]
	}
	req := &k.in.reqs[k.next%len(k.in.reqs)]
	k.next++
	key := k.in.keys[req.key]
	val, flag := kvsZero, kvsFlagOff
	if req.set {
		val, flag = req.val, kvsFlagOn
		copy(k.model[req.key], req.val)
	}
	k.keyBuf[0] = key
	k.args[1], k.args[2] = val, flag
	tr.begin("request")
	defer tr.end()
	tr.begin("runtime.OutWindow")
	err := k.client.OutWindow(kvsToServer, k.client.NewWid(), 0, k.args)
	tr.end()
	if err != nil {
		return stepResult{ops: 1, failed: 1, err: fmt.Errorf("client OutWindow: %w", err)}
	}
	tr.begin("runtime.In")
	rw, err := k.client.In("reply", k.ext, inTimeout)
	tr.end()
	if err != nil {
		return stepResult{ops: 1, failed: 1, err: fmt.Errorf("client In: %w", err)}
	}
	if k.rkey[0] != key || !equalVals(k.rval, k.model[req.key]) {
		return stepResult{ops: 1, failed: 1, err: fmt.Errorf("key %d: reply key %d value %v, want %v", key, k.rkey[0], k.rval, k.model[req.key])}
	}
	if rw.Header.Flags&ncp.FlagReflected != 0 {
		k.hits++
	}
	return stepResult{ops: 1}
}

func equalVals(a, b []uint64) bool {
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish stops the server and reports whether it failed.
func (k *kvs) finish(tr *spanLog) (int, error) {
	k.close()
	if k.serverErr != nil {
		return 1, k.serverErr
	}
	return 0, nil
}

func (k *kvs) close() {
	k.serverStop.Store(true)
	k.serverWG.Wait()
}

// Fixture shapes: the client's first kvsCaptureRequests requests, and the
// replies it receives.

func (k *kvs) probeHost() string { return "client" }

func (k *kvs) sendOnce(h *runtime.Host) (int, error) {
	key := make([]uint64, 1)
	for i := 0; i < kvsCaptureRequests; i++ {
		req := &k.in.reqs[i]
		key[0] = k.in.keys[req.key]
		val, flag := kvsZero, kvsFlagOff
		if req.set {
			val, flag = req.val, kvsFlagOn
		}
		if err := h.OutWindow(kvsToServer, h.NewWid(), 0, [][]uint64{key, val, flag}); err != nil {
			return i, err
		}
	}
	return kvsCaptureRequests, nil
}

func (k *kvs) consume(h *runtime.Host) error {
	_, err := h.In("reply", k.ext, inTimeout)
	return err
}
