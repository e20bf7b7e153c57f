package netsim

import (
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/pisa"
)

// passProgram is a minimal loadable program: kernel 1 increments its one
// window element and passes.
func passProgram() *pisa.Program {
	k := &pisa.Kernel{
		Name: "inc", ID: 1, WindowLen: 1,
		Fields: []pisa.Field{
			{Name: pisa.FieldFwd, Bits: 8},
			{Name: pisa.FieldFwdLabel, Bits: 16},
			{Name: "d_x_0", Bits: 32, Signed: true},
			{Name: "m0", Bits: 32, Signed: true},
		},
		Params:  []pisa.ParamLayout{{Name: "x", Elems: 1, Bits: 32, Signed: true, Fields: []pisa.FieldRef{2}}},
		WinMeta: map[string]pisa.FieldRef{},
		Passes: [][]*pisa.Stage{{
			{VLIW: []pisa.ActionOp{{Op: "add", Dst: 3, A: pisa.FieldOperand(2), B: pisa.ConstOperand(1)}}},
			{VLIW: []pisa.ActionOp{{Op: "mov", Dst: 2, A: pisa.FieldOperand(3)}}},
		}},
	}
	return &pisa.Program{Name: "p", Kernels: []*pisa.Kernel{k}}
}

func chainFabric(t *testing.T) (*Fabric, *SwitchNode, *echoNode, *echoNode) {
	t.Helper()
	net, err := and.Parse("switch s1 id=1\nhost a role=0\nhost b role=1\nlink a s1\nlink s1 b")
	if err != nil {
		t.Fatal(err)
	}
	fab := New(net, Faults{})
	sn := NewSwitchNode("s1", pisa.DefaultTarget())
	if err := sn.Install(passProgram(), 1); err != nil {
		t.Fatal(err)
	}
	sn.SetRoutes(net.NextHops()["s1"])
	sn.SetHosts(map[uint32]string{1: "a", 2: "b"})
	a := &echoNode{label: "a"}
	b := &echoNode{label: "b"}
	for _, n := range []Node{sn, a, b} {
		if err := fab.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := fab.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Stop)
	return fab, sn, a, b
}

func ncpPacket(t *testing.T, kid uint32, val uint64, flags uint8) []byte {
	t.Helper()
	payload, err := ncp.EncodePayload([][]uint64{{val}}, []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := ncp.Marshal(&ncp.Header{KernelID: kid, WindowLen: 1, Sender: 1, FragCount: 1, Flags: flags}, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func TestSwitchNodeExecutesAndForwards(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	pkt := ncpPacket(t, 1, 41, 0)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	if sn.KernelWindows.Load() != 1 {
		t.Errorf("kernel windows = %d", sn.KernelWindows.Load())
	}
	h, _, _, payload, err := ncp.DecodeFull(b.got[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ncp.DecodePayload(payload, []ncp.ParamSpec{{Elems: 1, Bytes: 4, Signed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if data[0][0] != 42 {
		t.Errorf("kernel increment lost: %d", data[0][0])
	}
	if h.KernelID != 1 {
		t.Errorf("kernel id changed: %d", h.KernelID)
	}
}

func TestSwitchNodeUnknownKernelForwards(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	pkt := ncpPacket(t, 99, 7, 0)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	if sn.KernelWindows.Load() != 0 || sn.ForwardedRaw.Load() != 1 {
		t.Errorf("unknown kernel must forward untouched: exec=%d fwd=%d",
			sn.KernelWindows.Load(), sn.ForwardedRaw.Load())
	}
}

func TestSwitchNodeAckBypasses(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	ack, err := ncp.Marshal(&ncp.Header{KernelID: 1, FragCount: 1, Flags: ncp.FlagAck}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: ack}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	if sn.KernelWindows.Load() != 0 {
		t.Error("acks must not execute kernels")
	}
}

func TestSwitchNodeCorruptNCPDropped(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	pkt := ncpPacket(t, 1, 41, 0)
	pkt[8] ^= 0xFF // corrupt the header; checksum now fails
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if b.count() != 0 {
		t.Error("corrupt NCP packet must be dropped")
	}
	if sn.Errors.Load() != 1 {
		t.Errorf("errors = %d, want 1", sn.Errors.Load())
	}
}

func TestSwitchNodeNoRouteError(t *testing.T) {
	fab, sn, _, _ := chainFabric(t)
	sn.SetRoutes(map[string]string{}) // wipe routing
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: []byte("raw")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for sn.Errors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sn.Errors.Load() != 1 {
		t.Errorf("missing route must count an error, got %d", sn.Errors.Load())
	}
}

func TestSwitchNodeDstIsSwitchError(t *testing.T) {
	fab, sn, _, _ := chainFabric(t)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "s1", Data: []byte("raw")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for sn.Errors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sn.Errors.Load() != 1 {
		t.Errorf("switch-addressed packet must count an error, got %d", sn.Errors.Load())
	}
}

func TestSwitchNodeFragmentPassThrough(t *testing.T) {
	fab, sn, _, b := chainFabric(t)
	pkt, err := ncp.Marshal(&ncp.Header{KernelID: 1, WindowLen: 1, FragIdx: 0, FragCount: 2}, nil, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	if sn.KernelWindows.Load() != 0 {
		t.Error("fragments must pass through without kernel execution")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	fab, _, _, b := chainFabric(t)
	pkt := ncpPacket(t, 1, 1, 0)
	if err := fab.Send("a", "s1", &Packet{Src: "a", Dst: "b", Data: pkt}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, b, 1)
	// Two 1 µs hops + serialization + 1 µs switch delay.
	if mk := fab.MakespanUs(); mk < 3 {
		t.Errorf("makespan = %f µs, want ≥ 3", mk)
	}
	fab.ResetStats()
	if fab.MakespanUs() != 0 {
		t.Error("reset must clear the virtual clock")
	}
}
