package pisa

import (
	"sync"
	"testing"

	"ncl/internal/ncl/interp"
)

// ticketProgram is a kernel whose final state exposes any interleaving
// between its stages. Stage 0 hands out a ticket (out = A, A += 1); the
// B stage records it (B = ticket) and checks that the previous recorded
// ticket was ticket-1, OR-ing any gap into the sticky register E. In
// every serial order, B == A-1 and E == 0 at the end. The VLIW stages in
// between only widen the gap another window could slip into.
func ticketProgram() *Program {
	const (
		fData   FieldRef = 1
		fTicket FieldRef = 2
		fGap    FieldRef = 3
	)
	fields := []Field{
		{Name: FieldFwd, Bits: 8},
		{Name: "d_x_0", Bits: 32},
		{Name: "s_ticket", Bits: 64},
		{Name: "s_gap", Bits: 64},
	}
	busy := &Stage{VLIW: []ActionOp{{Op: "add", Dst: fData, A: FieldOperand(fData), B: ConstOperand(1)}}}
	k := &Kernel{
		Name:      "ticket",
		ID:        1,
		WindowLen: 1,
		Fields:    fields,
		Params:    []ParamLayout{{Name: "x", Elems: 1, Bits: 32, Fields: []FieldRef{fData}}},
		WinMeta:   map[string]FieldRef{},
		Passes: [][]*Stage{{
			{SALUs: []*SALU{{
				Global: "A",
				Index:  ConstOperand(0),
				Prog: []MicroOp{
					{Op: "mov", Dst: MOut, A: SlotOperand(MReg)},
					{Op: "add", Dst: MReg, A: SlotOperand(MReg), B: ImmOperand(1)},
				},
				Out: fTicket,
			}}},
			busy, busy, busy, busy,
			{SALUs: []*SALU{{
				Global: "B",
				Index:  ConstOperand(0),
				Prog: []MicroOp{
					{Op: "add", Dst: MTmp0, A: SlotOperand(MReg), B: ImmOperand(1)},
					{Op: "xor", Dst: MOut, A: SlotOperand(MTmp0), B: PhvOperand(fTicket)},
					{Op: "mov", Dst: MReg, A: PhvOperand(fTicket)},
				},
				Out: fGap,
			}}},
			{SALUs: []*SALU{{
				Global: "E",
				Index:  ConstOperand(0),
				Prog:   []MicroOp{{Op: "or", Dst: MReg, A: SlotOperand(MReg), B: PhvOperand(fGap)}},
				Out:    NoField,
			}}},
		}},
	}
	return &Program{
		Name: "ticket",
		Registers: []RegisterDef{
			{Name: "A", Elems: 1, Bits: 64, Stage: 0},
			// B starts at -1: the ticket before the first one.
			{Name: "B", Elems: 1, Bits: 64, Stage: 5, Init: []uint64{^uint64(0)}},
			{Name: "E", Elems: 1, Bits: 64, Stage: 6},
		},
		Kernels: []*Kernel{k},
	}
}

// TestConcurrentWindowsSerializable is the serializability check for
// concurrent windows of one kernel: windows run from several goroutines
// through ExecWindow and through ExecWindowBatch (batches of one and of
// several) must leave the ticket kernel's state as some serial order
// would. A window that let another window of its kernel in between its
// stages would record tickets out of order.
func TestConcurrentWindowsSerializable(t *testing.T) {
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(ticketProgram()); err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 4
		rounds     = 500
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			win := &interp.Window{Data: [][]uint64{{0}}, Meta: map[string]uint64{}}
			jobs := make([]BatchJob, 1+g%3)
			for i := 0; i < rounds; i++ {
				if _, err := sw.ExecWindow(1, win); err != nil {
					t.Error(err)
					return
				}
				for k := range jobs {
					jobs[k] = BatchJob{Data: [][]uint64{{0}}}
				}
				if err := sw.ExecWindowBatch(1, jobs, 0); err != nil {
					t.Error(err)
					return
				}
				for k := range jobs {
					if jobs[k].Err != nil {
						t.Error(jobs[k].Err)
						return
					}
				}
				n += 1 + len(jobs)
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	read := func(name string) uint64 {
		v, err := sw.ReadRegister(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b, e := read("A"), read("B"), read("E")
	if a != uint64(total) {
		t.Fatalf("A = %d, want one ticket per window (%d)", a, total)
	}
	if b != a-1 {
		t.Errorf("B = %d, A = %d: want B == A-1", b, a)
	}
	if e != 0 {
		t.Errorf("E = %#x: tickets reached the B stage out of order, so windows interleaved between stages", e)
	}
}
