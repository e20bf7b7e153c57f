package pisa

import (
	"sync"
	"testing"

	"ncl/internal/ncl/interp"
)

// statelessProgram builds a register-free kernel (id 1): an 8-element
// window parameter doubled by one VLIW stage, with a constant Pass
// decision. This is the steady-state data-plane shape the allocation
// budget is asserted against.
func statelessProgram() *Program {
	const w = 8
	var fields []Field
	var dataRefs []FieldRef
	for i := 0; i < w; i++ {
		fields = append(fields, Field{Name: "d" + string(rune('0'+i)), Bits: 32, Signed: true})
		dataRefs = append(dataRefs, FieldRef(i))
	}
	fFwd := FieldRef(len(fields))
	fields = append(fields, Field{Name: FieldFwd, Bits: 8})
	fSeq := FieldRef(len(fields))
	fields = append(fields, Field{Name: "m_seq", Bits: 32})

	st := &Stage{}
	for _, f := range dataRefs {
		st.VLIW = append(st.VLIW, ActionOp{Op: "add", Dst: f, A: FieldOperand(f), B: FieldOperand(f)})
	}
	st.VLIW = append(st.VLIW, ActionOp{Op: "mov", Dst: fFwd, A: ConstOperand(0)})

	k := &Kernel{
		Name:      "double",
		ID:        1,
		WindowLen: w,
		Fields:    fields,
		Params: []ParamLayout{{
			Name: "x", Elems: w, Bits: 32, Signed: true, Fields: dataRefs,
		}},
		WinMeta: map[string]FieldRef{"seq": fSeq},
		Passes:  [][]*Stage{{st}},
	}
	return &Program{Name: "stateless", Kernels: []*Kernel{k}}
}

// execOne runs one window through the data-plane entry as a batch of
// one.
func execOne(sw *Switch, kernelID uint32, data [][]uint64, meta WindowMeta, loc uint32) (interp.Decision, error) {
	jobs := []BatchJob{{Data: data, Meta: meta}}
	if err := sw.ExecWindowBatch(kernelID, jobs, loc); err != nil {
		return interp.Decision{}, err
	}
	return jobs[0].Dec, jobs[0].Err
}

// execAllocs measures ExecWindowBatch allocations per window for a reused
// batch of one.
func execAllocs(t *testing.T, sw *Switch, data [][]uint64, loc uint32) float64 {
	t.Helper()
	jobs := make([]BatchJob, 1)
	run := func() {
		jobs[0] = BatchJob{Data: data, Meta: WindowMeta{Seq: 1}}
		if err := sw.ExecWindowBatch(1, jobs, loc); err != nil {
			t.Fatal(err)
		}
		if jobs[0].Err != nil {
			t.Fatal(jobs[0].Err)
		}
	}
	// Warm the scratch pool.
	for i := 0; i < 8; i++ {
		run()
	}
	return testing.AllocsPerRun(500, run)
}

// TestSwitchExecAllocsFlat asserts the allocation budget: the stateless
// data-plane path (a batch of one) performs at most 2 allocations per
// window at steady state (pooled scratch should make it 0).
func TestSwitchExecAllocsFlat(t *testing.T) {
	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(statelessProgram()); err != nil {
		t.Fatal(err)
	}
	if avg := execAllocs(t, sw, [][]uint64{make([]uint64, 8)}, 7); avg > 2 {
		t.Fatalf("stateless ExecWindowBatch allocates %.2f/window, budget is 2", avg)
	}
}

// TestSwitchExecAllocsFlatStateful covers the SALU path: the stack-based
// micro-op slot file must not fall back to per-window maps.
func TestSwitchExecAllocsFlatStateful(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	if avg := execAllocs(t, sw, [][]uint64{{5}}, 0); avg > 2 {
		t.Fatalf("stateful ExecWindowBatch allocates %.2f/window, budget is 2", avg)
	}
}

// wireOrderProgram reads only user field "b" out of a two-field module
// wire order ["a", "b"]: the regression the Program.UserFields table
// exists for. Binding by per-kernel union would misread slot 0.
func wireOrderProgram(withUserFields bool) *Program {
	fields := []Field{
		{Name: "d0", Bits: 32},
		{Name: FieldFwd, Bits: 8},
		{Name: "m_b", Bits: 32},
	}
	st := &Stage{VLIW: []ActionOp{
		{Op: "mov", Dst: 0, A: FieldOperand(2)},
		{Op: "mov", Dst: 1, A: ConstOperand(0)},
	}}
	k := &Kernel{
		Name:      "pickb",
		ID:        1,
		WindowLen: 1,
		Fields:    fields,
		Params:    []ParamLayout{{Name: "x", Elems: 1, Bits: 32, Fields: []FieldRef{0}}},
		WinMeta:   map[string]FieldRef{"b": 2},
		Passes:    [][]*Stage{{st}},
	}
	p := &Program{Name: "wire", Kernels: []*Kernel{k}}
	if withUserFields {
		p.UserFields = []string{"a", "b"}
	}
	return p
}

// TestUserFieldWireOrder asserts that a kernel reading a subset of the
// module's _win_ fields still binds packet user values by module wire
// order when Program.UserFields is set, and falls back to the per-program
// union for hand-built programs without it.
func TestUserFieldWireOrder(t *testing.T) {
	user := []uint64{10, 20} // wire order ["a", "b"]

	sw := NewSwitch(DefaultTarget())
	if err := sw.Load(wireOrderProgram(true)); err != nil {
		t.Fatal(err)
	}
	data := [][]uint64{{0}}
	if _, err := execOne(sw, 1, data, WindowMeta{User: user}, 0); err != nil {
		t.Fatal(err)
	}
	if data[0][0] != 20 {
		t.Fatalf("with UserFields: kernel read %d for field b, want 20 (slot misbound)", data[0][0])
	}

	// Without UserFields the fallback wire order is the kernel union
	// ["b"], so slot 0 is b.
	sw2 := NewSwitch(DefaultTarget())
	if err := sw2.Load(wireOrderProgram(false)); err != nil {
		t.Fatal(err)
	}
	data2 := [][]uint64{{0}}
	if _, err := execOne(sw2, 1, data2, WindowMeta{User: []uint64{20}}, 0); err != nil {
		t.Fatal(err)
	}
	if data2[0][0] != 20 {
		t.Fatalf("union fallback: kernel read %d for field b, want 20", data2[0][0])
	}
}

// TestSwitchConcurrentControlPlane stress-tests the state locking under
// -race: windows execute concurrently — through ExecWindow and through
// ExecWindowBatch with batches of one and of several — with register
// writes/reads, table churn, and full program reloads. Correctness here
// is the absence of data races and panics; semantic equivalence is
// covered by the differential property tests.
func TestSwitchConcurrentControlPlane(t *testing.T) {
	prog := handProgram()
	prog.Tables = []string{"t"}
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(prog); err != nil {
		t.Fatal(err)
	}

	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			win := &interp.Window{Data: [][]uint64{{uint64(g)}}, Meta: map[string]uint64{"seq": 0}}
			jobs := make([]BatchJob, 1+g%3)
			for k := range jobs {
				jobs[k].Data = [][]uint64{{uint64(g)}}
			}
			for i := 0; i < iters; i++ {
				win.Meta["seq"] = uint64(i)
				if _, err := sw.ExecWindow(1, win); err != nil {
					t.Error(err)
					return
				}
				for k := range jobs {
					jobs[k].Meta = WindowMeta{Seq: uint64(i)}
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
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := sw.WriteRegister("total", i%4, uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := sw.ReadRegister("total", i%4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := sw.InstallEntry("t", uint64(i%8), uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := sw.DeleteEntry("t", uint64(i%8)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			p := handProgram()
			p.Tables = []string{"t"}
			if err := sw.Load(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The device stays operational after the churn.
	if _, err := sw.ReadRegister("total", 0); err != nil {
		t.Fatalf("post-stress read: %v", err)
	}
}

// TestLoadResetsState: each Load compiles a fresh plan with fresh
// register and table state, like reprogramming a device.
func TestLoadResetsState(t *testing.T) {
	sw := NewSwitch(tinyTarget())
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteRegister("total", 0, 99); err != nil {
		t.Fatal(err)
	}
	if err := sw.Load(handProgram()); err != nil {
		t.Fatal(err)
	}
	v, err := sw.ReadRegister("total", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("register survived reload: total[0] = %d, want 0", v)
	}
}
