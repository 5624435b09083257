package machine

import (
	"testing"

	"repro/internal/codelet"
)

func TestVirtualOpteronGeometryMatchesPaper(t *testing.T) {
	m := VirtualOpteron224()
	if got := m.L1.SizeBytes(); got != 64*1024 {
		t.Errorf("L1 size %d, want 64 KB", got)
	}
	if m.L1.Ways != 2 {
		t.Errorf("L1 ways %d, want 2 (the Opteron 224's L1 is 2-way)", m.L1.Ways)
	}
	if got := m.L2.SizeBytes(); got != 1024*1024 {
		t.Errorf("L2 size %d, want 1 MB", got)
	}
	if m.L2.Ways != 16 {
		t.Errorf("L2 ways %d, want 16", m.L2.Ways)
	}
	if m.ClockHz != 1.8e9 {
		t.Errorf("clock %g, want 1.8 GHz", m.ClockHz)
	}
	// The element size makes the paper's cache boundaries exact:
	// 2^14 elements fill L1 and 2^18 elements fill L2.
	if (1<<14)*m.ElemSize != m.L1.SizeBytes() {
		t.Error("2^14 elements should exactly fill L1")
	}
	if (1<<18)*m.ElemSize != m.L2.SizeBytes() {
		t.Error("2^18 elements should exactly fill L2")
	}
}

func TestNewHierarchyLevels(t *testing.T) {
	m := VirtualOpteron224()
	h := m.NewHierarchy()
	if h.L1 == nil || h.L2 == nil || h.TLB1 == nil || h.TLB2 == nil {
		t.Fatal("all four levels expected")
	}
	// Optional levels drop out when unset.
	m2 := *m
	m2.L2.Sets = 0
	m2.TLB1.Sets = 0
	m2.TLB2.Sets = 0
	h2 := m2.NewHierarchy()
	if h2.L2 != nil || h2.TLB1 != nil || h2.TLB2 != nil {
		t.Fatal("unset levels must be nil")
	}
}

func TestShifts(t *testing.T) {
	m := VirtualOpteron224()
	if m.LineShift() != 6 {
		t.Errorf("line shift %d, want 6 (64-byte lines)", m.LineShift())
	}
	if m.PageShift() != 12 {
		t.Errorf("page shift %d, want 12 (4 KB pages)", m.PageShift())
	}
}

func TestOpCountsArithmetic(t *testing.T) {
	a := OpCounts{Arith: 1, Load: 2, Store: 3, Addr: 4, Loop: 5, Call: 6, SpillLd: 7, SpillSt: 8}
	if a.Total() != 36 {
		t.Fatalf("total %d", a.Total())
	}
	b := a.Scale(3)
	if b.Total() != 108 || b.Arith != 3 || b.SpillSt != 24 {
		t.Fatalf("scale: %+v", b)
	}
	var c OpCounts
	c.Add(a)
	c.Add(a)
	if c != a.Scale(2) {
		t.Fatalf("add: %+v", c)
	}
}

func TestSIMDLanes(t *testing.T) {
	if SIMDLanes(8) != 4 || SIMDLanes(4) != 8 {
		t.Fatalf("SIMDLanes: got f64=%d f32=%d, want 4 and 8", SIMDLanes(8), SIMDLanes(4))
	}
	if SIMDLanes(0) != 1 || SIMDLanes(3) != 1 || SIMDLanes(-8) != 1 {
		t.Fatal("SIMDLanes must price non-dividing element sizes as scalar")
	}
}

func TestSIMDStageOpsPricesVectorThroughput(t *testing.T) {
	c := VirtualOpteron224().Cost
	scalar := c.StageOpsFused(4, 8, 64, codelet.Interleaved, true)
	vec := c.SIMDStageOps(scalar, 4)
	if vec.Total() >= scalar.Total() {
		t.Fatalf("SIMD stage must price below scalar: %d >= %d", vec.Total(), scalar.Total())
	}
	// Streaming classes shrink by the lane factor (ceiling); per-call
	// classes are untouched.
	if want := (scalar.Arith + 3) / 4; vec.Arith != want {
		t.Fatalf("Arith: got %d want %d", vec.Arith, want)
	}
	if want := (scalar.Load + 3) / 4; vec.Load != want {
		t.Fatalf("Load: got %d want %d", vec.Load, want)
	}
	if vec.Addr != scalar.Addr || vec.Call != scalar.Call ||
		vec.SpillLd != scalar.SpillLd || vec.SpillSt != scalar.SpillSt {
		t.Fatal("per-call classes must not change under SIMD pricing")
	}
	if got := c.SIMDStageOps(scalar, 1); got != scalar {
		t.Fatal("lanes <= 1 must be the identity")
	}
}

func TestLeafOpsStructure(t *testing.T) {
	cost := VirtualOpteron224().Cost
	for m := 1; m <= 8; m++ {
		ops := cost.LeafOps(m)
		size := int64(1) << uint(m)
		if ops.Arith != int64(m)*size {
			t.Errorf("m=%d: arith %d, want %d butterflies", m, ops.Arith, int64(m)*size)
		}
		if ops.Load != size || ops.Store != size {
			t.Errorf("m=%d: load/store %d/%d, want %d each", m, ops.Load, ops.Store, size)
		}
		wantSpill := size - int64(cost.Registers)
		if wantSpill < 0 {
			wantSpill = 0
		}
		if ops.SpillLd != wantSpill*cost.SpillPerExtra {
			t.Errorf("m=%d: spill loads %d, want %d", m, ops.SpillLd, wantSpill*cost.SpillPerExtra)
		}
	}
	// No spills at or below the register count.
	if cost.LeafOps(4).SpillLd != 0 {
		t.Error("16 temporaries must not spill with 16 registers")
	}
	if cost.LeafOps(5).SpillLd == 0 {
		t.Error("32 temporaries must spill with 16 registers")
	}
}
