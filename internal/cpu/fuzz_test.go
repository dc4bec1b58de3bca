package cpu

// Differential fuzzing of decode caching and invalidation: arbitrary
// instruction streams must behave instruction-identically when Run
// re-executes cached blocks in batches and when every instruction is
// decoded fresh from live memory (Run(1) after a cache flush) —
// registers, memory, IC, hook streams, breakpoint stops and FaultInfo. Register
// seeding points base registers at both the data page and the text page,
// so fuzzed stores regularly rewrite code under cached blocks and exercise
// the self-modifying-code invalidation paths.

import (
	"encoding/binary"
	"slices"
	"testing"

	"bugnet/internal/cpu/cputest"
	"bugnet/internal/isa"
	"bugnet/internal/mem"
)

const (
	fuzzTextBase = uint32(0x0040_0000)
	fuzzDataBase = uint32(0x1000_0000)
	fuzzMaxInstr = 512
)

// buildFuzzCPU maps one text page filled from words and one data page,
// and seeds registers so memory ops frequently land somewhere mapped —
// including the text page itself.
func buildFuzzCPU(words []uint32) *CPU {
	m := mem.New()
	m.Map(fuzzTextBase, mem.PageSize)
	m.Map(fuzzDataBase, mem.PageSize)
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	if err := m.StoreBytes(fuzzTextBase, buf); err != nil {
		panic(err)
	}
	c := New(m)
	c.PC = fuzzTextBase
	for i := 0; i < isa.NumRegs; i++ {
		c.Regs[i] = uint32(i) * 4
	}
	c.Regs[isa.RegSP] = fuzzDataBase + mem.PageSize - 16
	c.Regs[isa.RegA0] = fuzzDataBase
	c.Regs[isa.RegA1] = fuzzDataBase + 512
	c.Regs[isa.RegT0] = fuzzTextBase // stores through t0 patch code
	c.Regs[isa.RegT1] = fuzzTextBase + 64
	c.Regs[isa.RegZero] = 0
	return c
}

func FuzzRunVsFreshDecode(f *testing.F) {
	// Seed with the structured twin programs plus raw tails that decode
	// into interesting shapes.
	for _, seed := range cputest.FuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		words := cputest.FuzzWords(data)
		// Derive a batch size from the input so the fuzzer also explores
		// batch-boundary interactions.
		batch := uint64(data[0]%63) + 1
		if data[0]&0x80 != 0 {
			batch = fuzzMaxInstr
		}

		cs := buildFuzzCPU(words)
		cr := buildFuzzCPU(words)
		for _, pc := range []uint32{fuzzTextBase + 8, fuzzTextBase + 8, fuzzTextBase + 32} {
			cs.SetBreak(pc, true)
			cr.SetBreak(pc, true)
		}
		var se, re []hookEvent
		instrument(cs, &se)
		instrument(cr, &re)

		evS, stopsS := driveFresh(cs, fuzzMaxInstr)
		evR, stopsR := driveRun(cr, fuzzMaxInstr, batch)

		if evS != evR {
			t.Fatalf("final event: fresh %v, run %v (fault fresh=%v run=%v)", evS, evR, cs.Fault, cr.Fault)
		}
		if !slices.Equal(stopsS, stopsR) {
			t.Fatalf("breakpoint stops: fresh %v, run %v", stopsS, stopsR)
		}
		compareCPUs(t, cs, cr)
		if len(se) != len(re) {
			t.Fatalf("hook streams: fresh %d events, run %d", len(se), len(re))
		}
		for i := range se {
			if se[i] != re[i] {
				t.Fatalf("hook event %d: fresh %+v, run %+v", i, se[i], re[i])
			}
		}
	})
}
