package pipeline

import (
	"testing"
)

// decodeFuzzTrace maps raw fuzzer bytes onto an instruction trace, two
// bytes per instruction: the first byte picks the opcode, the second
// packs the op's fields. Every byte string decodes to a legal trace, so
// the fuzzer explores pipeline schedules instead of input validation.
func decodeFuzzTrace(data []byte) []Instr {
	if len(data) > 8192 {
		data = data[:8192] // bound per-exec cost; longer prefixes add nothing
	}
	trace := make([]Instr, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		in := Instr{Op: Op(int(b0) % 5)}
		switch in.Op {
		case OpInt, OpFP:
			// Dependency distances up to 17 cross the clamp boundary.
			in.Dep1 = int(b1&0x0F) + int(b0>>7)
			in.Dep2 = int(b1 >> 4)
		case OpLoad:
			// A small address space forces store-to-load forwarding hits.
			in.Addr = uint16(b1 & 0x3F)
			in.L1Miss = b1&0x40 != 0
			in.L2Miss = b1&0xC0 == 0xC0
			in.Dep1 = int(b0>>5) & 0x03
		case OpStore:
			in.Addr = uint16(b1 & 0x3F)
			in.Dep2 = int(b1 >> 6)
		case OpBranch:
			in.Mispredict = b1&1 != 0
			in.Dep1 = int(b1 >> 4)
		}
		trace = append(trace, in)
	}
	return trace
}

// FuzzSimulateVsReference fuzzes the SoA fast-path kernel against the
// array-of-structs reference: for any decoded trace and queue
// configuration, both kernels must return the same Result, field for
// field, down to the float64 bit pattern. This is the property
// TestSimulateMatchesReference pins on the proxy suite, driven by
// adversarial schedules instead of generated ones.
func FuzzSimulateVsReference(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(64), uint8(32), false)
	f.Add([]byte{2, 0xC0, 2, 0x40, 3, 0x00, 2, 0x00}, uint8(4), uint8(4), false)
	f.Add([]byte{4, 0x11, 0, 0xFF, 1, 0x3C, 3, 0xFF, 2, 0xFF}, uint8(16), uint8(16), true)
	f.Fuzz(func(t *testing.T, data []byte, intQ, fpQ uint8, squash bool) {
		trace := decodeFuzzTrace(data)
		if len(trace) == 0 {
			return
		}
		cfg := Config{
			// Queues span the minimum-legal 4 up to past the defaults.
			IntQEntries:    4 + int(intQ)%125,
			FPQEntries:     4 + int(fpQ)%125,
			SquashL2Misses: squash,
		}
		got, gerr := Simulate(trace, cfg)
		want, werr := SimulateReference(trace, cfg)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("error disagreement: Simulate %v, SimulateReference %v", gerr, werr)
		}
		if gerr == nil && got != want {
			t.Fatalf("Simulate diverges from reference on %d instrs cfg %+v:\n got %+v\nwant %+v",
				len(trace), cfg, got, want)
		}
	})
}

// FuzzSimulateMonotone checks the four monotonicity properties of the
// pipeline model that Eq. 5, the Shift technique and BuildProfile's
// CPIcomp isolation assume, on Cycles, for any decoded trace and queue
// configuration:
//
//   - a smaller int or FP issue queue never runs faster;
//   - squashing L2 misses never runs slower;
//   - turning one load's L1+L2 miss on never runs faster;
//   - turning one branch's mispredict on never runs faster.
//
// The first two are what BuildProfile checks on every phase's own
// trace; the queue parameters also pick the load and branch to alter.
// The seeds are FuzzSimulateVsReference's (the checked-in corpus files
// too), so both targets start from the same schedules.
func FuzzSimulateMonotone(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(64), uint8(32), false)
	f.Add([]byte{2, 0xC0, 2, 0x40, 3, 0x00, 2, 0x00}, uint8(4), uint8(4), false)
	f.Add([]byte{4, 0x11, 0, 0xFF, 1, 0x3C, 3, 0xFF, 2, 0xFF}, uint8(16), uint8(16), true)
	f.Fuzz(func(t *testing.T, data []byte, intQ, fpQ uint8, squash bool) {
		trace := decodeFuzzTrace(data)
		if len(trace) == 0 {
			return
		}
		cfg := Config{
			IntQEntries:    4 + int(intQ)%125,
			FPQEntries:     4 + int(fpQ)%125,
			SquashL2Misses: squash,
		}
		cycles := func(trace []Instr, cfg Config) int64 {
			r, err := Simulate(trace, cfg)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			return r.Cycles
		}
		base := cycles(trace, cfg)

		smaller := func(n int) []int {
			var out []int
			for _, m := range []int{n - 1, n * 3 / 4, 4} {
				if m >= 4 && m < n {
					out = append(out, m)
				}
			}
			return out
		}
		for _, n := range smaller(cfg.IntQEntries) {
			small := cfg
			small.IntQEntries = n
			if c := cycles(trace, small); c < base {
				t.Fatalf("int queue %d -> %d ran faster: %d < %d cycles", cfg.IntQEntries, n, c, base)
			}
		}
		for _, n := range smaller(cfg.FPQEntries) {
			small := cfg
			small.FPQEntries = n
			if c := cycles(trace, small); c < base {
				t.Fatalf("FP queue %d -> %d ran faster: %d < %d cycles", cfg.FPQEntries, n, c, base)
			}
		}
		if !squash {
			sq := cfg
			sq.SquashL2Misses = true
			if c := cycles(trace, sq); c > base {
				t.Fatalf("squashing L2 misses ran slower: %d > %d cycles", c, base)
			}
		}

		// pick returns the k-th index (mod the count) whose op ok accepts.
		pick := func(ok func(Instr) bool) int {
			var idx []int
			for i, in := range trace {
				if ok(in) {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				return -1
			}
			return idx[(int(intQ)<<8|int(fpQ))%len(idx)]
		}
		if i := pick(func(in Instr) bool { return in.Op == OpLoad && !(in.L1Miss && in.L2Miss) }); i >= 0 {
			alt := append([]Instr(nil), trace...)
			alt[i].L1Miss, alt[i].L2Miss = true, true
			if c := cycles(alt, cfg); c < base {
				t.Fatalf("L1+L2 miss on load %d ran faster: %d < %d cycles", i, c, base)
			}
		}
		if i := pick(func(in Instr) bool { return in.Op == OpBranch && !in.Mispredict }); i >= 0 {
			alt := append([]Instr(nil), trace...)
			alt[i].Mispredict = true
			if c := cycles(alt, cfg); c < base {
				t.Fatalf("mispredict on branch %d ran faster: %d < %d cycles", i, c, base)
			}
		}
	})
}
