// Package cputest holds the program generator behind the cpu package's
// differential tests (cached blocks vs fresh decode), so replay-level
// differential tests in other packages run over the same programs.
package cputest

import (
	"encoding/binary"
	"maps"
	"slices"

	"bugnet/internal/asm"
	"bugnet/internal/mem"
)

// TwinPrograms are small structured programs covering the behaviors cached
// and freshly decoded execution must agree on: loops, every memory width,
// atomics, calls, traps, faults and syscalls.
var TwinPrograms = map[string]string{
	"arith-loop": `
        li   a0, 0
        li   t0, 0
        li   t1, 100
loop:   add  a0, a0, t0
        mul  a1, a0, t0
        xor  a2, a2, a1
        addi t0, t0, 1
        blt  t0, t1, loop
        syscall
`,
	"mem-mix": `
        .data
buf:    .space 64
        .text
        la   t0, buf
        li   t1, 0x1234
        sw   t1, 0(t0)
        sh   t1, 8(t0)
        sb   t1, 13(t0)
        lw   a0, 0(t0)
        lh   a1, 8(t0)
        lhu  a2, 8(t0)
        lb   a3, 13(t0)
        lbu  a4, 13(t0)
        li   t2, 7
        amoswap a5, t0, (t2)
        amoadd  a6, t0, (t2)
        syscall
`,
	"call-ret": `
main:   li   a0, 5
        jal  double
        jal  double
        syscall
double: add  a0, a0, a0
        jalr zero, ra, 0
`,
	"div-zero": `
        li   a0, 9
        li   a1, 0
        div  a2, a0, a1
        syscall
`,
	"misaligned-load": `
        la   t0, word
        lw   a0, 1(t0)
        syscall
        .data
word:   .word 42
`,
	"unmapped-load": `
        lui  t0, 0x7f00
        lw   a0, 0(t0)
        syscall
`,
	"break-trap": `
        li   a0, 1
        break
        li   a0, 2
`,
	"invalid-word": `
        li   a0, 3
        .word 0xffffffff
        li   a0, 4
`,
	"jalr-misaligned": `
        li   t0, 0x1001
        jalr ra, t0, 0
        syscall
`,
	"syscalls-interleaved": `
        li   a0, 1
        syscall
        addi a0, a0, 1
        syscall
        addi a0, a0, 1
        syscall
`,
	"sub-word-rmw": `
        .data
arr:    .space 16
        .text
        la   t0, arr
        li   t1, 0
loop:   sb   t1, 0(t0)
        addi t0, t0, 1
        addi t1, t1, 1
        slti t2, t1, 16
        bne  t2, zero, loop
        syscall
`,
}

// smcSeed rewrites its own text through t0, which both fuzz harnesses
// point at the first fuzzed word: it runs loop once, stores the word at
// patch over loop's first instruction, and runs it again, so a decode
// cached across the store is caught on the seed corpus alone.
const smcSeed = `
        addi a4, zero, 0
loop:   addi a3, a3, 1       # becomes addi a3, a3, 100
        bne  a4, zero, done
        addi a4, zero, 1
        lw   t2, 28(t0)
        sw   t2, 4(t0)
        j    loop
patch:  addi a3, a3, 100
done:   break
`

// FuzzSeeds returns the seed corpus of FuzzRunVsFreshDecode: the text of
// every twin program, in name order, plus raw tails that decode into
// interesting shapes, plus smcSeed.
func FuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, name := range slices.Sorted(maps.Keys(TwinPrograms)) {
		if img, err := asm.Assemble("seed.s", TwinPrograms[name]); err == nil {
			seeds = append(seeds, img.Text)
		}
	}
	return append(seeds, []byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 64),
		asm.MustAssemble("smc.s", smcSeed).Text)
}

// FuzzWords reads a fuzz input as instruction words, at most one page.
func FuzzWords(data []byte) []uint32 {
	words := make([]uint32, min(len(data)/4, mem.PageSize/4))
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return words
}

// FuzzImage wraps fuzzed instruction words as a loadable program. A
// prologue seeds base registers the way the cpu fuzz harness does — a0/a1
// into a data buffer, t0/t1 at the fuzzed text itself, so fuzzed stores
// regularly rewrite code — then execution falls into the words.
func FuzzImage(words []uint32) *asm.Image {
	img := asm.MustAssemble("fuzz.s", `
        .data
buf:    .space 1024
        .text
main:   la   a0, buf
        addi a1, a0, 512
        la   t0, fuzz
        addi t1, t0, 64
fuzz:
`)
	for _, w := range words {
		img.Text = binary.LittleEndian.AppendUint32(img.Text, w)
	}
	return img
}
