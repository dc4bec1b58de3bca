package asm

import "testing"

// FuzzAssemble hardens the assembler against arbitrary source text: it
// must return an error or an image, never panic, and any produced text
// section must be whole instructions.
func FuzzAssemble(f *testing.F) {
	f.Add("main: li a0, 1\n")
	f.Add(".data\nx: .word 1, 2\n.text\nlw a0, (zero)\n")
	f.Add(".equ N, 4\naddi a0, zero, N\n")
	f.Add("lbl:\n  j lbl\n")
	f.Add(".asciiz \"unterminated")
	f.Add("addi a0")
	f.Add("lui a0")
	f.Add("subi a0, a1")
	f.Add("add a0, a1, a2, a3")

	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble("fuzz.s", src)
		if err != nil {
			return
		}
		if len(img.Text)%4 != 0 {
			t.Fatalf("text length %d not word aligned", len(img.Text))
		}
		for _, addr := range img.Symbols {
			_ = addr // symbol addresses must simply exist; no invariant beyond that
		}
	})
}
