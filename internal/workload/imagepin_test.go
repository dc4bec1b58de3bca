package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"bugnet/internal/asm"
	"bugnet/internal/cpu/cputest"
)

// shippedImages returns every image the repository assembles from its own
// sources, keyed by where it comes from: the seven SPEC kernels, the
// eighteen bug analogues at scales 1, 10, 100 and 1000, the shared-memory
// workload and the cpu package's twin programs.
func shippedImages(tb testing.TB) map[string]*asm.Image {
	imgs := map[string]*asm.Image{}
	for _, w := range SPEC() {
		imgs["spec/"+w.Name] = w.Image
	}
	for _, scale := range []int{1, 10, 100, 1000} {
		for _, b := range Bugs(scale) {
			imgs[fmt.Sprintf("bugs@%d/%s", scale, b.Name)] = b.Image
		}
	}
	imgs["mtshare"] = MTShare().Image
	for name, src := range cputest.TwinPrograms {
		img, err := asm.Assemble(name+".s", src)
		if err != nil {
			tb.Fatalf("twin program %s: %v", name, err)
		}
		imgs["twin/"+name] = img
	}
	return imgs
}

// imageHash is the SHA-256 of everything an assembler change could move in
// an image: the text and data bytes, both load bases, the entry point, the
// symbols in name order and the line map in address order.
func imageHash(img *asm.Image) string {
	h := sha256.New()
	u32 := func(v uint32) { h.Write(binary.LittleEndian.AppendUint32(nil, v)) }
	blob := func(b []byte) { u32(uint32(len(b))); h.Write(b) }
	blob(img.Text)
	blob(img.Data)
	u32(img.TextBase)
	u32(img.DataBase)
	u32(img.Entry)
	u32(uint32(len(img.Symbols)))
	for _, name := range slices.Sorted(maps.Keys(img.Symbols)) {
		blob([]byte(name))
		u32(img.Symbols[name])
	}
	u32(uint32(len(img.Lines)))
	for _, addr := range slices.Sorted(maps.Keys(img.Lines)) {
		u32(addr)
		u32(uint32(img.Lines[addr]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShippedImagesPinned holds every shipped image byte-identical: a change
// to the assembler, the ISA tables or a workload source that moves one
// fails here and names it. A deliberate change replaces the lines printed
// for the images it moves.
func TestShippedImagesPinned(t *testing.T) {
	imgs := shippedImages(t)
	if len(imgs) != len(pinnedImageHashes) {
		t.Errorf("%d images are shipped; %d are pinned", len(imgs), len(pinnedImageHashes))
	}
	var moved []string
	for _, key := range slices.Sorted(maps.Keys(imgs)) {
		if got := imageHash(imgs[key]); got != pinnedImageHashes[key] {
			moved = append(moved, fmt.Sprintf("\t%q: %q,", key, got))
		}
	}
	if len(moved) != 0 {
		t.Fatalf("%d images differ from their pins; now:\n%s", len(moved), strings.Join(moved, "\n"))
	}
}

// pinnedImageHashes is imageHash of each shipped image.
var pinnedImageHashes = map[string]string{
	"bugs@1/bc":                 "9932401388c2e34c15110d087f5fdd648e2678f1bedafda7249c5491c2719ab9",
	"bugs@1/gaim":               "932e9c8a37221980e2abc5438e834cdd1178b3698240d5656e7c3fa1a0531d3b",
	"bugs@1/ghostscript":        "0cb468fde2a4d08d128d22452d6ab29831cd41176ecaeda47ff8a1f331a0596f",
	"bugs@1/gnuplot-1":          "26f49376ec6c3d6b949b787c2acba07a4524a3bfbf4d4c3d8b8e85dfcfa4758c",
	"bugs@1/gnuplot-2":          "0b47dfad4bf4d127a3cf6fcda13d33db89656d45cc2056754cf853cb7208bbab",
	"bugs@1/gzip":               "c4c886c5ead838c2430b1d5941ccdf6960c248985eccd0bfffaa5e09553c42cb",
	"bugs@1/napster":            "85c271c11d081b4020890ff91a423af3c0f54478be3a2b9fc5c881a2c399cf88",
	"bugs@1/ncompress":          "e14b5b5465dbc5212d37cb054f3b1a73318a1fdf526f9f26b0a03fcd6bdc4d64",
	"bugs@1/polymorph":          "8c4b29787fc7d050fa15d7beeb19470953d65d96cf600380849d5067f5bb9e1c",
	"bugs@1/python-1":           "d4c52dc930484b4ed9949d9cec22672eeb2afe54c899269009cdeb7e06f53dde",
	"bugs@1/python-2":           "153841ddf4ae6a5ab1f927739c02b43f7fbed2c6d17c2e8c23be2afa0ba52208",
	"bugs@1/tar":                "fc79d2314946805a2f36d29004cbb925d0ae53a42ba4404ab79c70212380ee53",
	"bugs@1/tidy-1":             "e5fbd065ff180ba0e9c84bfece15b59bf09b7ae8d74c94e4fa4abcc2899293f4",
	"bugs@1/tidy-2":             "bb0d838455ccce564ae72b684412aace40ed3e97a14c74ffe8cfd6efbd73b5b9",
	"bugs@1/tidy-3":             "932d385bedb85d5596b6c404bcf89fb5b7a091ae21b0449439801751a4834bab",
	"bugs@1/w3m":                "f86d41e726a9d69058b5cf723aa537991d7ff258547308074b72a558ecc021bc",
	"bugs@1/xv-1":               "1c1677ee0587e5123e085159d03c2874ebb3aeda85feb46308d249e1dce7b01b",
	"bugs@1/xv-2":               "773a5bd95d70c49ec8f4f9fa2e9a36b1d808d85f2c1786e8287326f3ae6f7226",
	"bugs@10/bc":                "478b6e83f4e7c1fe57d92a6d52c8c4115fbde64cf77ebd4aff8c40e3feae2673",
	"bugs@10/gaim":              "58a61785cffb9c124794f65ea5cf896839924caf5e7c72f9303a9a0ebda6c842",
	"bugs@10/ghostscript":       "4bb2c1f9beb6e592f4bfadd5887fa79f3923f5606fc485c560c0d977d6088e6d",
	"bugs@10/gnuplot-1":         "405338c47120414e14b8303f9abfda54e1b40e0da0cc76a61c43320d32e8dd31",
	"bugs@10/gnuplot-2":         "d221d9b294af51b7e0564ff08da0311392c6c9db87613e84c90167477ef136b7",
	"bugs@10/gzip":              "59a32e0c70615c69cf59e7ae2abf3488cc1bffcb8974e724bf6e1971c16e7df9",
	"bugs@10/napster":           "9f261c3b1d0048672f657a4b63d5beecdaabb958a8ac31f5b75b3a7802a4e349",
	"bugs@10/ncompress":         "d710562fb282bc632ee873f160093570d52b01cbf6f9c382ec895dff7e9f8481",
	"bugs@10/polymorph":         "a252453cc9b217d00c6df8557088c904218fd072299200c44023251957273b9a",
	"bugs@10/python-1":          "d4c52dc930484b4ed9949d9cec22672eeb2afe54c899269009cdeb7e06f53dde",
	"bugs@10/python-2":          "b7a2004d57dd984d60f747f7160df45214da8d74a94625e4cc470c86d780b68c",
	"bugs@10/tar":               "3a14966642e3018bb5a4c35727df37c3dffcbc3cc65384eb61f6224fb97acce5",
	"bugs@10/tidy-1":            "cf5b508c59f205cf2afb87079d83e995d0e339ffcf91edaf059132309184726a",
	"bugs@10/tidy-2":            "bb0d838455ccce564ae72b684412aace40ed3e97a14c74ffe8cfd6efbd73b5b9",
	"bugs@10/tidy-3":            "932d385bedb85d5596b6c404bcf89fb5b7a091ae21b0449439801751a4834bab",
	"bugs@10/w3m":               "a38ef66c01c67e0115aa234508476371891e84803110777e21397701caafedf1",
	"bugs@10/xv-1":              "d67e16d2d54b142e7aff01d4500583086fc38ecfc0c2b7fb89898db8720de6ef",
	"bugs@10/xv-2":              "2de4db86bcd6be7c62c0d7ab42880dd33ce608d3d725db8a8665ae53f4dd3199",
	"bugs@100/bc":               "c1b3e2a718e84cc36cc027a2e9bddca8c291df1b6e61e5cd91123fc380b3728e",
	"bugs@100/gaim":             "9ac6a1506e09cb7e069b4125a5907a0b76f1aa87edf86179ba50b160c7c4c8d3",
	"bugs@100/ghostscript":      "db4e71c979b8f95314d910f3f1c66f6c542344698f6592436d7247eb9e0a0323",
	"bugs@100/gnuplot-1":        "8ccd5211bd9dee2e318df51dd3d916ab2a4c534156b79ef7a54e39b1ba66a425",
	"bugs@100/gnuplot-2":        "e5ceeb16b05cc9aa10d4f51626e7edf6b56047e7a9cfbc91d16bb58dd8f91d3f",
	"bugs@100/gzip":             "35a8bd34d808a44a8f6d8ae649d78983ab8ccee48cc592f9c0a0377fe6c862d6",
	"bugs@100/napster":          "4c9ac225d60d80ac31b13a2515268f3a60a8253ef2cbac8be4f40270d65274ba",
	"bugs@100/ncompress":        "0ad306dd878dc6b0c788216aa82f62448b004b7d31a3fd0da365e7910521ae20",
	"bugs@100/polymorph":        "cf2b9db1859cb260219d1df9dfd7b4cb6b40ee2b9e5e2c1b6519d71c747713b1",
	"bugs@100/python-1":         "d4c52dc930484b4ed9949d9cec22672eeb2afe54c899269009cdeb7e06f53dde",
	"bugs@100/python-2":         "bcc67cfef8a2dc9f6cace01e19f37cc15aab2a6d3fbbb19ea9710e85f9fc818c",
	"bugs@100/tar":              "d579000c16b18efd8562c66fd044cd0795727dce90b6c823baa4d5cf416fad36",
	"bugs@100/tidy-1":           "817874c9b811daf095bc16142ef0148014f9848f273e4dc9c4229946d09e0b32",
	"bugs@100/tidy-2":           "bb0d838455ccce564ae72b684412aace40ed3e97a14c74ffe8cfd6efbd73b5b9",
	"bugs@100/tidy-3":           "932d385bedb85d5596b6c404bcf89fb5b7a091ae21b0449439801751a4834bab",
	"bugs@100/w3m":              "19a0dca253d45a4b4074e474ba71ff4f333cd4867c7bf026a0133ca203005a67",
	"bugs@100/xv-1":             "1aba5a4335dc41ac4c63ffee0962bd00ee5df30a20474a72ef2bd049d64733cf",
	"bugs@100/xv-2":             "4f9ebfe5023ec9785c868665f2ccad8cb0599a97f5fb3cd6960f639f9bbc5d7e",
	"bugs@1000/bc":              "c1b3e2a718e84cc36cc027a2e9bddca8c291df1b6e61e5cd91123fc380b3728e",
	"bugs@1000/gaim":            "e44c92961679aaa3de522b47ba20f4fa4a03e7c8444eb879580284be6455aaf6",
	"bugs@1000/ghostscript":     "427f3bdcb2d2e2588e1eb191008d3a4925b48eedf3c9177a1dfcff4ff04dccba",
	"bugs@1000/gnuplot-1":       "8ccd5211bd9dee2e318df51dd3d916ab2a4c534156b79ef7a54e39b1ba66a425",
	"bugs@1000/gnuplot-2":       "566bfb87f801d8c5bc6b13a7886ff9d21b5140ce8e822aa2b13d97ef84ba9aca",
	"bugs@1000/gzip":            "86c25533d765cda4ce32c215af09eaa849ffb0be9385c09fc1369e469d3f1b64",
	"bugs@1000/napster":         "6edb4bd646c73e965975e6a8116d857f6ab6819e79a6c29a26d22c289b2b0486",
	"bugs@1000/ncompress":       "c35e7bbe1985d4c7428c6187cce40bbc6b6cf671f18e40a2ac705759fbe68b1b",
	"bugs@1000/polymorph":       "1a13fa7eae268bb2305c99ba16c3cd87593bf5dc4fd761fbf4332009813cafe1",
	"bugs@1000/python-1":        "d4c52dc930484b4ed9949d9cec22672eeb2afe54c899269009cdeb7e06f53dde",
	"bugs@1000/python-2":        "bcc67cfef8a2dc9f6cace01e19f37cc15aab2a6d3fbbb19ea9710e85f9fc818c",
	"bugs@1000/tar":             "0f1721505e4e4bb2d52f7f5dfcbac8100e8dee7b7e198346d619aec2b8079151",
	"bugs@1000/tidy-1":          "e3f53e5a261b839660175b1e8d9e3f3969c6d3f18585916e53e2c9607b5f0039",
	"bugs@1000/tidy-2":          "bb0d838455ccce564ae72b684412aace40ed3e97a14c74ffe8cfd6efbd73b5b9",
	"bugs@1000/tidy-3":          "932d385bedb85d5596b6c404bcf89fb5b7a091ae21b0449439801751a4834bab",
	"bugs@1000/w3m":             "9a97a14dc88e2353d6aff7b60295c373968fb9c9a44a977fa925e4e558726dc9",
	"bugs@1000/xv-1":            "0224886bb6440f3298d5b8e89cbc341db20457a48bbd01c04c38cab1d0c83110",
	"bugs@1000/xv-2":            "02b8006b0e5513c797729cf2a8593c6f993d99042e5d2f645d7573096b313907",
	"mtshare":                   "03d59b54e981d67d76928b5374016421103f820136a92acc2bc8f491cf4f6c94",
	"spec/art":                  "6e1963010724072be1cca974c4da1f5b2785f8d2a519727275374e7f533164d7",
	"spec/bzip2":                "aabc47ab787b57068a6c0d3bcfec5d8dd8b2c055f1f988d8c50fe89139a7a853",
	"spec/crafty":               "701f4eccc4e03822986ba1b74abbddfdd8f53621ea44d6a1475f7d539f856eb0",
	"spec/gzip":                 "14bcd92a906562365235187a69114e5a100fe67da36b44628ee17a00c8445f5c",
	"spec/mcf":                  "4288f8d1870a6846f1d886b2be6ea877e133fc97bfcf2367ccb48c9d54e37b3e",
	"spec/parser":               "29cae1c9d12185e49ad2877da57a3771029a527a704ecd798498b4ad2f25126a",
	"spec/vpr":                  "533f99fbb1db12214c0901e9831be7db48efdacb7f770d49373af3e8b089e76f",
	"twin/arith-loop":           "8cc243007ebc23419a684056f59e0a124b04553e071cf9ba38641bb45259c88b",
	"twin/break-trap":           "785266c4dce05586becba7bddd9caa2f6c6a24d8100156d7b2f5cd728bf6075a",
	"twin/call-ret":             "1a432ae6e4cb1aa757eea6bdf8b7ffc505154e6251507ed338af5904d30e80a1",
	"twin/div-zero":             "480e9297325693dd6012ec91ca48d67996afe53edd28d86d88ca7c54c4ed1a67",
	"twin/invalid-word":         "03c518e1c0e77aa578d5ac11c8f5b6dbc73661124e632c7a25e312c7e5d89362",
	"twin/jalr-misaligned":      "b651ced90da3fab7a355c92712a783d10c7c3356fa8429f4706768fb66a49986",
	"twin/mem-mix":              "18e57cfd9fd7be14a89fec652dec3e61301d4e441fa1e2f8bac1ff50d0f1b395",
	"twin/misaligned-load":      "fe11da8c9501aa5de915b7d4e98c18c7158b027434da1156301e6278c2ec5ae2",
	"twin/sub-word-rmw":         "fcac83234d6898e7876765a7122e08cb107415127cd1a96cd37e8c8b46e3656c",
	"twin/syscalls-interleaved": "72ddb1399753dae4e278dcab6a0cb4db3d04c9c16269594b0dae95a46b7bc00f",
	"twin/unmapped-load":        "1756bc02983161b28c1ee08d03588928e8ac61aaf63570caf7f37bf319e47bc9",
}
