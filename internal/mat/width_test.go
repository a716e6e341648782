package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"ejoin/internal/vec"
)

// tileWidth is one form of the assembly's 4-row tiles: a register width
// and, on ZMM, whether the int8 filter runs in front of the tile, and
// whether the filter's cells come from VPDPBUSD or AMX tiles.
type tileWidth struct {
	name string
	zmm  bool // the AVX-512F form (useZMM)
	int8 bool // the int8 filter in front of it (useInt8)
	amx  bool // the filter's cells on AMX tiles (useAMX)
}

var tileWidths = []tileWidth{
	{"YMM", false, false, false},
	{"ZMM", true, false, false},
	{"ZMM+int8", true, true, false},
	{"ZMM+int8+AMX", true, true, true},
}

// missing says why this build or host cannot run w, or "" if it can.
func (w tileWidth) missing() string {
	switch {
	case !haveSIMD:
		return "no assembly tile in this build or on this host (it needs amd64 with AVX2 and FMA and no purego tag)"
	case w.zmm && !haveAVX512:
		return "no AVX-512F on this host, so the ZMM tile is not tested here"
	case w.int8 && !haveVNNI:
		return "no AVX-512 VNNI on this host, so the int8 filter is not tested here"
	case w.amx && !haveAMX:
		return amxAbsent + ", so the AMX form of the int8 filter is not tested here"
	}
	return ""
}

// use switches the tiles to w, the int8 filter on every shape it can
// run on; the returned func switches them back.
func (w tileWidth) use() (restore func()) {
	oldZMM, oldInt8, oldAMX, oldRows, oldCols := useZMM, useInt8, useAMX, int8MinRows, int8MinCols
	useZMM, useInt8, useAMX = w.zmm, w.int8, w.amx
	if w.int8 {
		int8MinRows, int8MinCols = 0, 0
	}
	return func() { useZMM, useInt8, useAMX, int8MinRows, int8MinCols = oldZMM, oldInt8, oldAMX, oldRows, oldCols }
}

// eachWidth runs f as one subtest (or sub-benchmark) per tile width, and
// skips, with the reason, each width this build or host lacks. Without
// the assembly it runs f once more, as "portable", on the pure-Go
// kernels.
func eachWidth[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	if !haveSIMD {
		t.Run("portable", f)
	}
	for _, w := range tileWidths {
		t.Run(w.name, func(t T) {
			if why := w.missing(); why != "" {
				t.Skip(why)
			}
			defer w.use()()
			f(t)
		})
	}
}

// onEachWidth calls f on every tile width this build and host can run,
// or once on the portable kernels if it has no assembly, with the tiles
// switched to that width. It is eachWidth for a fuzz target, which
// checks each input on every width without subtests.
func onEachWidth(f func(width string)) {
	if !haveSIMD {
		f("portable")
		return
	}
	for _, w := range tileWidths {
		if w.missing() == "" {
			func() {
				defer w.use()()
				f(w.name)
			}()
		}
	}
}

// sameWork fails the test unless two scans of the same inputs had the
// same inner-loop work to do. What they skipped may differ between widths:
// a 4x32 ZMM tile stops only at a checkpoint where all 128 of its cells
// can, two 4x16 YMM tiles each where its own 64 can.
func sameWork(t *testing.T, label string, got, want ScanStats) {
	t.Helper()
	if got.KSteps != want.KSteps {
		t.Fatalf("%s: %d k-steps, the first width had %d", label, got.KSteps, want.KSteps)
	}
}

// TestTileWidths names the tile widths this build and host run and those
// it skips, with the reason (CI runs it with -v, so a green job shows
// which widths it covered, whether AMX ran, and which form the candidate
// top-k's cells take: AMX, VPDPBUSD or scan), and holds the widths to
// each other on the early exit's hard cases and a threshold scan, each
// also as a top-3 scan whose visitor raises the bounds: every width
// matches the reference and has the same k-steps to do, and each width
// skips the same steps every time it scans the same input (which steps
// is its own: see sameWork). The int8 filter's two forms, VPDPBUSD and
// AMX, compute the same masks, so their ScanStats are equal.
func TestTileWidths(t *testing.T) {
	width := "the portable kernels"
	for _, w := range tileWidths {
		if haveSIMD && w.zmm == useZMM && w.int8 == useInt8 && w.amx == useAMX {
			width = w.name
		}
	}
	t.Logf("assembly tiles: %v, AVX-512F: %v, AVX-512 VNNI: %v, AMX: %v; KernelSIMD runs %s", haveSIMD, haveAVX512, haveVNNI, haveAMX, width)
	if haveAMX {
		t.Logf("AMX: runs (the int8 filter's cells on AMX tiles)")
	} else {
		t.Logf("AMX: skipped, %s", amxAbsent)
	}
	t.Logf("top-k cells: %s", topKForm())
	rng := rand.New(rand.NewSource(79))
	r, s := randomMatrix(rng, 64, 100), randomMatrix(rng, 200, 100)
	r.NormalizeRows()
	s.NormalizeRows()
	threshold := make([]float32, r.Rows())
	for i := range threshold {
		threshold[i] = 0.8
	}
	cases := append(earlyExitCases(), earlyExitCase{"threshold 0.8", r, s, threshold})
	opts := []GemmOptions{
		{Threads: 1, Kernel: vec.KernelSIMD},
		{Threads: 2, Kernel: vec.KernelSIMD, BlockRows: 4, BlockCols: 16},
	}

	first := map[string]ScanStats{} // by input, from the first width run
	vnni := map[string]ScanStats{}  // by input, from ZMM+int8
	sameAsVNNI := func(t *testing.T, w tileWidth, label string, st ScanStats) {
		t.Helper()
		switch want, ok := vnni[label]; {
		case w.int8 && !w.amx:
			vnni[label] = st
		case w.amx && ok && st != want:
			t.Fatalf("%s: %+v on AMX, %+v on VPDPBUSD", label, st, want)
		}
	}
	sameWorkAsFirst := func(t *testing.T, label string, st ScanStats) {
		t.Helper()
		if want, ok := first[label]; ok {
			sameWork(t, label, st, want)
		} else {
			first[label] = st
		}
	}
	repeats := func(t *testing.T, label string, st, again ScanStats) {
		t.Helper()
		if st != again {
			t.Fatalf("%s: %+v, then %+v on the same input", label, st, again)
		}
	}
	for _, w := range tileWidths {
		t.Run(w.name, func(t *testing.T) {
			if why := w.missing(); why != "" {
				t.Skip(why)
			}
			defer w.use()()
			var steps, skipped int64
			for _, c := range cases {
				for _, o := range opts {
					label := fmt.Sprintf("%s, %d thread(s)", c.name, o.Threads)
					got, st := scanCells(t, c.r, c.s, c.bound, o)
					sameCells(t, label, got, refScan(c.r, c.s, c.bound))
					_, again := scanCells(t, c.r, c.s, c.bound, o)
					repeats(t, label, st, again)
					sameWorkAsFirst(t, label, st)
					sameAsVNNI(t, w, label, st)
					top := checkRaisedBounds(t, c.r, c.s, 3, o)
					repeats(t, "top-3 of "+label, top, checkRaisedBounds(t, c.r, c.s, 3, o))
					sameWorkAsFirst(t, "top-3 of "+label, top)
					sameAsVNNI(t, w, "top-3 of "+label, top)
					steps, skipped = steps+st.KSteps+top.KSteps, skipped+st.KStepsSkipped+top.KStepsSkipped
				}
				prod, err := product(c.r, c.s, opts[0])
				if err != nil {
					t.Fatal(err)
				}
				checkCells(t, prod, c.r, c.s)
			}
			t.Logf("%s tile: %d inputs scanned and multiplied; cells are dotSeq's bits; %d of %d k-steps skipped", w.name, len(cases), skipped, steps)
		})
	}
}
