package kernels

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/gstruct"
	"gflink/internal/vclock"
)

// launch runs a registered kernel on a scratch device with the given
// real byte buffers, returning after completion. Charges are exercised
// but not asserted here (costmodel has its own tests).
func launch(t *testing.T, name string, in [][]byte, outSize int, n int, nominal int64, args []int64) []byte {
	t.Helper()
	out, err := launchErr(t, name, in, outSize, n, nominal, args)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// launchErr is launch returning the launch error instead of failing.
func launchErr(t *testing.T, name string, in [][]byte, outSize int, n int, nominal int64, args []int64) ([]byte, error) {
	t.Helper()
	c := vclock.New()
	d := gpu.NewDevice(c, 0, 0, costmodel.C2050, costmodel.DefaultPCIe)
	out := make([]byte, outSize)
	var runErr error
	c.Run(func() {
		var inBufs []*gpu.Buffer
		for _, b := range in {
			buf, err := d.Malloc(int64(len(b))+1, len(b))
			if err != nil {
				t.Fatal(err)
			}
			copy(buf.Bytes(), b)
			inBufs = append(inBufs, buf)
		}
		outBuf, err := d.Malloc(int64(outSize)+1, outSize)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &gpu.KernelCtx{In: inBufs, Out: []*gpu.Buffer{outBuf}, N: n, Nominal: nominal, Args: args}
		if _, runErr = d.Launch(name, ctx); runErr == nil {
			copy(out, outBuf.Bytes())
		}
	})
	return out, runErr
}

func packF32(vals []float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		putF32(b, i, v)
	}
	return b
}

func unpackF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = f32(b, i)
	}
	return out
}

func TestPointAddMatchesCPU(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewSource(1))
	pts := make([]float32, 3*n)
	for i := range pts {
		pts[i] = rng.Float32() * 10
	}
	delta := [3]float32{1.5, -2.25, 0.125}
	out := launch(t, PointAddKernel, [][]byte{packF32(pts)}, 12*n, n, int64(n),
		[]int64{F32Arg(delta[0]), F32Arg(delta[1]), F32Arg(delta[2])})
	got := unpackF32(out)
	for i := 0; i < n; i++ {
		p := [3]float32{pts[i*3], pts[i*3+1], pts[i*3+2]}
		want := CPUPointAdd(p, delta)
		for j := 0; j < 3; j++ {
			if got[i*3+j] != want[j] {
				t.Fatalf("point %d coord %d: %v want %v", i, j, got[i*3+j], want[j])
			}
		}
	}
}

func TestPointAddArgValidation(t *testing.T) {
	c := vclock.New()
	d := gpu.NewDevice(c, 0, 0, costmodel.C2050, costmodel.DefaultPCIe)
	c.Run(func() {
		if _, err := d.Launch(PointAddKernel, &gpu.KernelCtx{}); err == nil {
			t.Error("pointAdd without buffers succeeded")
		}
	})
}

func TestF32ArgRoundTrip(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true
		}
		return f32bitsArg(F32Arg(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// soaPoints packs row-major points into SoA columns.
func soaPoints(points [][]float32, d int) []byte {
	n := len(points)
	b := make([]byte, 4*n*d)
	for i, p := range points {
		for j := 0; j < d; j++ {
			putF32(b, j*n+i, p[j])
		}
	}
	return b
}

// randPoints draws n d-dimensional points with coordinates in [0, 100).
func randPoints(rng *rand.Rand, n, d int) [][]float32 {
	points := make([][]float32, n)
	for i := range points {
		points[i] = make([]float32, d)
		for j := range points[i] {
			points[i][j] = rng.Float32() * 100
		}
	}
	return points
}

// forEachKMeansBody calls fn with each assignGroupBody body this CPU runs
// selected in turn, and restores the one init chose.
func forEachKMeansBody(fn func(body string)) {
	for _, body := range kmeansBodies() {
		func() {
			defer useKMeansBody(body)()
			fn(body)
		}()
	}
}

// assertKMeansBitExact launches the kmeans kernel on points and cents
// with each assignGroupBody body this CPU runs, requires its partials to
// equal CPUKMeansAssign's byte for byte, and returns them.
func assertKMeansBitExact(t *testing.T, points [][]float32, cents []float32, k, d int) []float32 {
	t.Helper()
	n := len(points)
	want := packF32(CPUKMeansAssign(points, cents, k, d))
	var got []byte
	forEachKMeansBody(func(body string) {
		got = launch(t, KMeansAssignKernel,
			[][]byte{soaPoints(points, d), packF32(cents)},
			4*k*(d+1), n, int64(n), []int64{int64(k), int64(d)})
		if !bytes.Equal(got, want) {
			for i := 0; i < k*(d+1); i++ {
				if g, w := f32(got, i), f32(want, i); math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s n=%d k=%d d=%d: partial[%d] = %v (%#x), want %v (%#x)",
						body, n, k, d, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	})
	return unpackF32(got)
}

// TestKMeansAssignMatchesCPU covers one, two and three 16-point lane
// groups with and without leftover points (scored as a zero-padded group)
// on both sides of each group boundary, and d up to gstruct.MaxCols, with
// d+1 on and beside each multiple of eight (the AVX2 adds' vector width).
func TestKMeansAssignMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 49, 200} {
		for _, k := range []int{1, 5, 10} {
			for _, d := range []int{1, 4, 7, 8, 15, 20, 23, 24, 63, 64} {
				t.Run(fmt.Sprintf("n=%d/k=%d/d=%d", n, k, d), func(t *testing.T) {
					points := randPoints(rng, n, d)
					cents := make([]float32, k*d)
					for i := range cents {
						cents[i] = rng.Float32() * 100
					}
					assertKMeansBitExact(t, points, cents, k, d)
				})
			}
		}
	}
}

// TestKMeansAssignTiesGoToLowerCentroid places points exactly halfway
// between two centroids, and duplicates a centroid: the lower index wins.
func TestKMeansAssignTiesGoToLowerCentroid(t *testing.T) {
	const k, d, n = 4, 2, 37 // 37 points: two 16-point lane groups, then five leftovers
	// Centroid 0 is far away; 1 and 2 sit at x = 0 and x = 2; 3 duplicates 2.
	cents := []float32{50, 50, 0, 0, 2, 0, 2, 0}
	points := make([][]float32, n)
	for i := range points {
		points[i] = []float32{1, float32(i%5) - 2} // equidistant from 1 and 2
	}
	points[n-1] = []float32{3, 0} // nearest 2 and 3 (both at distance 1)
	got := assertKMeansBitExact(t, points, cents, k, d)
	counts := []float32{got[d], got[(d+1)+d], got[2*(d+1)+d], got[3*(d+1)+d]}
	if want := []float32{0, n - 1, 1, 0}; !reflect.DeepEqual(counts, want) {
		t.Errorf("cluster counts = %v, want %v", counts, want)
	}
}

// TestKMeansAssignKeepsNaNSum adds +Inf and -Inf to centroid 0's first sum
// (which makes it the default NaN) and then a NaN coordinate with its own
// payload. The reference keeps the sum's NaN; whichever NaN an add keeps
// depends on its operand order, so the kernel must not let the point's
// NaN win. The three points sit in a full lane group and in the leftovers.
func TestKMeansAssignKeepsNaNSum(t *testing.T) {
	const k, d = 2, 2
	cents := []float32{0, 0, 5, 5}
	nan := math.Float32frombits(0x7fc00123)
	specials := [][]float32{{float32(math.Inf(1)), 1}, {float32(math.Inf(-1)), 1}, {nan, 1}}
	for _, tc := range []struct{ n, at int }{{3, 0}, {16, 0}, {35, 0}, {35, 32}} {
		t.Run(fmt.Sprintf("n=%d/at=%d", tc.n, tc.at), func(t *testing.T) {
			points := make([][]float32, tc.n)
			for i := range points {
				points[i] = []float32{float32(i % 7), 4}
			}
			copy(points[tc.at:], specials)
			got := assertKMeansBitExact(t, points, cents, k, d)
			if b := math.Float32bits(got[0]); got[0] == got[0] || b == math.Float32bits(nan) {
				t.Fatalf("partial[0] = %#x, want the NaN of +Inf + -Inf", b)
			}
		})
	}
}

// TestKMeansAssignKeepsPaddingOut checks, one subtest per body, the
// padding of the partial rows. assignGroup, run over 37 points (two lane
// groups of sixteen and one of five) into rows whose padding slots (past
// the count) hold a finite sentinel, which any nonzero add changes, must
// leave every sentinel in place and sum the first d+1 of each row to
// CPUKMeansAssign's partials: the AVX2 adds give the padding only +0 and
// the other bodies leave it alone. kmeansAssign, into an out buffer
// poisoned past its k·(d+1) partials, must write CPUKMeansAssign's
// partials followed by zeros, so no padding slot reaches out. At k=80
// and d ≥ 48 the partials outgrow kmeansScratch and sum on the heap.
func TestKMeansAssignKeepsPaddingOut(t *testing.T) {
	for _, body := range kmeansBodies() {
		t.Run(body, func(t *testing.T) {
			defer useKMeansBody(body)()
			testKMeansAssignKeepsPaddingOut(t)
		})
	}
}

// testKMeansAssignKeepsPaddingOut is TestKMeansAssignKeepsPaddingOut for
// the body selected now.
func testKMeansAssignKeepsPaddingOut(t *testing.T) {
	sentinel := math.Float32bits(-1234.5)
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 6, 7, 8, 15, 20, 23, 24, 63, 64} {
		for _, k := range []int{1, 2, 10, 80} {
			const n, groups = 37, 48 // the last group's lanes past 37 are never added
			points := randPoints(rng, groups, d)
			cents := make([]float32, k*d)
			for i := range cents {
				cents[i] = rng.Float32() * 100
			}
			want := packF32(CPUKMeansAssign(points[:n], cents, k, d))

			r := kmeansRow(d)
			acc := make([]float32, k*r)
			for c := range k {
				for j := d + 1; j < r; j++ {
					acc[c*r+j] = math.Float32frombits(sentinel)
				}
			}
			soa := soaPoints(points, d)
			for i0 := 0; i0 < n; i0 += kmeansLanes {
				span := soa[4*i0 : 4*((d-1)*groups+i0+kmeansLanes)]
				assignGroup(acc, span, groups, min(kmeansLanes, n-i0), packF32(cents), k, d)
			}
			for i, v := range acc {
				c, j := i/r, i%r
				if j > d {
					if math.Float32bits(v) != sentinel {
						t.Fatalf("k=%d d=%d: padding slot %d of row %d = %#x, want %#x", k, d, j, c, math.Float32bits(v), sentinel)
					}
				} else if w := f32(want, c*(d+1)+j); math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("k=%d d=%d: partial %d of row %d = %v, want %v", k, d, j, c, v, w)
				}
			}

			out := bytes.Repeat([]byte{0xa5}, len(want)+64)
			kmeansAssign(soaPoints(points[:n], d), packF32(cents), out, n, k, d)
			if !bytes.Equal(out[:len(want)], want) {
				t.Fatalf("k=%d d=%d: partials differ from CPUKMeansAssign", k, d)
			}
			if tail := out[len(want):]; !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("k=%d d=%d: out past the partials = %x, want zeros", k, d, tail)
			}
		}
	}
}

// TestKMeansAssignRejectsBadLaunch checks that each malformed launch is a
// launch error, not a panic.
func TestKMeansAssignRejectsBadLaunch(t *testing.T) {
	const n, k, d = 10, 3, 4
	points, cents := make([]byte, 4*n*d), make([]byte, 4*k*d)
	cases := []struct {
		name    string
		in      [][]byte
		outSize int
		args    []int64
	}{
		{"k=0", [][]byte{points, cents}, 4 * k * (d + 1), []int64{0, d}},
		{"k<0", [][]byte{points, cents}, 4 * k * (d + 1), []int64{-1, d}},
		{"d=0", [][]byte{points, cents}, 4 * k * (d + 1), []int64{k, 0}},
		{"d<0", [][]byte{points, cents}, 4 * k * (d + 1), []int64{k, -2}},
		{"d>MaxCols", [][]byte{make([]byte, 4*n*65), make([]byte, 4*k*65)}, 4 * k * 66, []int64{k, gstruct.MaxCols + 1}},
		{"short points", [][]byte{points[:4*n*d-1], cents}, 4 * k * (d + 1), []int64{k, d}},
		{"short centroids", [][]byte{points, cents[:4*k*d-1]}, 4 * k * (d + 1), []int64{k, d}},
		{"short partials", [][]byte{points, cents}, 4*k*(d+1) - 1, []int64{k, d}},
		// 4·k·d = 2^63 wraps negative and 4·k·(d+1) = 2^64 wraps to 0,
		// so multiplied-out length checks would pass both.
		{"k·d overflows", [][]byte{points, cents}, 4 * k * (d + 1), []int64{1 << 61, 1}},
		// 4·k·(d+1) = 2^64 wraps to 0 and 4·k·d = 3·2^62 wraps negative.
		{"k·(d+1) overflows", [][]byte{points, cents}, 4 * k * (d + 1), []int64{1 << 60, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := launchErr(t, KMeansAssignKernel, tc.in, tc.outSize, n, n, tc.args); err == nil {
				t.Error("launch succeeded")
			}
		})
	}
}

// specialF32 holds the float32 values whose arithmetic is easiest to get
// wrong: NaN, both infinities, both zeros, the smallest subnormal, ±1e20
// (whose square overflows to +Inf) and the largest finite value.
var specialF32 = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
	1e20, -1e20, math.MaxFloat32, -math.MaxFloat32,
}

// FuzzKMeansAssign compares the kernel, under every assignGroupBody body
// this CPU runs, with CPUKMeansAssign byte for byte on random shapes.
// With grid set, coordinates are small integers, so exact distance ties
// are common. With special set, about one value in four is drawn from
// specialF32 instead.
func FuzzKMeansAssign(f *testing.F) {
	f.Add(uint16(33), uint8(5), uint8(20), int64(1), false, false)
	f.Add(uint16(7), uint8(3), uint8(2), int64(2), true, false)
	f.Add(uint16(40), uint8(4), uint8(5), int64(3), false, true)
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw, dRaw uint8, seed int64, grid, special bool) {
		n, k, d := int(nRaw%300), int(kRaw%16)+1, int(dRaw%gstruct.MaxCols)+1
		rng := rand.New(rand.NewSource(seed))
		value := func() float32 {
			if special && rng.Intn(4) == 0 {
				return specialF32[rng.Intn(len(specialF32))]
			}
			if grid {
				return float32(rng.Intn(9) - 4)
			}
			return (rng.Float32() - 0.5) * 200
		}
		points := make([][]float32, n)
		for i := range points {
			points[i] = make([]float32, d)
			for j := range points[i] {
				points[i][j] = value()
			}
		}
		cents := make([]float32, k*d)
		for i := range cents {
			cents[i] = value()
		}
		assertKMeansBitExact(t, points, cents, k, d)
	})
}

// TestAssignGroupMatchesPortable holds every assignGroup body this CPU
// runs, one subtest each, to assignGroupGo bit for bit. Both add into
// the same starting partials, NaN sums with their own payloads among
// them, and each point lands in the sums of the centroid it picks, so a
// wrong index, tie-break or NaN operand order changes the bits. Shapes
// draw k in 1..16 (so both the AVX2 two-row passes and its one-row tail
// run), d in 1..64, m in 1..16, a column stride and a byte offset (so
// loads are unaligned too). The value mode cycles through plain values,
// a mix with specialF32, small-integer grids with a duplicated centroid
// row (exact distance ties), an all-NaN point group, a group whose m
// lanes all pick one centroid, and a group whose lanes alternate between
// two (so consecutive lanes add into the same row, or skip one between).
func TestAssignGroupMatchesPortable(t *testing.T) {
	for _, body := range kmeansBodies() {
		t.Run(body, func(t *testing.T) {
			defer useKMeansBody(body)()
			testAssignGroupMatchesPortable(t)
		})
	}
}

// testAssignGroupMatchesPortable is TestAssignGroupMatchesPortable for
// the body selected now.
func testAssignGroupMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 6000; iter++ {
		k, d, m := 1+rng.Intn(16), 1+rng.Intn(gstruct.MaxCols), 1+rng.Intn(kmeansLanes)
		stride := kmeansLanes + rng.Intn(48)
		off := rng.Intn(64)
		mode := iter % 6
		// Modes 4 and 5 send lane l to row picks[l%2]: row picks[0] sits
		// at -1000 and row picks[1] at +1000 in every coordinate, every
		// other row at 1e5, and each lane's point within ±100 of its
		// row. In mode 4 both picks are one row.
		picks := [2]int{rng.Intn(k), rng.Intn(k)}
		if mode == 5 && k > 1 {
			for picks[1] == picks[0] {
				picks[1] = rng.Intn(k)
			}
		}
		if mode == 4 || k == 1 {
			picks[1] = picks[0]
		}
		at := func(l int) float32 {
			if picks[l%2] == picks[0] {
				return -1000
			}
			return 1000
		}
		value := func() float32 {
			switch {
			case mode == 1 && rng.Intn(4) == 0:
				return specialF32[rng.Intn(len(specialF32))]
			case mode == 2:
				return float32(rng.Intn(9) - 4)
			}
			return (rng.Float32() - 0.5) * 200
		}
		span := make([]byte, off+4*((d-1)*stride+kmeansLanes))[off:]
		for i := 0; i < len(span)/4; i++ {
			switch mode {
			case 3:
				putF32(span, i, math.Float32frombits(0x7fc00000|uint32(rng.Intn(1<<22))))
			case 4, 5:
				putF32(span, i, at(i%stride)+value())
			default:
				putF32(span, i, value())
			}
		}
		cents := make([]byte, 4*k*d)
		for i := 0; i < k*d; i++ {
			putF32(cents, i, value())
			if c := i / d; mode >= 4 {
				switch c {
				case picks[0]:
					putF32(cents, i, -1000)
				case picks[1]:
					putF32(cents, i, 1000)
				default:
					putF32(cents, i, 1e5)
				}
			}
		}
		if mode == 2 && k > 1 {
			c := 1 + rng.Intn(k-1)
			copy(cents[4*c*d:4*(c+1)*d], cents[:4*d])
		}
		r := kmeansRow(d)
		start := make([]float32, k*r) // padding slots (j > d) stay +0
		for c := range k {
			for j := range d + 1 {
				if rng.Intn(8) == 0 {
					start[c*r+j] = math.Float32frombits(0xffc00000 | uint32(rng.Intn(1<<22)))
				} else {
					start[c*r+j] = float32(rng.Intn(100))
				}
			}
		}
		got, want := slices.Clone(start), slices.Clone(start)
		assignGroup(got, span, stride, m, cents, k, d)
		assignGroupGo(want, span, stride, m, cents, k, d)
		for i := range got {
			if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
				t.Fatalf("iter %d k=%d d=%d m=%d stride=%d off=%d: partial[%d] (row %d, slot %d) = %#x, want %#x",
					iter, k, d, m, stride, off, i, i/r, i%r, g, w)
			}
		}
		if mode == 3 && start[d] == start[d] && got[d] != start[d]+float32(m) {
			t.Fatalf("iter %d: centroid 0 count %v, want %v: an all-NaN group goes to centroid 0", iter, got[d], start[d]+float32(m))
		}
		if mode >= 4 {
			// The twin's counts show that each lane went to picks[l%2].
			var added [16]float32
			for l := range m {
				added[picks[l%2]]++
			}
			for c, a := range added[:k] {
				if n0 := start[c*r+d]; n0 == n0 && want[c*r+d] != n0+a {
					t.Fatalf("iter %d mode %d: row %d count %v, want %v: the group's lanes did not pick its rows", iter, mode, c, want[c*r+d], n0+a)
				}
			}
		}
	}
}

// kmeansAssignInputs returns a random SoA point block and centroid row
// set for a direct kmeansAssign call, with a partials buffer to fill.
func kmeansAssignInputs(n, k, d int) (points, cents, out []byte) {
	rng := rand.New(rand.NewSource(int64(n*k + d)))
	cs := make([]float32, k*d)
	for i := range cs {
		cs[i] = rng.Float32() * 100
	}
	return soaPoints(randPoints(rng, n, d), d), packF32(cs), make([]byte, 4*k*(d+1))
}

// TestKMeansAssignAllocatesNothing pins kmeansAssign, one subtest per
// assignGroupBody body this CPU runs, at zero heap allocations for the
// KMeans workloads' shape and for k·(d+1) = 1024 both unpadded and at
// the most padding (d = 1), where k·kmeansRow(d) fills the stack
// scratch.
func TestKMeansAssignAllocatesNothing(t *testing.T) {
	for _, body := range kmeansBodies() {
		t.Run(body, func(t *testing.T) {
			defer useKMeansBody(body)()
			for _, tc := range []struct{ n, k, d int }{
				{200, 10, 20},
				{200, 16, 63},               // k·(d+1) = 1024 = k·kmeansRow(d)
				{200, kmeansScratch / 8, 1}, // k·(d+1) = 1024, k·kmeansRow(d) = kmeansScratch
			} {
				points, cents, out := kmeansAssignInputs(tc.n, tc.k, tc.d)
				if a := testing.AllocsPerRun(20, func() { kmeansAssign(points, cents, out, tc.n, tc.k, tc.d) }); a != 0 {
					t.Errorf("n=%d k=%d d=%d: %v allocations per call, want 0", tc.n, tc.k, tc.d, a)
				}
			}
		})
	}
}

// BenchmarkKMeansAssign times each assignGroupBody body this CPU runs at
// the KMeans workloads' k=10, d=20, in host nanoseconds per point: at a
// typical launch size and at a 64k-point block, each launch on the same
// cached block, and at kmeans-cluster's launch of 375 points rotating
// over 360 blocks (10.8 MB), so that each launch reads its block from
// beyond L2 as that workload's launches do. Its k=2 case has most
// consecutive lanes add into the same partial row, so it times the adds
// when each lane's row was stored by the lane before.
func BenchmarkKMeansAssign(b *testing.B) {
	const d = 20
	for _, body := range kmeansBodies() {
		for _, shape := range []struct{ n, blocks, k int }{{400, 1, 10}, {1 << 16, 1, 10}, {375, 360, 10}, {400, 1, 2}} {
			name := fmt.Sprintf("%s/n=%d", body, shape.n)
			if shape.blocks > 1 {
				name += fmt.Sprintf("/blocks=%d", shape.blocks)
			}
			if shape.k != 10 {
				name += fmt.Sprintf("/k=%d", shape.k)
			}
			b.Run(name, func(b *testing.B) {
				defer useKMeansBody(body)()
				n, k := shape.n, shape.k
				points, cents, out := kmeansAssignInputs(n, k, d)
				blocks := [][]byte{points}
				rng := rand.New(rand.NewSource(1))
				for len(blocks) < shape.blocks {
					blocks = append(blocks, soaPoints(randPoints(rng, n, d), d))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kmeansAssign(blocks[i%len(blocks)], cents, out, n, k, d)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
			})
		}
	}
}

// assertWindowAggBitExact launches the windowAgg kernel over in with
// record count n and requires its slot sums to equal CPUWindowAgg's byte
// for byte.
func assertWindowAggBitExact(t *testing.T, in []byte, n, slots int) {
	t.Helper()
	got := launch(t, WindowAggKernel, [][]byte{in}, 4*slots, n, int64(n), []int64{int64(slots)})
	sums := make([]float32, slots)
	CPUWindowAgg(in, n, slots, sums)
	if want := packF32(sums); !bytes.Equal(got, want) {
		for i := range sums {
			if g, w := f32(got, i), sums[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d slots=%d: sum[%d] = %v (%#x), want %v (%#x)",
					n, slots, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// packWindow packs n (slot, value) pairs with slots drawn from
// [0, slotRange), so a slotRange above the kernel's slot count exercises
// its modulo.
func packWindow(rng *rand.Rand, n, slotRange int) []byte {
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		putU32(b, 2*i, uint32(rng.Intn(slotRange)))
		putF32(b, 2*i+1, (rng.Float32()-0.5)*1e4)
	}
	return b
}

// TestWindowAggMatchesCPU pins the windowAgg kernel to its CPU
// reference: slot values at and past the slot count, record counts past
// the buffer (the kernel clamps to len(in)/8), a ragged buffer tail, and
// an empty window.
func TestWindowAggMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name     string
		in       []byte
		n, slots int
	}{
		{"empty", nil, 0, 16},
		{"empty-buffer-n-past-end", nil, 5, 16},
		{"dense", packWindow(rng, 1024, 256), 1024, 256},
		{"slots-wrap", packWindow(rng, 500, 1<<20), 500, 7},
		{"max-slot-values", packWindow(rng, 64, math.MaxInt32), 64, 100},
		{"n-past-buffer", packWindow(rng, 300, 50), 1000, 50},
		{"n-below-buffer", packWindow(rng, 300, 50), 123, 50},
		{"ragged-tail", append(packWindow(rng, 40, 9), 1, 2, 3), 41, 9},
		{"one-slot", packWindow(rng, 200, 3), 200, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertWindowAggBitExact(t, tc.in, tc.n, tc.slots)
		})
	}
}

// TestWindowAggRejectsBadLaunch checks that each malformed launch is a
// launch error, not a panic.
func TestWindowAggRejectsBadLaunch(t *testing.T) {
	in := packWindow(rand.New(rand.NewSource(1)), 10, 8)
	cases := []struct {
		name    string
		outSize int
		args    []int64
	}{
		{"no args", 32, nil},
		{"slots=0", 32, []int64{0}},
		{"slots<0", 32, []int64{-3}},
		{"short sums", 31, []int64{8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := launchErr(t, WindowAggKernel, [][]byte{in}, tc.outSize, 10, 10, tc.args); err == nil {
				t.Error("launch succeeded")
			}
		})
	}
}

// FuzzWindowAgg compares the windowAgg kernel with CPUWindowAgg byte for
// byte on arbitrary packed bytes: any slot bits (the kernel takes them
// modulo slots), any float bits, any record count against any buffer
// length.
func FuzzWindowAgg(f *testing.F) {
	f.Add(packWindow(rand.New(rand.NewSource(2)), 37, 1000), uint16(37), uint16(100))
	f.Add([]byte{}, uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, in []byte, nRaw, slotsRaw uint16) {
		assertWindowAggBitExact(t, in, int(nRaw), int(slotsRaw%512)+1)
	})
}

func TestUpdateCentroids(t *testing.T) {
	// One cluster with two points summing to (6, 8); one empty cluster.
	partials := []float32{6, 8, 2 /* count */, 0, 0, 0}
	prev := []float32{0, 0, 42, 43}
	next := UpdateCentroids(partials, prev, 2, 2)
	if next[0] != 3 || next[1] != 4 {
		t.Errorf("cluster 0 = (%v,%v), want (3,4)", next[0], next[1])
	}
	if next[2] != 42 || next[3] != 43 {
		t.Errorf("empty cluster moved: (%v,%v)", next[2], next[3])
	}
}

func TestLinRegGradMatchesCPU(t *testing.T) {
	const n, d = 150, 6
	rng := rand.New(rand.NewSource(11))
	samples := make([][]float32, n)
	for i := range samples {
		samples[i] = make([]float32, d+1)
		for j := range samples[i] {
			samples[i][j] = rng.Float32()*2 - 1
		}
	}
	weights := make([]float32, d+1)
	for i := range weights {
		weights[i] = rng.Float32()
	}
	// SoA: d feature columns then the label column.
	buf := make([]byte, 4*n*(d+1))
	for i, s := range samples {
		for j := 0; j <= d; j++ {
			putF32(buf, j*n+i, s[j])
		}
	}
	out := launch(t, LinRegGradKernel, [][]byte{buf, packF32(weights)}, 4*(d+2), n, int64(n), []int64{d})
	got := unpackF32(out)
	want := CPULinRegGrad(samples, weights, d)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-2 {
			t.Fatalf("grad[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestApplyGradientConvergesOnLine(t *testing.T) {
	// y = 2x + 1 with d=1: gradient descent must approach (2, 1).
	const d = 1
	samples := make([][]float32, 100)
	for i := range samples {
		x := float32(i) / 50
		samples[i] = []float32{x, 2*x + 1}
	}
	w := make([]float32, d+1)
	for iter := 0; iter < 400; iter++ {
		g := CPULinRegGrad(samples, w, d)
		w = ApplyGradient(w, g, float32(len(samples)), 0.5, d)
	}
	if math.Abs(float64(w[0])-2) > 0.05 || math.Abs(float64(w[1])-1) > 0.05 {
		t.Errorf("converged to w=%v, want (2,1)", w)
	}
}

func TestSpMVMatchesCPUAndDense(t *testing.T) {
	const rows, cols = 40, 30
	rng := rand.New(rand.NewSource(3))
	dense := make([][]float32, rows)
	var rowPtr []int32
	var colIdx []int32
	var vals []float32
	rowPtr = append(rowPtr, 0)
	for r := 0; r < rows; r++ {
		dense[r] = make([]float32, cols)
		for c := 0; c < cols; c++ {
			if rng.Float32() < 0.2 {
				v := rng.Float32()
				dense[r][c] = v
				colIdx = append(colIdx, int32(c))
				vals = append(vals, v)
			}
		}
		rowPtr = append(rowPtr, int32(len(vals)))
	}
	x := make([]float32, cols)
	for i := range x {
		x[i] = rng.Float32()
	}
	// Dense reference.
	wantDense := make([]float32, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			wantDense[r] += dense[r][c] * x[c]
		}
	}
	wantCSR := CPUSpMV(rowPtr, colIdx, vals, x)
	enc := make([]byte, EncodedCSRSize(rows, len(vals)))
	EncodeCSR(enc, rowPtr, colIdx, vals)
	out := launch(t, SpMVCSRKernel, [][]byte{enc, packF32(x)}, 4*rows, rows, int64(rows), []int64{int64(len(vals))})
	got := unpackF32(out)
	for r := 0; r < rows; r++ {
		if math.Abs(float64(got[r]-wantCSR[r])) > 1e-4 || math.Abs(float64(got[r]-wantDense[r])) > 1e-3 {
			t.Fatalf("y[%d] = %v, csr %v, dense %v", r, got[r], wantCSR[r], wantDense[r])
		}
	}
}

func TestDecodeCSRValidation(t *testing.T) {
	if _, err := DecodeCSR([]byte{1, 2}); err == nil {
		t.Error("tiny buffer decoded")
	}
	buf := make([]byte, 8)
	putI32(buf, 0, 100)
	putI32(buf, 1, 100)
	if _, err := DecodeCSR(buf); err == nil {
		t.Error("truncated block decoded")
	}
}

func buildEdges(n, m int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return edges
}

func packEdges(edges [][2]int32) []byte {
	b := make([]byte, 8*len(edges))
	for i, e := range edges {
		putI32(b, i*2, e[0])
		putI32(b, i*2+1, e[1])
	}
	return b
}

func TestPageRankContribMatchesCPU(t *testing.T) {
	const n, m = 50, 300
	edges := buildEdges(n, m, 5)
	ranks := make([]float32, n)
	outdeg := make([]int32, n)
	for i := range ranks {
		ranks[i] = 1.0 / n
	}
	for _, e := range edges {
		outdeg[e[0]]++
	}
	ranksBuf := make([]byte, 4*n)
	degBuf := make([]byte, 4*n)
	for i, r := range ranks {
		putF32(ranksBuf, i, r)
	}
	for i, d := range outdeg {
		putI32(degBuf, i, d)
	}
	out := launch(t, PageRankContribKernel, [][]byte{packEdges(edges), ranksBuf, degBuf}, 4*n, m, int64(m), []int64{n})
	got := unpackF32(out)
	want := CPUPageRankContrib(edges, ranks, outdeg, n)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("contrib[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Mass conservation: nodes with outgoing edges contribute all their
	// rank.
	var total, expected float64
	for _, c := range want {
		total += float64(c)
	}
	for i := range ranks {
		if outdeg[i] > 0 {
			expected += float64(ranks[i])
		}
	}
	if math.Abs(total-expected) > 1e-4 {
		t.Errorf("mass not conserved: %v vs %v", total, expected)
	}
}

func TestApplyDamping(t *testing.T) {
	contrib := []float32{0.5, 0.25}
	out := ApplyDamping(contrib, 0.85, 2)
	for i := range out {
		want := 0.15/2 + 0.85*contrib[i]
		if math.Abs(float64(out[i]-want)) > 1e-6 {
			t.Errorf("rank[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestConnCompMatchesCPUAndConverges(t *testing.T) {
	const n = 30
	// A ring 0-1-2-...-14 and a separate clique on 15..29.
	var edges [][2]int32
	for i := 0; i < 14; i++ {
		edges = append(edges, [2]int32{int32(i), int32(i + 1)}, [2]int32{int32(i + 1), int32(i)})
	}
	for i := 15; i < 30; i++ {
		for j := 15; j < 30; j++ {
			if i != j {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	// GPU propagation until fixpoint.
	gpuLabels := append([]uint32(nil), labels...)
	for iter := 0; iter < n; iter++ {
		in := make([]byte, 4*n)
		for i, l := range gpuLabels {
			putU32(in, i, l)
		}
		out := launch(t, ConnCompKernel, [][]byte{packEdges(edges), in}, 4*n, len(edges), int64(len(edges)), []int64{n})
		next := make([]uint32, n)
		for i := range next {
			next[i] = u32(out, i)
		}
		gpuLabels = next
	}
	// CPU propagation until fixpoint.
	cpuLabels := append([]uint32(nil), labels...)
	for {
		next, changed := CPUConnCompProp(edges, cpuLabels)
		cpuLabels = next
		if !changed {
			break
		}
	}
	for i := range cpuLabels {
		if gpuLabels[i] != cpuLabels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, gpuLabels[i], cpuLabels[i])
		}
	}
	// Two components: labels 0 and 15.
	for i := 0; i < 15; i++ {
		if cpuLabels[i] != 0 {
			t.Errorf("ring node %d label %d", i, cpuLabels[i])
		}
	}
	for i := 15; i < 30; i++ {
		if cpuLabels[i] != 15 {
			t.Errorf("clique node %d label %d", i, cpuLabels[i])
		}
	}
}

func TestWordCountMatchesCPU(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog the fox")
	const table = 64
	out := launch(t, WordCountKernel, [][]byte{text}, 4*table, len(text), int64(len(text)), []int64{table})
	want := CPUWordCount(text, table)
	var gotTotal, wantTotal uint32
	for i := 0; i < table; i++ {
		got := u32(out, i)
		if got != want[i] {
			t.Fatalf("slot %d: %d want %d", i, got, want[i])
		}
		gotTotal += got
		wantTotal += want[i]
	}
	if wantTotal != 11 {
		t.Errorf("total words = %d, want 11", wantTotal)
	}
	// "the" appears 3 times; its slot must hold at least 3.
	if want[WordSlot([]byte("the"), table)] < 3 {
		t.Error("'the' undercounted")
	}
}

func TestWordCountEdgeCases(t *testing.T) {
	for _, text := range []string{"", "   ", "word", " a  b\nc "} {
		got := CPUWordCount([]byte(text), 16)
		var total uint32
		for _, c := range got {
			total += c
		}
		wantWords := map[string]uint32{"": 0, "   ": 0, "word": 1, " a  b\nc ": 3}[text]
		if total != wantWords {
			t.Errorf("%q counted %d words, want %d", text, total, wantWords)
		}
	}
}

// Property: word counting is insensitive to leading/trailing whitespace
// and linear under concatenation with a separator.
func TestWordCountConcatProperty(t *testing.T) {
	f := func(aRaw, bRaw []byte) bool {
		clean := func(raw []byte) []byte {
			out := make([]byte, len(raw))
			for i, b := range raw {
				// Map into printable ASCII with some spaces.
				if b%5 == 0 {
					out[i] = ' '
				} else {
					out[i] = 'a' + b%26
				}
			}
			return out
		}
		a, b := clean(aRaw), clean(bRaw)
		const table = 32
		ca, cb := CPUWordCount(a, table), CPUWordCount(b, table)
		joined := append(append(append([]byte{}, a...), ' '), b...)
		cj := CPUWordCount(joined, table)
		for i := 0; i < table; i++ {
			if cj[i] != ca[i]+cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
