package kernels

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// assertKMeansBitExact launches the kmeans kernel on points and cents,
// requires its partials to equal CPUKMeansAssign's byte for byte, and
// returns them.
func assertKMeansBitExact(t *testing.T, points [][]float32, cents []float32, k, d int) []float32 {
	t.Helper()
	n := len(points)
	got := launch(t, KMeansAssignKernel,
		[][]byte{soaPoints(points, d), packF32(cents)},
		4*k*(d+1), n, int64(n), []int64{int64(k), int64(d)})
	want := packF32(CPUKMeansAssign(points, cents, k, d))
	if !bytes.Equal(got, want) {
		for i := 0; i < k*(d+1); i++ {
			if g, w := f32(got, i), f32(want, i); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d k=%d d=%d: partial[%d] = %v (%#x), want %v (%#x)",
					n, k, d, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
	return unpackF32(got)
}

// TestKMeansAssignMatchesCPU covers tile (32) and four-point remainders on
// both sides of each boundary, and d up to gstruct.MaxCols.
func TestKMeansAssignMatchesCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 200} {
		for _, k := range []int{1, 5, 10} {
			for _, d := range []int{1, 4, 20, 64} {
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
	const k, d, n = 4, 2, 37 // 37 points: full tile, then 4-wide and scalar remainders
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := launchErr(t, KMeansAssignKernel, tc.in, tc.outSize, n, n, tc.args); err == nil {
				t.Error("launch succeeded")
			}
		})
	}
}

// FuzzKMeansAssign compares the kernel with CPUKMeansAssign byte for byte
// on random shapes. With grid set, coordinates are small integers, so
// exact distance ties are common.
func FuzzKMeansAssign(f *testing.F) {
	f.Add(uint16(33), uint8(5), uint8(20), int64(1), false)
	f.Add(uint16(7), uint8(3), uint8(2), int64(2), true)
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw, dRaw uint8, seed int64, grid bool) {
		n, k, d := int(nRaw%300), int(kRaw%16)+1, int(dRaw%gstruct.MaxCols)+1
		rng := rand.New(rand.NewSource(seed))
		value := func() float32 {
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

func TestMinLabels(t *testing.T) {
	dst := []uint32{5, 1, 7}
	MinLabels(dst, []uint32{3, 2, 9})
	want := []uint32{3, 1, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
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
