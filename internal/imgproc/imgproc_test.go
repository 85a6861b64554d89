package imgproc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPaperImageSize(t *testing.T) {
	// The paper's images: 400x250 RGB, 300,000 bytes of pixels.
	im := Synthetic(400, 250, 1)
	if im.Bytes() != 300_000 {
		t.Fatalf("payload = %d", im.Bytes())
	}
}

func TestGrayWeights(t *testing.T) {
	im := NewImage(3, 1)
	im.Set(0, 0, 255, 0, 0)
	im.Set(1, 0, 0, 255, 0)
	im.Set(2, 0, 0, 0, 255)
	g := im.Gray()
	if !(g[1] > g[0] && g[0] > g[2]) {
		t.Fatalf("luminance weights wrong: R=%d G=%d B=%d", g[0], g[1], g[2])
	}
}

// edgeImage builds a sharp vertical edge.
func edgeImage(w, h int) *Image {
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x >= w/2 {
				im.Set(x, y, 255, 255, 255)
			}
		}
	}
	return im
}

func TestDetectorsFindEdge(t *testing.T) {
	im := edgeImage(32, 16)
	for _, algo := range Algorithms() {
		out := algo.Detect(im)
		edgeCol := im.W / 2
		// Strong response at the edge.
		onEdge := int(out[8*im.W+edgeCol-1]) + int(out[8*im.W+edgeCol])
		if onEdge < 200 {
			t.Errorf("%v: weak edge response %d", algo, onEdge)
		}
		// Quiet in the flat regions.
		if out[8*im.W+4] > 10 || out[8*im.W+im.W-5] > 10 {
			t.Errorf("%v: response in flat region: %d / %d",
				algo, out[8*im.W+4], out[8*im.W+im.W-5])
		}
	}
}

func TestDetectorsZeroOnFlatImage(t *testing.T) {
	im := NewImage(16, 16)
	for i := range im.Pix {
		im.Pix[i] = 128
	}
	for _, algo := range Algorithms() {
		out := algo.Detect(im)
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%v: nonzero response %d at %d on flat image", algo, v, i)
			}
		}
	}
}

func TestDetectorBordersZero(t *testing.T) {
	im := Synthetic(20, 12, 3)
	for _, algo := range Algorithms() {
		out := algo.Detect(im)
		for x := 0; x < im.W; x++ {
			if out[x] != 0 || out[(im.H-1)*im.W+x] != 0 {
				t.Fatalf("%v: border response at column %d", algo, x)
			}
		}
	}
}

func TestCyclesOrdering(t *testing.T) {
	// Kirsch (8 masks) must cost the most; Sobel slightly above Prewitt.
	k := AlgoKirsch.Cycles(400, 250)
	p := AlgoPrewitt.Cycles(400, 250)
	s := AlgoSobel.Cycles(400, 250)
	if !(k > s && s > p) {
		t.Fatalf("cycle ordering: Kirsch=%.0f Sobel=%.0f Prewitt=%.0f", k, s, p)
	}
	// On the paper's 850 MHz machine each image should take tens to a
	// couple hundred ms.
	for _, c := range []float64{k, p, s} {
		ms := c / 850e6 * 1e3
		if ms < 10 || ms > 500 {
			t.Fatalf("per-image time %.1f ms out of plausible range", ms)
		}
	}
}

func TestCyclesScaleWithPixels(t *testing.T) {
	prop := func(w1, h1, w2, h2 uint8) bool {
		a := AlgoKirsch.Cycles(int(w1)+1, int(h1)+1)
		b := AlgoKirsch.Cycles(int(w2)+1, int(h2)+1)
		p1 := (int(w1) + 1) * (int(h1) + 1)
		p2 := (int(w2) + 1) * (int(h2) + 1)
		if p1 == p2 {
			return a == b
		}
		if p1 < p2 {
			return a < b
		}
		return a > b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(64, 48, 42)
	b := Synthetic(64, 48, 42)
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Fatal("synthetic image generation not deterministic")
	}
	c := Synthetic(64, 48, 43)
	if bytes.Equal(a.Pix, c.Pix) {
		t.Fatal("different seeds produced identical images")
	}
}
