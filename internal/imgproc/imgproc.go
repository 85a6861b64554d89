// Package imgproc provides the image-processing substrate for the
// paper's ATR (automatic target recognition) experiments: synthetic RGB
// images, grayscale conversion, and the three computationally intensive
// edge-detection algorithms the paper runs — Prewitt, Sobel, and Kirsch
// — implemented as real convolutions.
//
// The scheduling experiments (Table 2) and examples/atr never run the
// detectors: a calibrated cycle-cost model (Algorithm.Cycles) converts
// each algorithm's per-pixel work into simulated CPU time. The
// detectors are kept, and unit-tested on synthetic images, as the
// computation that model stands for.
package imgproc

import (
	"fmt"
	"math"
)

// Image is an 8-bit RGB image.
type Image struct {
	W, H int
	// Pix holds RGB triples, row-major: Pix[3*(y*W+x)+c].
	Pix []uint8
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// Set writes the RGB components at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Bytes returns the image's in-memory size, which is also its PPM payload
// size (the paper's 400x250 RGB images are 300,060 bytes with header).
func (im *Image) Bytes() int { return len(im.Pix) }

// Gray converts to a luminance plane using integer Rec.601 weights.
func (im *Image) Gray() []uint8 {
	out := make([]uint8, im.W*im.H)
	for i := 0; i < im.W*im.H; i++ {
		r := int(im.Pix[3*i])
		g := int(im.Pix[3*i+1])
		b := int(im.Pix[3*i+2])
		out[i] = uint8((299*r + 587*g + 114*b) / 1000)
	}
	return out
}

// Synthetic generates a deterministic test image with gradients and
// rectangles — content with real edges for the detectors to find. The
// paper's experiments use 400x250 images.
func Synthetic(w, h int, seed int64) *Image {
	im := NewImage(w, h)
	s := uint64(seed)*2654435761 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	// Background gradient.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, uint8(255*x/w), uint8(255*y/h), uint8((x+y)%256))
		}
	}
	// A handful of solid rectangles ("targets").
	for i := 0; i < 6; i++ {
		x0 := int(next() % uint64(w))
		y0 := int(next() % uint64(h))
		rw := 10 + int(next()%uint64(w/4))
		rh := 10 + int(next()%uint64(h/4))
		r, g, b := uint8(next()), uint8(next()), uint8(next())
		for y := y0; y < y0+rh && y < h; y++ {
			for x := x0; x < x0+rw && x < w; x++ {
				im.Set(x, y, r, g, b)
			}
		}
	}
	return im
}

// kernel3 is a 3x3 convolution mask.
type kernel3 [9]int

func (k kernel3) at(g []uint8, w, x, y int) int {
	sum := 0
	i := 0
	for dy := -1; dy <= 1; dy++ {
		row := (y + dy) * w
		for dx := -1; dx <= 1; dx++ {
			sum += k[i] * int(g[row+x+dx])
			i++
		}
	}
	return sum
}

func clamp255(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// gradient2 runs a two-mask gradient operator and returns the magnitude
// plane (border pixels are zero).
func gradient2(g []uint8, w, h int, kx, ky kernel3) []uint8 {
	out := make([]uint8, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			gx := kx.at(g, w, x, y)
			gy := ky.at(g, w, x, y)
			out[y*w+x] = clamp255(int(math.Sqrt(float64(gx*gx + gy*gy))))
		}
	}
	return out
}

// Sobel computes the Sobel edge magnitude of the image's luminance.
func Sobel(im *Image) []uint8 {
	kx := kernel3{-1, 0, 1, -2, 0, 2, -1, 0, 1}
	ky := kernel3{-1, -2, -1, 0, 0, 0, 1, 2, 1}
	return gradient2(im.Gray(), im.W, im.H, kx, ky)
}

// Prewitt computes the Prewitt edge magnitude of the image's luminance.
func Prewitt(im *Image) []uint8 {
	kx := kernel3{-1, 0, 1, -1, 0, 1, -1, 0, 1}
	ky := kernel3{-1, -1, -1, 0, 0, 0, 1, 1, 1}
	return gradient2(im.Gray(), im.W, im.H, kx, ky)
}

// kirschMasks are the eight compass masks of the Kirsch operator.
var kirschMasks = [8]kernel3{
	{5, 5, 5, -3, 0, -3, -3, -3, -3},
	{5, 5, -3, 5, 0, -3, -3, -3, -3},
	{5, -3, -3, 5, 0, -3, 5, -3, -3},
	{-3, -3, -3, 5, 0, -3, 5, 5, -3},
	{-3, -3, -3, -3, 0, -3, 5, 5, 5},
	{-3, -3, -3, -3, 0, 5, -3, 5, 5},
	{-3, -3, 5, -3, 0, 5, -3, -3, 5},
	{-3, 5, 5, -3, 0, 5, -3, -3, -3},
}

// Kirsch computes the Kirsch edge magnitude: the maximum response over
// eight compass masks, making it roughly four times the work of the
// two-mask operators.
func Kirsch(im *Image) []uint8 {
	g := im.Gray()
	w, h := im.W, im.H
	out := make([]uint8, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			best := 0
			for _, k := range kirschMasks {
				if v := k.at(g, w, x, y); v > best {
					best = v
				}
			}
			out[y*w+x] = clamp255(best / 8)
		}
	}
	return out
}

// Algorithm identifies an edge detector for the cost model and harness.
type Algorithm int

// The paper's three detectors.
const (
	AlgoKirsch Algorithm = iota + 1
	AlgoPrewitt
	AlgoSobel
)

func (a Algorithm) String() string {
	switch a {
	case AlgoKirsch:
		return "Kirsch"
	case AlgoPrewitt:
		return "Prewitt"
	case AlgoSobel:
		return "Sobel"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the detectors in the paper's Table 2 order.
func Algorithms() []Algorithm { return []Algorithm{AlgoKirsch, AlgoPrewitt, AlgoSobel} }

// Detect runs the detector on im.
func (a Algorithm) Detect(im *Image) []uint8 {
	switch a {
	case AlgoKirsch:
		return Kirsch(im)
	case AlgoPrewitt:
		return Prewitt(im)
	case AlgoSobel:
		return Sobel(im)
	default:
		panic("imgproc: unknown algorithm")
	}
}

// Cycle-cost calibration. Each mask application touches 9 pixels with a
// multiply-accumulate plus loop and memory overhead; the constants are
// chosen so the per-image processing times on the paper's 850 MHz
// Pentium III land in the same range as its Table 2 (tens to a couple
// hundred milliseconds per 400x250 image, Kirsch costliest).
const (
	cyclesPerMaskPixel = 180
	// sqrtCycles models the magnitude computation of the two-mask
	// gradient operators.
	sqrtCycles = 60
	// grayCyclesPerPixel models the RGB -> luminance pass.
	grayCyclesPerPixel = 12
)

// Cycles estimates the CPU cycles algorithm a spends on a wxh image; the
// simulation divides by the host clock rate to obtain compute time.
func (a Algorithm) Cycles(w, h int) float64 {
	pixels := float64(w * h)
	gray := grayCyclesPerPixel * pixels
	switch a {
	case AlgoKirsch:
		return gray + 8*cyclesPerMaskPixel*pixels
	case AlgoPrewitt:
		return gray + (2*cyclesPerMaskPixel+sqrtCycles)*pixels
	case AlgoSobel:
		// Sobel's weighted masks cost slightly more than Prewitt's.
		return gray + (2*cyclesPerMaskPixel+sqrtCycles)*pixels*1.15
	default:
		panic("imgproc: unknown algorithm")
	}
}
