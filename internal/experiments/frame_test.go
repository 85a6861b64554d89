package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Frame lifetime, made observable for the scenarios: the sim ORB
// recycles the frame of every request — a video frame, an ATR image, a
// control call — through its case's network once the request is settled
// (DESIGN §12 rule 1). For the whole test binary the release hook fills
// each frame with 0xDB as it goes back, so a servant or an ORB path that
// read a body after its release would compute from poison, and the
// golden details and claim checks would move. A frame that goes back
// while still poisoned — a frame in use starts with the GIOP magic — went
// back twice: the hook panics, which fails whichever test's pass did it.
// Cases run side by side, so the counter is atomic; each frame belongs to
// one case's network.
var framesReleased atomic.Int64

func init() {
	netsim.FrameReleaseHook = func(frame []byte) {
		if bytes.HasPrefix(frame, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
			panic("a frame was released twice")
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		framesReleased.Add(1)
	}
}

// TestFramesRecycledOncePerVerify: a Verify pass recycles request frames
// — so the poison above reaches the scenarios' servants — and none twice
// (the hook would panic).
func TestFramesRecycledOncePerVerify(t *testing.T) {
	before := framesReleased.Load()
	for _, c := range Verify(Options{Seed: 1}) {
		if !c.OK {
			t.Errorf("%s: %s: %s", c.Experiment, c.Claim, c.Detail)
		}
	}
	if framesReleased.Load() == before {
		t.Error("a Verify pass released no frame: requests are not recycled, or the hook is off")
	}
}

// TestFrameFreeListBounded: a case network keeps at most 16 released
// frames and 512 KiB of them, so a burst of requests in flight does not
// leave all its frames behind until the case ends. 64 video-size frames
// (13 KiB) leave 16 to hand out again; ATR-image-size frames (293 KiB)
// stop at the byte bound. A frame beyond the bound is the collector's.
func TestFrameFreeListBounded(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	n := netsim.New(k)
	drain := func() (frames, bytes int) {
		for b := n.Frame(); b != nil; b = n.Frame() {
			frames++
			bytes += cap(b)
		}
		return frames, bytes
	}
	for i := 0; i < 64; i++ {
		n.ReleaseFrame(make([]byte, 13<<10))
	}
	if f, _ := drain(); f != 16 {
		t.Errorf("the network kept %d of 64 video-size frames, want 16", f)
	}
	for i := 0; i < 8; i++ {
		n.ReleaseFrame(make([]byte, 293<<10))
	}
	if f, b := drain(); f != 1 || b > 512<<10 {
		t.Errorf("the network kept %d image-size frames, %d B, want 1 within 512 KiB", f, b)
	}
}
