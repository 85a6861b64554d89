package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
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
