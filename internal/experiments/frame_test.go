package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
)

// Frame lifetime, made observable for the scenarios: the sim ORB
// recycles the frame of every large request — a video frame, an ATR
// image — through its case's network once the request is settled (DESIGN
// §12 rule 1). For the whole test binary the release hook fills each
// frame with 0xDB as it goes back, so a servant or an ORB path that read
// a body after its release would compute from poison, and the golden
// details and claim checks would move. Cases run side by side, so the
// counters are atomic; each frame belongs to one case's network.
var (
	framesReleased atomic.Int64
	// doubleReleases counts frames released while still poisoned: a
	// frame in use starts with the GIOP magic.
	doubleReleases atomic.Int64
)

func init() {
	netsim.FrameReleaseHook = func(frame []byte) {
		if bytes.HasPrefix(frame, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
			doubleReleases.Add(1)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		framesReleased.Add(1)
	}
}

// TestFramesRecycledOncePerVerify: a Verify pass recycles request frames
// — so the poison above reaches the scenarios' servants — and none twice.
func TestFramesRecycledOncePerVerify(t *testing.T) {
	before := framesReleased.Load()
	for _, c := range Verify(Options{Seed: 1}) {
		if !c.OK {
			t.Errorf("%s: %s: %s", c.Experiment, c.Claim, c.Detail)
		}
	}
	if framesReleased.Load() == before {
		t.Error("a Verify pass released no frame: large requests are not recycled, or the hook is off")
	}
	if n := doubleReleases.Load(); n != 0 {
		t.Errorf("%d frames were released twice", n)
	}
}
