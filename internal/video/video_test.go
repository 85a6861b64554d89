package video

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultGOPStructure(t *testing.T) {
	g := NewGenerator()
	counts := map[FrameType]int{}
	for i := 0; i < 15; i++ {
		counts[g.Next().Type]++
	}
	if counts[FrameI] != 1 || counts[FrameP] != 4 || counts[FrameB] != 10 {
		t.Fatalf("GOP composition = %v, want 1 I / 4 P / 10 B", counts)
	}
}

func TestIFrameRateIsTwoPerSecond(t *testing.T) {
	g := NewGenerator()
	iFrames := 0
	for i := 0; i < 30; i++ { // one second at 30 fps
		if g.Next().Type == FrameI {
			iFrames++
		}
	}
	if iFrames != 2 {
		t.Fatalf("I frames per second = %d, want 2 (paper: MPEG-1 I-frames at 2 fps)", iFrames)
	}
}

func TestBitrateMatchesConfig(t *testing.T) {
	g := NewGenerator()
	total := 0
	const frames = 300 // 10 seconds
	for i := 0; i < frames; i++ {
		total += g.Next().Size
	}
	gotBps := float64(total) * 8 / 10
	if gotBps < 1.1e6 || gotBps > 1.25e6 {
		t.Fatalf("generated bitrate = %.0f bps, want ~1.2e6", gotBps)
	}
}

func TestFrameSizeOrdering(t *testing.T) {
	g := NewGenerator()
	i, p, b := g.sizeI, g.sizeP, g.sizeB
	if !(i > p && p > b && b > 0) {
		t.Fatalf("frame sizes I=%d P=%d B=%d, want I > P > B > 0", i, p, b)
	}
}

func TestPTSSpacing(t *testing.T) {
	g := NewGenerator()
	prev := g.Next()
	for i := 0; i < 60; i++ {
		f := g.Next()
		gap := f.PTS - prev.PTS
		// Integer nanosecond arithmetic makes gaps alternate around
		// 1s/30; a 1ns wobble is expected.
		if gap < time.Second/30-time.Nanosecond || gap > time.Second/30+time.Nanosecond {
			t.Fatalf("PTS gap = %v at seq %d", gap, f.Seq)
		}
		prev = f
	}
}

func TestFilterAdmits(t *testing.T) {
	cases := []struct {
		l    FilterLevel
		t    FrameType
		want bool
	}{
		{FilterNone, FrameI, true}, {FilterNone, FrameP, true}, {FilterNone, FrameB, true},
		{FilterIP, FrameI, true}, {FilterIP, FrameP, true}, {FilterIP, FrameB, false},
		{FilterIOnly, FrameI, true}, {FilterIOnly, FrameP, false}, {FilterIOnly, FrameB, false},
	}
	for _, c := range cases {
		if got := c.l.Admits(c.t); got != c.want {
			t.Errorf("%v.Admits(%v) = %v, want %v", c.l, c.t, got, c.want)
		}
	}
}

// passed returns the frames per second and bits per second level lets
// through over ten seconds of the default stream.
func passed(l FilterLevel) (fps, bps float64) {
	g := NewGenerator()
	var frames, bytes int
	for i := 0; i < 300; i++ {
		if f := g.Next(); l.Admits(f.Type) {
			frames++
			bytes += f.Size
		}
	}
	return float64(frames) / 10, float64(bytes) * 8 / 10
}

func TestFilterRates(t *testing.T) {
	if fps, _ := passed(FilterNone); fps != 30 {
		t.Fatalf("FilterNone fps = %v", fps)
	}
	if fps, _ := passed(FilterIP); fps != 10 {
		t.Fatalf("FilterIP fps = %v, want 10 (paper's intermediate rate)", fps)
	}
	if fps, _ := passed(FilterIOnly); fps != 2 {
		t.Fatalf("FilterIOnly fps = %v, want 2 (paper's minimum rate)", fps)
	}
}

func TestFilterBitrates(t *testing.T) {
	_, full := passed(FilterNone)
	_, ip := passed(FilterIP)
	_, iOnly := passed(FilterIOnly)
	if !(full > ip && ip > iOnly && iOnly > 0) {
		t.Fatalf("bitrates %v > %v > %v violated", full, ip, iOnly)
	}
	// I-only should be well under the paper's 670 Kbps partial
	// reservation so that filtering + partial reservation succeeds.
	if iOnly > 670e3 {
		t.Fatalf("I-only bitrate %.0f exceeds the partial reservation", iOnly)
	}
}

func TestDeliveryStats(t *testing.T) {
	s := NewDeliveryStats()
	g := NewGenerator()
	for i := 0; i < 30; i++ {
		f := g.Next()
		at := time.Duration(i) * 33 * time.Millisecond
		s.RecordSent(f, at)
		if f.Type == FrameI {
			s.RecordReceived(f, at+10*time.Millisecond)
		}
	}
	if s.SentTotal != 30 || s.ReceivedTotal != 2 {
		t.Fatalf("sent=%d recv=%d", s.SentTotal, s.ReceivedTotal)
	}
	frac := float64(s.ReceivedTotal) / float64(s.SentTotal)
	if frac < 0.06 || frac > 0.07 {
		t.Fatalf("delivered fraction = %v", frac)
	}
	sent, recv := s.PerSecond(2)
	if sent[0] != 30 || recv[0] != 2 {
		t.Fatalf("per-second: sent=%v recv=%v", sent, recv)
	}
}

// Property: over any whole number of GOPs the generator emits exactly
// the stream's composition, 1 I, 4 P and 10 B frames per GOP.
func TestGOPCompositionProperty(t *testing.T) {
	prop := func(gops uint8) bool {
		n := int(gops%8) + 1
		g := NewGenerator()
		counts := map[FrameType]int{}
		for i := 0; i < n*gopSize; i++ {
			counts[g.Next().Type]++
		}
		return counts[FrameI] == n && counts[FrameP] == n*pFrames && counts[FrameB] == n*(gopSize-1-pFrames)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
