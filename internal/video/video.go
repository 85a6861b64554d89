// Package video models MPEG-1 video streams at the granularity the
// paper's experiments need: a GOP (group of pictures) structure with
// I/P/B frame types and sizes derived from the stream bitrate, plus the
// QuO-style frame filters that thin a stream to the rates the paper's
// adaptation used (30 fps full rate, 10 fps = I+P frames only, 2 fps =
// I frames only).
package video

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// FrameType classifies an MPEG frame.
type FrameType int

// MPEG frame types.
const (
	// FrameI is an intra-coded (full content) frame.
	FrameI FrameType = iota + 1
	// FrameP is a forward-predicted frame.
	FrameP
	// FrameB is a bidirectionally predicted frame.
	FrameB
)

func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", int(t))
	}
}

// Frame is one video frame.
type Frame struct {
	// Seq is the frame number in the stream, from 0.
	Seq int64
	// Type is the MPEG frame type.
	Type FrameType
	// Size is the encoded size in bytes.
	Size int
	// PTS is the frame's presentation timestamp: Seq / FPS.
	PTS time.Duration
}

// StreamConfig describes an MPEG stream.
type StreamConfig struct {
	// FPS is the frame rate. Defaults to 30, the paper's full-motion
	// rate.
	FPS int
	// GOPSize is the frames per group of pictures. Defaults to 15,
	// giving 2 I-frames per second at 30 fps as the paper states.
	GOPSize int
	// PFrames is the number of P frames per GOP. Defaults to 4, so that
	// I+P frames arrive at 10 fps — the paper's intermediate filter
	// rate.
	PFrames int
	// BitrateBps is the stream bitrate in bits per second. Defaults to
	// 1.2 Mbps, the paper's MPEG-1 rate at 30 fps.
	BitrateBps float64
	// SizeRatioI and SizeRatioP scale I and P frame sizes relative to a
	// B frame. Defaults 5 and 3 (typical MPEG-1 ratios).
	SizeRatioI, SizeRatioP int
}

// withDefaults returns cfg with zero fields filled in.
func (cfg StreamConfig) withDefaults() StreamConfig {
	if cfg.FPS == 0 {
		cfg.FPS = 30
	}
	if cfg.GOPSize == 0 {
		cfg.GOPSize = 15
	}
	if cfg.PFrames == 0 {
		cfg.PFrames = 4
	}
	if cfg.BitrateBps == 0 {
		cfg.BitrateBps = 1.2e6
	}
	if cfg.SizeRatioI == 0 {
		cfg.SizeRatioI = 5
	}
	if cfg.SizeRatioP == 0 {
		cfg.SizeRatioP = 3
	}
	return cfg
}

// FrameInterval returns the time between frames.
func (cfg StreamConfig) FrameInterval() time.Duration {
	c := cfg.withDefaults()
	return time.Second / time.Duration(c.FPS)
}

// Generator produces the deterministic frame sequence of a stream.
type Generator struct {
	cfg   StreamConfig
	seq   int64
	sizeI int
	sizeP int
	sizeB int
}

// NewGenerator creates a generator for cfg.
func NewGenerator(cfg StreamConfig) *Generator {
	c := cfg.withDefaults()
	// Bytes per GOP = bitrate * gop duration / 8. Distribute over
	// 1 I + PFrames P + rest B in the configured ratios.
	gopSeconds := float64(c.GOPSize) / float64(c.FPS)
	gopBytes := c.BitrateBps * gopSeconds / 8
	bFrames := c.GOPSize - 1 - c.PFrames
	if bFrames < 0 {
		panic(fmt.Sprintf("video: GOP %d too small for %d P frames", c.GOPSize, c.PFrames))
	}
	units := float64(c.SizeRatioI + c.PFrames*c.SizeRatioP + bFrames)
	unit := gopBytes / units
	return &Generator{
		cfg:   c,
		sizeI: int(unit * float64(c.SizeRatioI)),
		sizeP: int(unit * float64(c.SizeRatioP)),
		sizeB: int(unit),
	}
}

// Config returns the generator's (defaulted) configuration.
func (g *Generator) Config() StreamConfig { return g.cfg }

// Next returns the next frame in the stream.
func (g *Generator) Next() Frame {
	seq := g.seq
	g.seq++
	pos := int(seq % int64(g.cfg.GOPSize))
	f := Frame{
		Seq: seq,
		PTS: time.Duration(seq) * time.Second / time.Duration(g.cfg.FPS),
	}
	switch {
	case pos == 0:
		f.Type = FrameI
		f.Size = g.sizeI
	case g.isPSlot(pos):
		f.Type = FrameP
		f.Size = g.sizeP
	default:
		f.Type = FrameB
		f.Size = g.sizeB
	}
	return f
}

// isPSlot spreads the P frames evenly through the GOP after the I frame.
func (g *Generator) isPSlot(pos int) bool {
	if g.cfg.PFrames == 0 {
		return false
	}
	span := g.cfg.GOPSize - 1
	stride := span / g.cfg.PFrames
	if stride == 0 {
		return true
	}
	return pos%stride == 0 && pos/stride <= g.cfg.PFrames
}

// FilterLevel is a QuO frame-filtering level.
type FilterLevel int

// Filter levels, from no filtering to I-frames only.
const (
	// FilterNone passes every frame (full rate).
	FilterNone FilterLevel = iota
	// FilterIP passes I and P frames (10 fps with default config).
	FilterIP
	// FilterIOnly passes only I frames (2 fps with default config).
	FilterIOnly
)

func (l FilterLevel) String() string {
	switch l {
	case FilterNone:
		return "none"
	case FilterIP:
		return "I+P"
	case FilterIOnly:
		return "I-only"
	default:
		return fmt.Sprintf("FilterLevel(%d)", int(l))
	}
}

// Admits reports whether a frame of type t passes the filter.
func (l FilterLevel) Admits(t FrameType) bool {
	switch l {
	case FilterNone:
		return true
	case FilterIP:
		return t == FrameI || t == FrameP
	case FilterIOnly:
		return t == FrameI
	default:
		return true
	}
}

// DeliveryStats accumulates per-type and per-second frame delivery
// accounting, the raw material for the paper's Figure 7 and Table 1.
type DeliveryStats struct {
	SentTotal     int64
	ReceivedTotal int64
	SentByType    map[FrameType]int64
	RecvByType    map[FrameType]int64
	sentPerSec    map[int]int64
	recvPerSec    map[int]int64
}

// NewDeliveryStats returns empty statistics.
func NewDeliveryStats() *DeliveryStats {
	return &DeliveryStats{
		SentByType: make(map[FrameType]int64),
		RecvByType: make(map[FrameType]int64),
		sentPerSec: make(map[int]int64),
		recvPerSec: make(map[int]int64),
	}
}

// RecordSent notes a frame entering the network at time t.
func (s *DeliveryStats) RecordSent(f Frame, t sim.Time) {
	s.SentTotal++
	s.SentByType[f.Type]++
	s.sentPerSec[int(t/time.Second)]++
}

// RecordReceived notes a frame delivered at time t.
func (s *DeliveryStats) RecordReceived(f Frame, t sim.Time) {
	s.ReceivedTotal++
	s.RecvByType[f.Type]++
	s.recvPerSec[int(t/time.Second)]++
}

// PerSecond returns (sent, received) counts for each whole second in
// [0, horizon).
func (s *DeliveryStats) PerSecond(horizon int) (sent, recv []int64) {
	sent = make([]int64, horizon)
	recv = make([]int64, horizon)
	for sec, n := range s.sentPerSec {
		if sec >= 0 && sec < horizon {
			sent[sec] = n
		}
	}
	for sec, n := range s.recvPerSec {
		if sec >= 0 && sec < horizon {
			recv[sec] = n
		}
	}
	return sent, recv
}
