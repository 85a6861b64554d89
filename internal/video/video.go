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
	// PTS is the frame's presentation timestamp: Seq / 30 fps.
	PTS time.Duration
}

// The stream every program runs: the paper's MPEG-1 at 1.2 Mbps, 30 fps
// full motion, a 15-frame GOP (2 I frames per second) with 4 P frames,
// so that I+P frames arrive at 10 fps — the paper's intermediate filter
// rate. I and P frames are 5 and 3 times a B frame (typical MPEG-1
// ratios).
const (
	fps        = 30
	gopSize    = 15
	pFrames    = 4
	bitrateBps = 1.2e6
	sizeRatioI = 5
	sizeRatioP = 3
	// pStride spreads the P frames evenly through the GOP after the I
	// frame.
	pStride = (gopSize - 1) / pFrames
)

// FrameInterval is the time between frames.
const FrameInterval = time.Second / fps

// Generator produces the deterministic frame sequence of the stream.
type Generator struct {
	seq   int64
	sizeI int
	sizeP int
	sizeB int
}

// NewGenerator creates a generator for the stream.
func NewGenerator() *Generator {
	// Bytes per GOP = bitrate * gop duration / 8. Distribute over
	// 1 I + pFrames P + rest B in the configured ratios.
	gopSeconds := float64(gopSize) / float64(fps)
	gopBytes := bitrateBps * gopSeconds / 8
	bFrames := gopSize - 1 - pFrames
	units := float64(sizeRatioI + pFrames*sizeRatioP + bFrames)
	unit := gopBytes / units
	return &Generator{
		sizeI: int(unit * float64(sizeRatioI)),
		sizeP: int(unit * float64(sizeRatioP)),
		sizeB: int(unit),
	}
}

// Next returns the next frame in the stream.
func (g *Generator) Next() Frame {
	seq := g.seq
	g.seq++
	pos := int(seq % gopSize)
	f := Frame{
		Seq: seq,
		PTS: time.Duration(seq) * time.Second / fps,
	}
	switch {
	case pos == 0:
		f.Type = FrameI
		f.Size = g.sizeI
	case pos%pStride == 0 && pos/pStride <= pFrames:
		f.Type = FrameP
		f.Size = g.sizeP
	default:
		f.Type = FrameB
		f.Size = g.sizeB
	}
	return f
}

// FilterLevel is a QuO frame-filtering level.
type FilterLevel int

// Filter levels, from no filtering to I-frames only.
const (
	// FilterNone passes every frame (full rate).
	FilterNone FilterLevel = iota
	// FilterIP passes I and P frames (10 fps).
	FilterIP
	// FilterIOnly passes only I frames (2 fps).
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
