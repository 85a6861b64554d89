package core

import (
	"time"

	"repro/internal/avstreams"
	"repro/internal/quo"
	"repro/internal/video"
)

// VideoAdaptation is the packaged QuO behaviour ("qosket") that watches a
// stream's delivery quality and adjusts frame filtering to the rate the
// network will support — the paper's dynamic reaction that filtered
// frames down to 10 fps or 2 fps under load, and back up when the load
// cleared.
type VideoAdaptation struct {
	Qosket   *quo.Qosket
	stream   *avstreams.Stream
	receiver *avstreams.Receiver
	loss     *quo.EWMACond

	lastSent int64
	lastRecv int64
	quiet    int // consecutive clean windows, for recovery hysteresis
	backoff  int // doubles after each failed upward probe
	probing  bool

	// Levels holds the filter ladder from least to most aggressive.
	Levels []video.FilterLevel
	level  int

	// Transitions counts filter level changes.
	Transitions int64
}

// The adaptation qosket's tuning, which every program runs.
const (
	// adaptWindow is the sampling/evaluation period.
	adaptWindow = 500 * time.Millisecond
	// escalateLoss is the loss fraction above which filtering
	// escalates: a stream that cannot deliver ~92% of its (already
	// filtered) frames does not fit and must thin further.
	escalateLoss = 0.08
	// recoverLoss is the loss fraction below which the stream is
	// considered clean.
	recoverLoss = 0.02
	// recoverAfter is how many consecutive clean windows precede a
	// de-escalation (an upward probe): probing too eagerly costs frames
	// every time the network is still loaded.
	recoverAfter = 6
)

// NewVideoAdaptation wires the qosket between a sender-side stream and
// its receiver and starts periodic contract evaluation. The receiver's
// delivery statistics stand in for the A/V service's control channel
// feedback.
func (s *System) NewVideoAdaptation(stream *avstreams.Stream, recv *avstreams.Receiver) *VideoAdaptation {
	va := &VideoAdaptation{
		stream:   stream,
		receiver: recv,
		loss:     quo.NewEWMACond("loss", 0.5),
		Levels:   []video.FilterLevel{video.FilterNone, video.FilterIP, video.FilterIOnly},
		backoff:  1,
	}

	contract := quo.NewContract("video-adaptation", adaptWindow).
		AddRegion(quo.Region{Name: "overloaded", When: func(v quo.Values) bool {
			return v["loss"] > escalateLoss
		}}).
		AddRegion(quo.Region{Name: "clean", When: func(v quo.Values) bool {
			return v["loss"] < recoverLoss
		}}).
		AddRegion(quo.Region{Name: "marginal"})
	va.Qosket = quo.NewQosket("video-adaptation", contract, va.loss)

	// The probe updates the loss condition from the delivery counters
	// just before each contract evaluation.
	var tick func()
	tick = func() {
		va.sample()
		contract.Eval()
		va.apply()
		s.K.After(adaptWindow, tick)
	}
	s.K.After(adaptWindow, tick)
	return va
}

// sample folds the last window's delivery into the loss condition.
func (va *VideoAdaptation) sample() {
	sent := va.stream.Stats.SentTotal
	recv := va.receiver.Stats.ReceivedTotal
	dSent := sent - va.lastSent
	dRecv := recv - va.lastRecv
	va.lastSent = sent
	va.lastRecv = recv
	if dSent == 0 {
		return
	}
	loss := 1 - float64(dRecv)/float64(dSent)
	if loss < 0 {
		loss = 0
	}
	va.loss.Observe(loss)
}

// apply adjusts the filter ladder per the contract region.
func (va *VideoAdaptation) apply() {
	switch va.Qosket.Contract.Region() {
	case "overloaded":
		va.quiet = 0
		if va.probing {
			// The upward probe failed: back off exponentially so
			// repeated probing does not bleed frames while the load
			// persists.
			va.probing = false
			if va.backoff < 8 {
				va.backoff *= 2
			}
		}
		if va.level < len(va.Levels)-1 {
			if va.loss.Value() > 0.5 {
				// Catastrophic loss: jump straight to the most
				// aggressive level ("10 fps or 2 fps, whichever the
				// network would support") instead of bleeding frames
				// while stepping down one rung per window.
				va.level = len(va.Levels) - 1
			} else {
				va.level++
			}
			va.stream.SetFilter(va.Levels[va.level])
			va.Transitions++
			// Re-baseline the smoothed loss so the new level gets a
			// fair evaluation window.
			va.loss.Observe(0)
		}
	case "clean":
		va.quiet++
		if va.probing {
			// The probe held for a clean window: accept the new level
			// and reset the backoff.
			va.probing = false
			va.backoff = 1
		}
		if va.quiet >= recoverAfter*va.backoff && va.level > 0 {
			va.quiet = 0
			va.level--
			va.probing = true
			va.stream.SetFilter(va.Levels[va.level])
			va.Transitions++
		}
	default:
		va.quiet = 0
	}
}

// Level returns the current position in the filter ladder.
func (va *VideoAdaptation) Level() video.FilterLevel { return va.Levels[va.level] }
