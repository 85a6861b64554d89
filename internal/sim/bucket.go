package sim

import "math"

// Bucket is a token bucket on a Clock's time line: tokens accrue at a
// fixed rate per second up to the burst depth, and a spend succeeds only
// when the bucket holds the whole amount. netsim meters reserved flows
// in bytes with it, and pubsub admits events per topic.
type Bucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   Time
}

// NewBucket returns a full bucket, as of now, refilling at rate tokens
// per second up to burst.
func NewBucket(rate, burst float64, now Time) Bucket {
	return Bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// Rate returns the refill rate in tokens per second.
func (b *Bucket) Rate() float64 { return b.rate }

// Take refills the bucket up to now and spends n tokens if it holds
// them, reporting whether it did.
func (b *Bucket) Take(now Time, n float64) bool {
	if dt := now - b.last; dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt.Seconds()*b.rate)
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}
