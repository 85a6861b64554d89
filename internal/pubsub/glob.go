package pubsub

import "strings"

// MatchTopic reports whether a '/'-separated topic matches a
// subscription pattern. Patterns are matched segment-wise: a literal
// segment matches itself, "*" matches exactly one segment, and "**"
// matches any run of segments (including none). "**" alone therefore
// matches every topic, "camera/*" matches "camera/front" but not
// "camera/front/raw", and "camera/**" matches both. Every string has at
// least one segment: "" is one empty segment, "a/" two.
//
// The segments are walked in place, so matching allocates nothing; it
// runs once per subscriber per published event.
func MatchTopic(pattern, topic string) bool {
	return matchSegs(pattern, topic, true)
}

// matchSegs matches the segments of p against those of t. p always has at
// least one segment; t has none when more is false.
func matchSegs(p, t string, more bool) bool {
	for {
		seg, prest, pmore := strings.Cut(p, "/")
		if seg == "**" {
			if !pmore {
				return true
			}
			// Let "**" take zero segments, then one more each round.
			for {
				if matchSegs(prest, t, more) {
					return true
				}
				if !more {
					return false
				}
				_, t, more = strings.Cut(t, "/")
			}
		}
		if !more {
			return false
		}
		tseg, trest, tmore := strings.Cut(t, "/")
		if seg != "*" && seg != tseg {
			return false
		}
		if !pmore {
			return !tmore
		}
		p, t, more = prest, trest, tmore
	}
}
