package pubsub

import (
	"strings"
	"testing"
)

// refMatchTopic is the Split-based matcher MatchTopic replaced, kept as the
// reference it must agree with on every input.
func refMatchTopic(pattern, topic string) bool {
	return refMatchSegs(strings.Split(pattern, "/"), strings.Split(topic, "/"))
}

func refMatchSegs(p, t []string) bool {
	for len(p) > 0 {
		switch p[0] {
		case "**":
			if len(p) == 1 {
				return true
			}
			for i := 0; i <= len(t); i++ {
				if refMatchSegs(p[1:], t[i:]) {
					return true
				}
			}
			return false
		case "*":
			if len(t) == 0 {
				return false
			}
		default:
			if len(t) == 0 || p[0] != t[0] {
				return false
			}
		}
		p, t = p[1:], t[1:]
	}
	return len(t) == 0
}

func TestMatchTopic(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"camera/front", "camera/front", true},
		{"camera/front", "camera/back", false},
		{"camera/front", "camera", false},
		{"camera/*", "camera/front", true},
		{"camera/*", "camera/front/raw", false},
		{"camera/*", "camera", false},
		{"camera/**", "camera/front", true},
		{"camera/**", "camera/front/raw", true},
		{"camera/**", "camera", true}, // ** matches zero segments
		{"camera/**", "audio/mic", false},
		{"**", "anything/at/all", true},
		{"**", "x", true},
		{"*/front", "camera/front", true},
		{"*/front", "camera/back", false},
		{"**/raw", "camera/front/raw", true},
		{"**/raw", "raw", true},
		{"**/raw", "camera/raw/cooked", false},
		{"a/**/z", "a/z", true},
		{"a/**/z", "a/b/c/z", true},
		{"a/**/z", "a/b/c", false},
		{"", "", true},
		{"", "x", false},
		// Empty segments count: "" is one, "/" and "a/" are two.
		{"", "/", false},
		{"/", "", false},
		{"/", "/", true},
		{"*", "", true},
		{"*", "/", false},
		{"*/*", "/", true},
		{"a/", "a/", true},
		{"a/", "a", false},
		{"a/*", "a/", true},
		{"a/**", "a/", true},
		{"/a", "a", false},
		{"/*", "/a", true},
		{"**", "", true},
		{"**", "/", true},
		{"**/x", "x", true},
		{"**/x", "/x", true},
		{"**/x", "a/b/x", true},
		{"**/x", "x/", false},
		{"**/x", "", false},
		{"**/", "a/", true},
		{"**/", "a", false},
		{"a/**/b", "a/b", true},
		{"a/**/b", "a//b", true},
		{"a/**/b", "a/x/y/b", true},
		{"a/**/b", "a/b/c", false},
		{"a/**/b", "b", false},
		{"a/*", "a/b/", false},
		{"a/b/*", "a/b/c", true},
		{"a/b/*", "a/b", false},
		{"**/**", "a/b", true},
		{"**/*", "", true},
		{"*/**", "", true}, // "*" takes the one empty segment
	}
	for _, c := range cases {
		if got := MatchTopic(c.pattern, c.topic); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
		if ref := refMatchTopic(c.pattern, c.topic); ref != c.want {
			t.Errorf("reference matcher(%q, %q) = %v, want %v", c.pattern, c.topic, ref, c.want)
		}
	}
}

// FuzzMatchTopic checks that MatchTopic agrees with the Split-based
// reference on every pattern and topic.
func FuzzMatchTopic(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"/", ""}, {"", "/"}, {"a/", "a/"}, {"**/x", "a/x"}, {"a/**/b", "a//b"},
		{"*", "x"}, {"x/*", "x/"}, {"**", "a/b/c"}, {"**/*/**", "a/b"}, {"*/**/*", "a"},
		{"camera/**", "camera/front/raw"}, {"**/**/z", "a/z/z"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, topic string) {
		if got, want := MatchTopic(pattern, topic), refMatchTopic(pattern, topic); got != want {
			t.Fatalf("MatchTopic(%q, %q) = %v, reference %v", pattern, topic, got, want)
		}
	})
}

// TestMatchTopicAgreesExhaustively compares MatchTopic with the reference
// on every pattern of up to four segments drawn from {"", a, b, *, **}
// against every topic of up to four segments drawn from {"", a, b}.
func TestMatchTopicAgreesExhaustively(t *testing.T) {
	paths := func(segs []string) []string {
		var out, level []string
		level = append(level, segs...)
		for n := 1; n <= 4; n++ {
			out = append(out, level...)
			var next []string
			for _, p := range level {
				for _, s := range segs {
					next = append(next, p+"/"+s)
				}
			}
			level = next
		}
		return out
	}
	topics := paths([]string{"", "a", "b"})
	for _, p := range paths([]string{"", "a", "b", "*", "**"}) {
		for _, tp := range topics {
			if got, want := MatchTopic(p, tp), refMatchTopic(p, tp); got != want {
				t.Fatalf("MatchTopic(%q, %q) = %v, reference %v", p, tp, got, want)
			}
		}
	}
}
