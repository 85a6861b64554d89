package quo

import (
	"strings"
	"testing"
	"time"
)

const videoCDL = `
# The adaptation contract from the video experiments, in CDL form.
contract video every 500ms
  region crisis   when loss > 0.25
  region degraded when loss > 0.05 and fps < 20
  region normal
`

func TestParseContractBasics(t *testing.T) {
	c, err := ParseContract(videoCDL)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "video" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.every != 500*time.Millisecond {
		t.Fatalf("period = %v", c.every)
	}
	loss := NewMeasuredCond("loss", 0)
	fps := NewMeasuredCond("fps", 30)
	c.AddCondition(loss).AddCondition(fps)

	if got := c.Eval(); got != "normal" {
		t.Fatalf("region = %q", got)
	}
	loss.Set(0.1)
	fps.Set(30)
	if got := c.Eval(); got != "normal" {
		t.Fatalf("degraded needs both terms: region = %q", got)
	}
	fps.Set(10)
	if got := c.Eval(); got != "degraded" {
		t.Fatalf("region = %q, want degraded", got)
	}
	loss.Set(0.5)
	if got := c.Eval(); got != "crisis" {
		t.Fatalf("region = %q, want crisis", got)
	}
}

func TestParseContractDefaultPeriod(t *testing.T) {
	c, err := ParseContract("contract x\n region only\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.every <= 0 {
		t.Fatalf("default period = %v", c.every)
	}
	if got := c.Eval(); got != "only" {
		t.Fatalf("region = %q", got)
	}
}

func TestParseContractOperators(t *testing.T) {
	cases := []struct {
		op     string
		val    float64
		expect string
	}{
		{"<", 4, "hit"}, {"<", 5, "miss"},
		{"<=", 5, "hit"}, {"<=", 6, "miss"},
		{">", 6, "hit"}, {">", 5, "miss"},
		{">=", 5, "hit"}, {">=", 4, "miss"},
		{"==", 5, "hit"}, {"==", 4, "miss"},
		{"!=", 4, "hit"}, {"!=", 5, "miss"},
	}
	for _, tc := range cases {
		src := "contract t\n region hit when x " + tc.op + " 5\n region miss\n"
		c, err := ParseContract(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		x := NewMeasuredCond("x", tc.val)
		c.AddCondition(x)
		if got := c.Eval(); got != tc.expect {
			t.Errorf("op %s with x=%v: region %q, want %q", tc.op, tc.val, got, tc.expect)
		}
	}
}

func TestParseContractErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no regions":       "contract x",
		"region first":     "region r\ncontract x",
		"double contract":  "contract x\ncontract y\nregion r",
		"bad duration":     "contract x every soon\nregion r",
		"zero duration":    "contract x every 0s\nregion r",
		"bad clause":       "contract x\nwat\nregion r",
		"bad op":           "contract x\nregion r when a ~ 5",
		"bad number":       "contract x\nregion r when a > banana",
		"dangling when":    "contract x\nregion r when",
		"incomplete term":  "contract x\nregion r when a >",
		"missing and":      "contract x\nregion r when a > 1 b < 2",
		"no region name":   "contract x\nregion",
		"no contract name": "contract\nregion r",
	}
	for name, src := range cases {
		if _, err := ParseContract(src); err == nil {
			t.Errorf("%s: parsed successfully", name)
		}
	}
}

func TestParseContractCommentsAndWhitespace(t *testing.T) {
	src := strings.Join([]string{
		"  # leading comment",
		"",
		"contract spaced every 1s  # trailing comment",
		"",
		"   region a when v > 1 # another",
		"\tregion b",
	}, "\n")
	c, err := ParseContract(src)
	if err != nil {
		t.Fatal(err)
	}
	v := NewMeasuredCond("v", 2)
	c.AddCondition(v)
	if got := c.Eval(); got != "a" {
		t.Fatalf("region = %q", got)
	}
}
