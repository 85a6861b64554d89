package giop

import (
	"bytes"
	"testing"

	"repro/internal/cdr"
)

func TestEventContextRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		ctx := EventContext("camera/frames", "cam0", 42, 16000, 123456789, order)
		if ctx.ID != ServiceEventContext {
			t.Fatalf("context id = %#x, want %#x", ctx.ID, ServiceEventContext)
		}
		topic, key, seq, prio, published, err := ParseEventContext(ctx.Data)
		if err != nil {
			t.Fatalf("%v: parse: %v", order, err)
		}
		if topic != "camera/frames" || key != "cam0" {
			t.Fatalf("%v: topic=%q key=%q", order, topic, key)
		}
		if seq != 42 || prio != 16000 || published != 123456789 {
			t.Fatalf("%v: seq=%d prio=%d published=%d", order, seq, prio, published)
		}
	}
}

// TestAppendEventContextReusedBuffer: re-encoding into a reused buffer that
// holds a longer or shorter earlier event gives exactly EventContext's
// bytes, and the views parsed from them carry the names.
func TestAppendEventContextReusedBuffer(t *testing.T) {
	buf := bytes.Repeat([]byte{0xDB}, 96)[:0]
	for i, ev := range []struct{ topic, key string }{
		{"camera/front/left/raw/full-resolution", "a-long-coalescing-key"},
		{"c", ""},
		{"telemetry/engine", "k"},
		{"", ""},
		{"camera/front/left/raw/full-resolution/and/then/some/more/segments/beyond/the/first/capacity", "key"},
	} {
		for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
			buf = AppendEventContext(buf[:0], ev.topic, ev.key, uint64(i), int16(i), int64(-i), order)
			if want := EventContext(ev.topic, ev.key, uint64(i), int16(i), int64(-i), order).Data; !bytes.Equal(buf, want) {
				t.Fatalf("event %d, %v: reused buffer encodes\n% x\nwant\n% x", i, order, buf, want)
			}
			topic, key, seq, _, _, err := ParseEventContextView(buf)
			if err != nil || string(topic) != ev.topic || string(key) != ev.key || seq != uint64(i) {
				t.Fatalf("event %d, %v: parsed %q/%q seq %d (%v)", i, order, topic, key, seq, err)
			}
		}
	}
}

func TestEventContextSurvivesRequestMarshal(t *testing.T) {
	req := &Request{
		RequestID: 3,
		ObjectKey: []byte("consumer/a"),
		Operation: "push",
		ServiceContexts: []ServiceContext{
			EventContext("bulk/data", "", 7, 0, -1, cdr.BigEndian),
		},
		Body: []byte("payload"),
	}
	msg, err := Decode(req.Marshal(cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	data, ok := FindContext(msg.(*Request).ServiceContexts, ServiceEventContext)
	if !ok {
		t.Fatal("event context missing after round trip")
	}
	topic, key, seq, prio, published, err := ParseEventContext(data)
	if err != nil {
		t.Fatal(err)
	}
	if topic != "bulk/data" || key != "" || seq != 7 || prio != 0 || published != -1 {
		t.Fatalf("round trip = %q/%q/%d/%d/%d", topic, key, seq, prio, published)
	}
}

func TestEventContextRejectsTruncated(t *testing.T) {
	ctx := EventContext("a/b", "k", 1, 2, 3, cdr.LittleEndian)
	for n := 0; n < len(ctx.Data); n++ {
		if _, _, _, _, _, err := ParseEventContext(ctx.Data[:n]); err == nil {
			t.Fatalf("truncated event context of %d bytes parsed", n)
		}
	}
}
