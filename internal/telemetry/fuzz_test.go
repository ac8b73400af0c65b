package telemetry

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSONL drives DecodeJSONL with arbitrary streams: it must
// never panic, and the events of any stream it accepts must survive a
// second trip through the JSONL sink and the decoder unchanged.
func FuzzDecodeJSONL(f *testing.F) {
	var valid bytes.Buffer
	j := NewJSONLForNode(&valid, 2)
	tr := New(j)
	tr.Begin(SpanEncode, 2, -1, 5, 11).End()
	tr.CountSeq(CounterSentBytes, 0, 3, 4096, 12, 11)
	tr.Virtual(SpanSend, 0, 3, -1, 11, 12, 4096, 976.5625, 1953.125)
	if err := j.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-7])
	f.Add([]byte(validMeta))
	f.Add([]byte(validMeta + `{"ts":1,"type":"counter","counter":"bogus","node":0,"peer":1,"step":-1,"seq":-1,"value":1}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		_, evs, err := DecodeJSONL(bytes.NewReader(in))
		if err != nil {
			if evs != nil {
				t.Fatal("non-nil events alongside error")
			}
			return
		}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		for _, e := range evs {
			j.Emit(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		_, back, err := DecodeJSONL(&buf)
		if err != nil {
			t.Fatalf("re-emitted stream does not decode: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(evs) {
			t.Fatalf("%d events after a round trip, want %d", len(back), len(evs))
		}
		for i := range evs {
			if back[i] != evs[i] {
				t.Fatalf("event %d changed across a round trip: %+v vs %+v", i, back[i], evs[i])
			}
		}
	})
}
