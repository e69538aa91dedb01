package netjson

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNetjson asserts the spec codec's round-trip contract: parsing
// never panics on malformed input, every spec the parser accepts
// re-emits as JSON the parser accepts again, and the emitted form is a
// fixpoint (emit(parse(emit(s))) == emit(s)) — the canonical-form
// property cmd/abwlp relies on when specs are piped between tools.
func FuzzNetjson(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"nodes":[]}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0},{"x":50,"y":0}],"query":{"path":[0,1]}}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0},{"x":50,"y":0},{"x":100,"y":0}],` +
		`"csRangeFactor":1.5,` +
		`"background":[{"path":[0,1],"demand":2}],` +
		`"query":{"src":0,"dst":2,"metric":"average-e2eD"}}`))
	f.Add([]byte(`{"nodes":[{"x":1e308,"y":-1e308}],"query":{}}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return // malformed input is rejected, never a panic
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		spec2, err := ParseSpec(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("emitted spec is rejected by the parser: %v\n%s", err, first)
		}
		second, err := json.Marshal(spec2)
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not a fixpoint:\n first: %s\nsecond: %s", first, second)
		}
	})
}
