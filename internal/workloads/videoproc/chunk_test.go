package videoproc

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzChunkDecode checks the direct chunk decoder against
// encoding/json. Whatever input the direct path accepts must be JSON
// that json.Unmarshal decodes, without error, to the same message, and
// parseChunk must agree with json.Unmarshal on every input. Every
// message marshalChunk writes must take the direct path.
func FuzzChunkDecode(f *testing.F) {
	for _, s := range []string{
		`{"run":1,"index":2}`,
		`{"run":12,"key":"tmp/video000012/chunk-0003","index":3}`,
		`{"run":0,"key":"","index":0}`,
		`{"run":-0,"index":-0}`,
		// Leading zeros, signs and overflow.
		`{"run":01,"index":2}`,
		`{"run":+1,"index":2}`,
		`{"run":-9223372036854775808,"index":9223372036854775807}`,
		`{"run":9223372036854775808,"index":0}`,
		`{"run":-9223372036854775809,"index":0}`,
		`{"run":18446744073709551616,"index":0}`,
		`{"run":123456789012345678901,"index":0}`,
		`{"run":1.0,"index":2}`,
		`{"run":1e3,"index":2}`,
		`{"run":-,"index":2}`,
		// Whitespace, case, null, duplicate, missing and extra keys.
		`{ "run":1,"index":2}`,
		`{"run":1,"index":2} `,
		"{\"run\":1,\"index\":2}\n",
		`{"RUN":1,"index":2}`,
		`{"run":null,"index":2}`,
		`{"run":1,"run":2,"index":3}`,
		`{"run":1,"index":2,"index":3}`,
		`{"run":1,"key":"a","key":"b","index":2}`,
		`{"index":2,"run":1}`,
		`{"run":1}`,
		`{"run":1,"index":2,"extra":3}`,
		`{"run":1,"index":2}}`,
		`{"run":1,"key":"a"`,
		// Escapes, control bytes and invalid UTF-8 in the key.
		`{"run":1,"key":"a<b>&","index":2}`,
		`{"run":1,"key":"\"\\\/\b\f\n\r\t","index":2}`,
		"{\"run\":1,\"key\":\"\\u0000\\u001f\u2028\u2029\\u2028\\ufffd\",\"index\":2}",
		`{"run":1,"key":"\ud83d\ude00","index":2}`,
		`{"run":1,"key":"\ud800","index":2}`,
		`{"run":1,"key":"\uDFFF","index":2}`,
		`{"run":1,"key":"\u12","index":2}`,
		`{"run":1,"key":"\u00g0","index":2}`,
		`{"run":1,"key":"\x41","index":2}`,
		`{"run":1,"key":"\a","index":2}`,
		"{\"run\":1,\"key\":\"a\x01b\",\"index\":2}",
		"{\"run\":1,\"key\":\"a\x7fb\",\"index\":2}",
		"{\"run\":1,\"key\":\"\xff\",\"index\":2}",
		"{\"run\":1,\"key\":\"\xed\xa0\x80\",\"index\":2}",
		"{\"run\":1,\"key\":\"é世🙂 \",\"index\":2}",
		`{"run":1,"key":"unterminated,"index":2}`,
		``,
		`null`,
	} {
		f.Add([]byte(s), int64(0), "", int64(0))
	}
	f.Add([]byte(nil), int64(math.MinInt64), "tmp/video000001/result-0079", int64(math.MaxInt64))
	f.Add([]byte(nil), int64(-7), "<&> \"\\ \x00\x1f\u2028\u2029\xff\xfe é", int64(-1))
	f.Add([]byte(nil), int64(42), "\xed\xa0\x80\xc3", int64(0))
	f.Fuzz(func(t *testing.T, data []byte, run int64, key string, index int64) {
		var want chunkMsg
		wantErr := json.Unmarshal(data, &want)
		if m, ok := parseCanonicalChunk(data); ok && (wantErr != nil || m != want) {
			t.Fatalf("direct decode of %q = %+v; json.Unmarshal = %+v, %v", data, m, want, wantErr)
		}
		if m, err := parseChunk(data); (err == nil) != (wantErr == nil) || err == nil && m != want {
			t.Fatalf("parseChunk(%q) = %+v, %v; json.Unmarshal = %+v, %v", data, m, err, want, wantErr)
		}

		body := marshalChunk(chunkMsg{Run: run, Key: key, Index: int(index)})
		var back chunkMsg
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", body, err)
		}
		if m, ok := parseCanonicalChunk(body); !ok || m != back {
			t.Fatalf("direct decode of marshalChunk's %q = %+v, %v; want %+v", body, m, ok, back)
		}
	})
}
